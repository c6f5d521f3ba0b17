"""Denoiser-regularized linear inverse problems with per-instance
convergence certification.

Layers:

* :mod:`pnpcert.imgcore`        -- images, PGM I/O, reproducible RNG, PSNR/SSIM
* :mod:`pnpcert.fwdops`         -- inpainting / blur / superresolution operators
* :mod:`pnpcert.kernel_denoise` -- guide-driven sparse kernel denoisers
* :mod:`pnpcert.solvers`        -- the accelerated iterations and their traces
* :mod:`pnpcert.spectral`       -- iteration operators, spectral radii, reports
* :mod:`pnpcert.cli`            -- the ``pnpcert`` command-line tool
"""

from .imgcore import Image, Rng, gaussian_noise, load_pgm, psnr, save_pgm, ssim
from .fwdops import (
    EigenEstimate,
    ForwardOp,
    gaussian_kernel,
    lambda_max_gram,
    make_blur,
    make_inpaint,
    make_superres,
    observe,
)
from .kernel_denoise import (
    KernelDenoiser,
    KernelParams,
    apply_w,
    build_denoiser,
    build_dsg,
    build_kernel,
    build_nlm,
    make_guide,
)
from .solvers import (
    MomentumSchedule,
    SolverTrace,
    parse_schedule,
    pnp_fista,
    prox_quadratic,
    red_apg,
    scaled_pnp_fista,
)
from .spectral import (
    IterationOperator,
    SpectralReport,
    accelerated_radius,
    check_assumption,
    pnp_operator,
    red_operator,
    scaled_operator,
    spectral_radius,
)

__all__ = [
    "Image", "Rng", "gaussian_noise", "load_pgm", "psnr", "save_pgm", "ssim",
    "EigenEstimate", "ForwardOp", "gaussian_kernel", "lambda_max_gram",
    "make_blur", "make_inpaint", "make_superres", "observe",
    "KernelDenoiser", "KernelParams", "apply_w", "build_denoiser",
    "build_dsg", "build_kernel", "build_nlm", "make_guide",
    "MomentumSchedule", "SolverTrace", "parse_schedule",
    "pnp_fista", "prox_quadratic", "red_apg", "scaled_pnp_fista",
    "IterationOperator", "SpectralReport", "accelerated_radius",
    "check_assumption", "pnp_operator",
    "red_operator", "scaled_operator", "spectral_radius",
]
