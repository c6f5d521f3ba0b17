"""The three schemes' update maps and their spectral certification.

Each solver's frozen-momentum update is an affine map x -> P x + q, and
``IterationOperator.step`` is the one place where the three maps are
written: the solvers iterate it, and ``apply`` (P) is the same method with
a zero data term. So the certified map is the iterated map. When the
eigenvalues of P lie in [0, 1), the full momentum iteration converges
globally and linearly, with asymptotic rate sqrt(rho(P)): the limiting
two-step update has companion form [[2P, -P], [I, 0]], whose eigenvalues
lie on |lambda| = sqrt(mu) for each eigenvalue mu of P. An eigenvalue
mu < -1/3, possible past 4/3 of the pnp step bound 1 / lambda_max(A^T A)
or with W indefinite, gives roots of modulus |mu| + sqrt(mu^2 - mu) > 1.

This module holds the map, which checks its own parameters. It finds the
eigenvalues of P that bound the rate with ARPACK (Lehoucq, Sorensen & Yang,
SIAM 1998) on the iterated map itself, and verifies the convergence
preconditions on the denoiser/operator pair, deciding those on the spectrum
of W by one symmetric Lanczos solve on W or its symmetric similar form,
with the tolerances ``*_TOL`` that the reports also print. Every one of
these solves goes through ``fwdops.arpack_eigenvalue``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fwdops import (  # lambda_max_gram: a binding the benchmark tracer wraps
    EigenEstimate, ForwardOp, arpack_eigenvalue, check_len, l2_norm, lambda_max_gram,
    solve_shifted_gram,
)
from .imgcore import gaussian_noise  # unused here: a binding the benchmark tracer wraps
from .kernel_denoise import KernelDenoiser, band_product

STOCHASTIC_TOL = 1e-10  # largest row-sum defect |W 1 - 1|
SPECTRUM_TOL = 1e-8     # W's spectrum must lie in [-tol, 1 + tol]
FIX_GAP_TOL = 1e-10     # W's second eigenvalue must lie at or below 1 - tol


@dataclass
class IterationOperator:
    """One-step update map x -> P x + q of a solver with momentum frozen.

    kinds, with data term d = A^T b (pnp kinds) or mu A^T b (red):
      pnp        -- P x + q = W (x - gamma (A^T A x - d))
      red        -- P x + q = (I + mu A^T A)^-1 (theta W x + (1 - theta) x + d)
      scaled_pnp -- P x + q = W (x - gamma D^-1 (A^T A x - d)), nlm weights only

    The constructor raises ValueError unless the sizes agree, the kind is
    known, gamma >= 0 (pnp kinds; nan fails), mu > 0 and 0 <= theta <= 1.

    With dsg weights, and for the scaled kind, P is similar to a product of
    two symmetric matrices, one PSD unless W is indefinite and the step is
    past the bound below, so its spectrum is real; it lies in [0, 1] while
    W's does and, for the pnp kinds, gamma <= 1 / lambda_max of the (scaled)
    Gram map (1 / lambda_max(A^T A) is a D-free lower bound: degrees >= 1).
    At a fraction f > 1 of it, P's spectrum stays at or above 1 - f while
    W's is in [0, 1]: below -1/3 (divergence) needs f > 4/3; ``build_report``
    rates it. With nlm weights, pnp and red are inside the theorem on
    inpainting, where A^T A commutes with D; on blur P has complex eigenvalues.
    """

    kind: str
    op: ForwardOp
    denoiser: KernelDenoiser
    gamma: float | None = None
    mu: float | None = None
    theta: float | None = None
    _dinv: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.denoiser.n != self.op.n:
            raise ValueError(f"denoiser size {self.denoiser.n} != operator size {self.op.n}")
        if self.kind == "red":
            if self.mu is None or not self.mu > 0:
                raise ValueError("mu must be positive")
            if self.theta is None or not 0 <= self.theta <= 1:
                raise ValueError("theta must be in [0, 1]")
        elif self.kind in ("pnp", "scaled_pnp"):
            if self.gamma is None or not self.gamma >= 0:
                raise ValueError("gamma must be a nonnegative step size")
        else:
            raise ValueError(f"unknown iteration kind: {self.kind!r}")
        if self.kind == "scaled_pnp":
            if self.denoiser.mode != "nlm":
                raise ValueError("scaled iteration requires an nlm-mode denoiser")
            self._dinv = 1.0 / self.denoiser.degrees

    @property
    def n(self) -> int:
        return self.op.n

    def data_term(self, b: np.ndarray) -> np.ndarray:
        """The data term d of ``step`` for measurements b."""
        atb = self.op.adjoint(b)
        return self.mu * atb if self.kind == "red" else atb

    def step(self, x: np.ndarray, data: np.ndarray | float) -> np.ndarray:
        """P x + q for a precomputed data term d from ``data_term``; d = 0.0 gives P x.

        The solvers iterate this method, so it takes no copies and no checks.
        """
        W = self.denoiser.bands
        if self.kind == "pnp":
            return band_product(W, x - self.gamma * (self.op.gram(x) - data))
        if self.kind == "scaled_pnp":
            return band_product(W, x - self.gamma * (self._dinv * (self.op.gram(x) - data)))
        blended = self.theta * band_product(W, x) + (1.0 - self.theta) * x
        return solve_shifted_gram(self.op, self.mu, blended + data)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.step(check_len(x, self.n), 0.0)


def spectral_radius(
    iter_op: IterationOperator, tol: float = 1e-10, max_iter: int = 100000
) -> EigenEstimate:
    """The signed eigenvalue of P of largest modulus, by ARPACK ``eigs`` on
    ``iter_op.apply``, the map the solvers iterate."""
    return arpack_eigenvalue(iter_op.apply, iter_op.n, "LM", tol, max_iter)


def accelerated_radius(mu: float | complex) -> float:
    """Larger modulus of the companion roots lambda^2 - 2 mu lambda + mu = 0
    that an eigenvalue mu of P gives the form [[2P, -P], [I, 0]].

    It is sqrt(mu) for mu in [0, 1], and |mu| + sqrt(mu^2 - mu) for other
    real mu, which exceeds 1 exactly when mu < -1/3 or mu > 1; nan gives nan.
    """
    if not isinstance(mu, complex) and 0.0 <= mu <= 1.0:
        return float(np.sqrt(mu))
    s = np.sqrt(complex(mu) ** 2 - mu)
    return float(max(abs(mu + s), abs(mu - s)))


@dataclass
class AssumptionChecks:
    """Verdicts for the convergence preconditions of a denoiser/operator pair, with
    the convergence flag and W-application count of the Lanczos solve they read."""

    stochastic_ok: bool
    stochastic_defect: float
    forward_ok: bool          # A 1 != 0
    forward_one_norm: float
    spectrum_ok: bool         # spectrum of W in [0, 1]
    spectrum_low: float
    spectrum_high: float
    fix_ok: bool              # eigenvalue 1 is simple: fixed vectors are the constants
    second_eigenvalue: float
    spectrum_converged: bool
    spectrum_iterations: int


def check_assumption(denoiser: KernelDenoiser, op) -> AssumptionChecks:
    """Verify stochasticity of W, A 1 != 0, the spectrum of W, and simplicity
    of the eigenvalue 1.

    The spectrum checks read the lowest and the two highest eigenvalues of W
    from one symmetric Lanczos solve, ``fwdops.arpack_eigenvalue`` with "BE",
    tol 1e-12 and 10 n restarts, whose size rule asks for n >= 4. It runs on W
    for dsg weights, or on its similar form D^1/2 W D^-1/2 for nlm weights,
    applied as x -> s (W (x / s)) with s = sqrt(D) and never built. If ARPACK
    does not converge, the spectrum values are NaN and both verdicts False.
    """
    n = denoiser.n
    W = denoiser.bands
    ones = np.ones(n)
    defect = float(np.abs(band_product(W, ones) - ones).max())
    a_one = l2_norm(op.apply(ones))
    s = np.sqrt(denoiser.degrees)
    sym = ((lambda x: band_product(W, x)) if denoiser.mode == "dsg"
           else lambda x: s * band_product(W, x / s))
    ends = arpack_eigenvalue(sym, n, "BE", tol=1e-12, max_iter=10 * n, k=3)
    low, second, high = (float(v) for v in ends.value)  # NaN fails both comparisons below
    return AssumptionChecks(
        stochastic_ok=defect <= STOCHASTIC_TOL,
        stochastic_defect=defect,
        forward_ok=a_one > 1e-10 * np.sqrt(n),
        forward_one_norm=a_one,
        spectrum_ok=low >= -SPECTRUM_TOL and high <= 1.0 + SPECTRUM_TOL,
        spectrum_low=low,
        spectrum_high=high,
        fix_ok=second <= 1.0 - FIX_GAP_TOL,
        second_eigenvalue=second,
        spectrum_converged=ends.converged,
        spectrum_iterations=ends.iterations,
    )


SWEEP_CSV_HEADER = "task,denoiser_mode,gamma_or_invL,rho_P,rho_R,certified"


@dataclass
class SpectralReport:
    """Per-instance certification summary."""

    task: str
    denoiser_mode: str
    grid_value: float          # step-size fraction (pnp paths) or 1/L (red)
    rho_step: EigenEstimate    # P's largest-modulus eigenvalue; flag and count cover all solves
    rho_accel: float           # the certified asymptotic rate
    certified: bool            # rho_accel < 1 and every solve converged
    assumptions: AssumptionChecks
    gamma_interval: tuple[float, float]
    power_tol: float

    def csv_row(self) -> str:
        return (
            f"{self.task},{self.denoiser_mode},{self.grid_value!r},"
            f"{self.rho_step.value!r},{self.rho_accel!r},{str(self.certified).lower()}"
        )

    def to_kv(self) -> str:
        a = self.assumptions
        lines = [
            f"task={self.task}",
            f"denoiser_mode={self.denoiser_mode}",
            f"gamma_or_invL={self.grid_value!r}",
            f"rho_P={self.rho_step.value!r}",
            f"rho_P_converged={str(self.rho_step.converged).lower()}",
            f"rho_P_iterations={self.rho_step.iterations}",
            f"rho_R={self.rho_accel!r}",
            f"certified={str(self.certified).lower()}",
            f"gamma_interval_low={self.gamma_interval[0]!r}",
            f"gamma_interval_high={self.gamma_interval[1]!r}",
            f"power_tol={self.power_tol!r}",
            f"check_stochastic={str(a.stochastic_ok).lower()}",
            f"check_stochastic_defect={a.stochastic_defect!r}",
            f"check_stochastic_tol={STOCHASTIC_TOL!r}",
            f"check_forward_one={str(a.forward_ok).lower()}",
            f"check_forward_one_norm={a.forward_one_norm!r}",
            # constant: the spectrum check runs at every n; the key and
            # check_heuristic stay so that parsers of the key list keep working
            "check_spectrum_ran=true",
            f"check_spectrum={str(a.spectrum_ok).lower()}",
            f"check_spectrum_low={a.spectrum_low!r}",
            f"check_spectrum_high={a.spectrum_high!r}",
            f"check_spectrum_tol={SPECTRUM_TOL!r}",
            f"check_fix_simple={str(a.fix_ok).lower()}",
            f"second_eigenvalue={a.second_eigenvalue!r}",
            f"check_fix_gap_tol={FIX_GAP_TOL!r}",
            "check_heuristic=false",
            f"check_spectrum_converged={str(a.spectrum_converged).lower()}",
            f"check_spectrum_iterations={a.spectrum_iterations}",
        ]
        return "\n".join(lines) + "\n"


def build_report(
    task: str,
    iter_op: IterationOperator,
    grid_value: float,
    lambda_hat: float,
    checks: AssumptionChecks,
    power_tol: float = 1e-8,
    power_max_iter: int = 20000,
) -> SpectralReport:
    """Assemble a certification report for one iteration operator.

    ``checks`` comes from ``check_assumption`` on the same denoiser and
    operator; it does not depend on the grid value, so sweeps compute it once.
    The rate is r(mu_LM), r = ``accelerated_radius``, mu_LM P's largest-modulus
    eigenvalue: exact where P's spectrum is real (dsg, scaled, or inpainting)
    with a floor r(floor) <= r(mu_LM), as r grows with |mu| either side of 0.
    The floor reads the spectrum check's low end (0 if it passes): min(low, 0)
    for red and pnp fractions f <= 1, 1 - f above 1 if the check passes.
    Else the smallest-real-part eigenvalue's rate counts too, unless mu_LM's
    solve failed. ``power_tol``/``power_max_iter`` are ARPACK's tol/maxiter.
    """
    est = spectral_radius(iter_op, tol=power_tol, max_iter=power_max_iter)
    rate = accelerated_radius(est.value)
    low = 0.0 if checks.spectrum_ok else checks.spectrum_low  # nan if its solve failed
    if iter_op.kind != "red" and grid_value > 1.0:
        low = 1.0 - grid_value if checks.spectrum_ok else np.nan
    floor = min(low, 0.0)  # a nan low stays nan; min(0.0, nan) would be 0.0
    real = (iter_op.kind == "scaled_pnp" or iter_op.denoiser.mode == "dsg"
            or iter_op.op.kind == "inpaint")
    if not (np.isnan(rate) or real and accelerated_radius(floor) <= rate):
        other = arpack_eigenvalue(iter_op.apply, iter_op.n, "SR", power_tol, power_max_iter)
        rate = float(np.max([rate, accelerated_radius(other.value)]))  # nan propagates
        est = EigenEstimate(
            est.value, est.converged and other.converged, est.iterations + other.iterations
        )
    return SpectralReport(
        task=task,
        denoiser_mode=iter_op.denoiser.mode,
        grid_value=grid_value,
        rho_step=est,
        rho_accel=rate,
        certified=est.converged and rate < 1.0,
        assumptions=checks,
        gamma_interval=(0.0, 1.0 / lambda_hat),
        power_tol=power_tol,
    )
