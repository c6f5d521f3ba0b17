#!/usr/bin/env python3
"""Desk-scale certification sweep: rho(R_infty) over a step-size grid.

For inpainting and deblurring, and for both the denoise-in-the-gradient and
the proximal-blend algorithms, certify the asymptotic linear rate on a grid
of step fractions (or 1/L values). Emits one combined CSV; every row should
report a rate strictly below 1 whenever the assumption checks pass.
"""

import argparse
from pathlib import Path

import numpy as np

from pnpcert import (
    KernelParams,
    Rng,
    build_denoiser,
    check_assumption,
    gaussian_kernel,
    lambda_max_gram,
    load_pgm,
    make_blur,
    make_guide,
    make_inpaint,
    observe,
    pnp_operator,
    red_operator,
)
from pnpcert.cli import _center_crop
from pnpcert.spectral import SWEEP_CSV_HEADER, build_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("image", help="input PGM (center-cropped)")
    parser.add_argument("--crop", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise-sigma", type=float, default=0.03)
    parser.add_argument("--grid", default="0.10,0.25,0.50,0.75,0.90")
    parser.add_argument("--window-shape", default="hat", choices=["box", "hat"])
    parser.add_argument("--power-tol", type=float, default=1e-9,
                        help="relative tolerance of the ARPACK eigensolves")
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    truth = _center_crop(load_pgm(args.image), args.crop)
    grid = [float(v) for v in args.grid.split(",")]
    params = KernelParams(window_shape=args.window_shape)
    rows = []
    for task in ("inpaint", "deblur"):
        if task == "inpaint":
            op = make_inpaint(truth.rows, truth.cols, 0.3, Rng(args.seed))
        else:
            op = make_blur(truth.rows, truth.cols, gaussian_kernel(9, 2.0))
        b = observe(op, truth, args.noise_sigma, Rng(args.seed + 1))
        den = build_denoiser(make_guide(task, b, op), params, "dsg")
        lam = lambda_max_gram(op).value
        checks = check_assumption(den, op)
        for algorithm in ("pnp_fista", "red_apg"):
            for g in grid:
                if algorithm == "pnp_fista":
                    it = pnp_operator(op, den, g / lam)
                else:
                    it = red_operator(op, den, mu=g, theta=g)
                report = build_report(task, it, g, lam, checks, power_tol=args.power_tol)
                row = f"{algorithm},{report.csv_row()}"
                rows.append(row)
                print(row)
    Path(args.out).write_text(
        "algorithm," + SWEEP_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    )
    certified = sum(row.endswith("true") for row in rows)
    print(f"\n{certified}/{len(rows)} rows certified -> {args.out}")


if __name__ == "__main__":
    main()
