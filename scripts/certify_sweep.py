#!/usr/bin/env python3
"""Desk-scale certification sweep: rho(R_infty) over a step-size grid.

For inpainting and deblurring, and for both the denoise-in-the-gradient and
the proximal-blend algorithms, certify the asymptotic linear rate on a grid
of step fractions (or 1/L values). Emits one combined CSV; every row should
report a rate strictly below 1 whenever the assumption checks pass.

Each problem is the CLI's: ``build_problem`` on a config with the CLI
defaults, a 9-tap blur of sigma 2 and the options below, certified by
``certify_grid``. So a row, after its algorithm column, is the row that
``pnpcert certify`` writes for that config with the same ``--power-tol``.
"""

import argparse
from pathlib import Path

from pnpcert.cli import ExperimentConfig, build_problem, certify_grid
from pnpcert.spectral import SWEEP_CSV_HEADER


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

    grid = [float(v) for v in args.grid.split(",")]
    rows = []
    for task in ("inpaint", "deblur"):
        for algorithm in ("pnp_fista", "red_apg"):
            cfg = ExperimentConfig(
                task=task, image=args.image, crop=args.crop, seed=args.seed,
                noise_sigma=args.noise_sigma, kernel_size=9, kernel_sigma=2.0,
                window_shape=args.window_shape, algorithm=algorithm,
            )
            for report in certify_grid(build_problem(cfg), grid, power_tol=args.power_tol):
                rows.append(f"{algorithm},{report.csv_row()}")
                print(rows[-1])
    Path(args.out).write_text(
        "algorithm," + SWEEP_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    )
    certified = sum(row.endswith("true") for row in rows)
    print(f"\n{certified}/{len(rows)} rows certified -> {args.out}")


if __name__ == "__main__":
    main()
