#!/usr/bin/env python3
"""Momentum-schedule comparison on an inpainting instance.

Approximates the unique limit with a long run under the classic t-sequence
momentum, then traces the distance of each schedule's iterates to that limit.
One CSV per schedule; the constant(0) schedule is the non-accelerated
baseline iteration.

The problem and the runs are those of ``pnpcert schedules`` on the matching
config: the CLI defaults, a hat window and the options below. Errors exit
with the CLI's one-line messages and codes (2 for a bad option).
"""

import argparse
import sys

from pnpcert.cli import EXIT_OK, ExperimentConfig, compare_schedules, exit_code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("image", help="input PGM (center-cropped)")
    parser.add_argument("--crop", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mask-fraction", type=float, default=0.3)
    parser.add_argument("--noise-sigma", type=float, default=0.03)
    parser.add_argument("--gamma", type=float, default=0.9,
                        help="step fraction of 1/lambda_hat")
    parser.add_argument("--schedules",
                        default="beck,chambolle(3),log1p,geometric,constant(0)")
    parser.add_argument("--ref-iters", type=int, default=20000)
    parser.add_argument("--max-iter", type=int, default=20000)
    parser.add_argument("--out", default="schedules_out")
    args = parser.parse_args()

    cfg = ExperimentConfig(
        task="inpaint", image=args.image, crop=args.crop, seed=args.seed,
        mask_fraction=args.mask_fraction, noise_sigma=args.noise_sigma,
        window_shape="hat", gamma=args.gamma, max_iter=args.max_iter, out=args.out,
    )
    compare_schedules(cfg, args.schedules, args.ref_iters)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(exit_code(main))
