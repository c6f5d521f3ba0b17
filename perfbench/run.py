#!/usr/bin/env python3
"""pnpcert benchmark: time the CLI on one workload, end to end or layer by layer.

Usage, from the root of a pnpcert checkout:

    python3 perfbench/run.py --workload recon-blur-red-64 --seed 1 --seconds 20 --trace 0

Each run happens in a fresh child process (``worker.py``) with BLAS threads
capped at the CPUs this process may use, so ``peak_rss_mb`` is that child's
own ``ru_maxrss``. Load is closed-loop: one client runs one CLI command at a
time. Prints one line per metric with its unit, then, as the last line, the
JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced run with ``--trace 1``. Exits non-zero without a result when the
checkout holds no pnpcert sources or the child fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",        # all CLI commands of one cycle, end to end
    "setup_s": "s",       # time in cli.build_problem, summed over the cycle
    "compute_s": "s",     # the rest of each command: the solve, or the certify sweep
    "peak_rss_mb": "MB",  # ru_maxrss of the child that ran the workload
}

PER_LAYER = {
    "fwdops.gram_calls": "count",
    "fwdops.gram_s": "s",
    "fwdops.gram_ms": "ms",
    "fwdops.apply_calls": "count",
    "fwdops.adjoint_calls": "count",
    "fwdops.lambda_hat_s": "s",
    "fwdops.lambda_hat_iters": "count",
    "fwdops.lambda_hat_converged": "ratio",
    "fwdops.observe_s": "s",
    "fwdops.make_op_s": "s",
    "solvers.solve_s": "s",
    "solvers.iterations": "count",
    "solvers.converged": "ratio",
    "solvers.iter_ms": "ms",
    "solvers.self_s": "s",
    "solvers.cg_calls": "count",
    "solvers.cg_grams": "count",
    "solvers.cg_s": "s",
    "solvers.prox_ms": "ms",
    "kernel_denoise.guide_s": "s",
    "kernel_denoise.build_kernel_s": "s",
    "kernel_denoise.normalize_s": "s",
    "kernel_denoise.nnz": "count",
    "kernel_denoise.matrix_mb": "MB",
    "kernel_denoise.rss_after_build_mb": "MB",
    "kernel_denoise.w_matvec_ms": "ms",
    "kernel_denoise.w_bytes_per_matvec": "B",
    "spectral.rho_s": "s",
    "spectral.rho_iters": "count",
    "spectral.rho_converged": "ratio",
    "spectral.check_s": "s",
    "spectral.check_calls": "count",
    "spectral.cg_calls": "count",
    "spectral.cg_grams": "count",
    "spectral.self_s": "s",
    "imgcore.rng_s": "s",
    "imgcore.gaussian_draws": "count",
    "imgcore.gaussian_noise_ms": "ms",
    "imgcore.shuffle_items": "count",
    "imgcore.load_pgm_s": "s",
    "imgcore.save_pgm_s": "s",
    "imgcore.quality_s": "s",
    "cli.build_problem_s": "s",
    "cli.write_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}

COMPUTED = {"kernel_denoise.matrix_mb", "kernel_denoise.w_bytes_per_matvec"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/pnpcert/cli.py", "scripts/make_test_image.py")
               if not (root / p).is_file()]
    if missing:
        print(f"not a pnpcert checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work)],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"workload run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"workload run failed with exit code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    info = result.pop("info")
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for span in info.pop("spans", []):
        print(f"# span {span}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    print(f"# failed_frac: {result['failed']}/{result['attempted']}")
    for name, m in metrics.items():
        note = " (computed from nnz and index dtypes)" if name in COMPUTED else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
