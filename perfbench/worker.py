"""One benchmark run of one workload, in the process ``run.py`` spawned for it.

Run from the root of a pnpcert checkout; ``run.py`` passes the arguments.
Prints one JSON object as the last line of standard output: the result
fields of the benchmark contract plus an ``info`` record.

Untraced (``--trace 0``): repeat cycles of the workload's CLI commands until
``--seconds`` would be exceeded (at least ``MIN_CYCLES``), and report the
median cycle; ``setup_s`` is the median of at least ``MIN_SETUPS`` set-ups
where that costs at most a tenth of the run. Traced (``--trace 1``): one
untraced cycle, one cycle with every layer wrapped by ``tracer.instrument``,
then per-call probes on the workload's own built problem.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(Path(__file__).parent)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from make_test_image import synthesize  # noqa: E402
from pnpcert import cli, imgcore, kernel_denoise, solvers  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import PSNR_TOL_DB, WORKLOADS  # noqa: E402

MIN_CYCLES = 2
MIN_SETUPS = 9
_SC_LEVEL3_CACHE_SIZE = 194  # glibc's name number for sysconf


class SetupTimer:
    """Times every ``cli.build_problem`` call; one perf_counter pair per command."""

    def __init__(self):
        self.times = []
        self._original = cli.build_problem

        def timed(cfg):
            t0 = time.perf_counter()
            try:
                return self._original(cfg)
            finally:
                self.times.append(time.perf_counter() - t0)

        cli.build_problem = timed

    def take(self) -> float:
        total, self.times = sum(self.times), []
        return total


class Runner:
    def __init__(self, workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.image = work / "image.pgm"
        imgcore.save_pgm(synthesize(workload.side, workload.side), self.image)
        self.configs = []
        for i, inst in enumerate(workload.instances):
            out = work / f"out{i}"
            path = work / f"instance{i}.cfg"
            path.write_text(workload.config_text(inst, self.image, seed, out))
            self.configs.append((inst, path, out))
        self.timer = SetupTimer()
        self.psnr_db = {}
        self.first_bytes = {}
        self.cycles = 0
        self.failed = [0] * len(self.configs)  # failed commands, per instance
        self.problems = []

    def fail(self, what: str) -> None:
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def command(self, index: int) -> bool:
        inst, path, out = self.configs[index]
        argv = [self.w.command, "--config", str(path), *self.w.args]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            self.fail(f"instance {index}: {type(exc).__name__}: {exc}")
            return False
        if code != 0:
            self.fail(f"instance {index}: exit code {code}")
            return False
        return self.check_outputs(index, inst, out)

    def check_outputs(self, index: int, inst, out: Path) -> bool:
        artifact = out / ("summary.txt" if self.w.command == "run" else "certify.csv")
        data = artifact.read_bytes()
        if self.first_bytes.setdefault(index, data) != data:
            self.fail(f"instance {index}: {artifact.name} differs between cycles")
            return False
        if self.w.command == "run":
            recon = np.load(out / "recon.npy")
            if not np.all(np.isfinite(recon)):
                self.fail(f"instance {index}: non-finite reconstruction")
                return False
            value = float(summary(out)["psnr_recon"])
            self.psnr_db[inst.config["task"]] = value
            if not value >= inst.psnr_ref - PSNR_TOL_DB:
                self.fail(f"instance {index}: psnr {value:.3f} dB below reference "
                          f"{inst.psnr_ref:.3f} - {PSNR_TOL_DB}")
                return False
            return True
        flags = tuple(row["certified"] == "true" for row in certify_rows(out))
        if flags != self.w.certified:
            self.fail(f"instance {index}: certified {flags}, expected {self.w.certified}")
            return False
        return True

    @property
    def attempted(self) -> int:
        return self.cycles * len(self.configs)

    def cycle(self) -> tuple[float, float]:
        """Run every instance once; return (wall s, setup s)."""
        t0 = time.perf_counter()
        for index in range(len(self.configs)):
            self.failed[index] += not self.command(index)
        wall = time.perf_counter() - t0
        self.cycles += 1
        return wall, self.timer.take()

    def setup(self) -> float:
        """Build every instance's problem once, outside a command; return setup s."""
        for inst, path, out in self.configs:
            cli.build_problem(cli.parse_config(path))
        return self.timer.take()

    def check_radii(self) -> None:
        """Compare each certify instance's rho_P with the ARPACK reference.

        A wrong certificate fails every command of its instance: they all
        wrote the same bytes.
        """
        for index, (inst, path, out) in enumerate(self.configs):
            prob = cli.build_problem(cli.parse_config(path))
            for row in certify_rows(out):
                grid_value = float(row["gamma_or_invL"])
                rho, ref = float(row["rho_P"]), oracle.reference_radius(prob, grid_value)
                print(f"rho_P {rho!r} reference {ref!r} at {grid_value} "
                      f"(|diff| {abs(rho - ref):.3e}, tol {self.w.rho_tol:g})", file=sys.stderr)
                if not abs(rho - ref) <= self.w.rho_tol:
                    self.fail(f"instance {index}: rho_P {rho!r} vs reference {ref!r}")
                    self.failed[index] = self.cycles


def summary(out: Path) -> dict:
    lines = (out / "summary.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def certify_rows(out: Path) -> list[dict]:
    header, *rows = (out / "certify.csv").read_text().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


def probes(run: Runner) -> dict[str, float]:
    """Per-call medians (ms) on the workload's own built problem, after warm-up."""
    prob = cli.build_problem(cli.parse_config(run.configs[0][1]))
    cfg = prob.cfg
    n = prob.op.n
    x = np.random.default_rng(run.seed).random(n)
    mu = 1.0 / (cfg.lam * cfg.L)
    return {
        "fwdops.gram_ms": tracer.median_ms(lambda: prob.op.gram(x), 50, 1.0),
        "kernel_denoise.w_matvec_ms": tracer.median_ms(
            lambda: kernel_denoise.apply_w(prob.denoiser, x), 50, 1.0),
        "solvers.prox_ms": tracer.median_ms(
            lambda: solvers.prox_quadratic(prob.op, prob.observed, mu, x, cg_tol=cfg.cg_tol,
                                           cg_max_iter=cfg.cg_max_iter), 20, 1.0),
        "imgcore.gaussian_noise_ms": tracer.median_ms(
            lambda: imgcore.gaussian_noise(imgcore.Rng(run.seed), n, cfg.noise_sigma), 5, 1.0),
    }


def l3_bytes() -> int:
    """Last-level cache size from glibc's sysconf (CPUID; no file is read)."""
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    return max(int(libc.sysconf(_SC_LEVEL3_CACHE_SIZE)), 0)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "l3_mib": l3_bytes() / 2**20,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    run = Runner(WORKLOADS[args.workload], args.seed, Path(args.work_dir))
    walls, setups = [], []
    if args.trace:
        walls.append(run.cycle()[0])
        with tracer.Tracer() as tr:
            tracer.instrument(tr)
            traced_wall = run.cycle()[0]
        rss = tracer.peak_rss_mb()
        metrics = tracer.layer_metrics(tr)
        metrics.update(probes(run))
        metrics["trace_overhead_frac"] = traced_wall / walls[0] - 1.0
    else:
        start = time.perf_counter()
        while True:
            wall, setup = run.cycle()
            walls.append(wall)
            setups.append(setup)
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_CYCLES and elapsed + statistics.median(walls) > args.seconds:
                break
        rss = tracer.peak_rss_mb()
        compute = statistics.median(w - s for w, s in zip(walls, setups))
        # Few cycles give a noisy setup median; set up again while that costs
        # at most a tenth of the run.
        extra_start = time.perf_counter()
        while (len(setups) < MIN_SETUPS
               and time.perf_counter() - extra_start < 0.1 * args.seconds):
            setups.append(run.setup())
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "compute_s": compute,
            "peak_rss_mb": rss,
        }
    if run.w.command == "certify":
        run.check_radii()
    info = environment()
    info.update(cycles=run.cycles, peak_rss_mb=rss, cycle_walls_s=walls, setups_s=setups,
                psnr_db=run.psnr_db, problems=run.problems[:10])
    if args.trace:
        info["spans"] = [f"{name}: {calls} calls, {total:.4f} s, self {own:.4f} s"
                         for name, calls, total, own in tr.span_table()]
    result = {
        "correct": sum(run.failed) == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": run.attempted,
        "failed": sum(run.failed),
        "metrics": metrics,
        "info": info,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
