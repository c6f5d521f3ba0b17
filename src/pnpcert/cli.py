"""Command-line front end: problem setup from config files, reconstruction
runs, certification sweeps, schedule comparisons, and one-shot denoising.

Config files are flat ``key = value`` text, one pair per line, with ``#``
comments. Unknown keys are rejected. The ``gamma`` key is a fraction of the
certified step-size bound: the solver uses gamma / lambda_hat where
lambda_hat is the largest Gram eigenvalue, exact from the operator's
structure (an ARPACK estimate for the degree-rescaled Gram map of the
scaled algorithm). The ``cg_tol`` and ``cg_max_iter`` keys are accepted and
have no effect: the quadratic prox is solved exactly.

Exit codes: 0 success, 2 config/validation error, 3 divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fwdops, kernel_denoise, solvers, spectral
from .imgcore import Image, PgmFormatError, Rng, load_pgm, psnr, save_pgm, ssim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Invalid configuration or command arguments."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str | None = None          # inpaint | deblur | superres
    image: str | None = None
    crop: int = 64                   # center-crop side; 0 keeps the full image
    seed: int = 0
    noise_sigma: float = 0.03
    mask_fraction: float = 0.3
    kernel_size: int = 25
    kernel_sigma: float = 1.6
    sr_factor: int = 2
    denoiser: str = "dsg"            # nlm | dsg
    patch_radius: int = 2
    window_radius: int = 5
    bandwidth: float = 0.1
    window_shape: str = "box"
    algorithm: str = "pnp_fista"     # pnp_fista | red_apg | scaled_pnp_fista
    schedule: str = "beck"
    gamma: float = 0.9               # fraction of 1 / lambda_hat
    lam: float = 1.0
    L: float = 2.0
    max_iter: int = 20000
    stop_tol: float = 1e-9
    cg_tol: float = 1e-10            # no effect: the prox is solved exactly
    cg_max_iter: int = 500           # no effect
    guide_warmup_iters: int = 0
    init: str = "zeros"              # zeros | backprojection | random
    out: str = "out"


_KEY_FOR_FIELD = {f.name: f.name for f in fields(ExperimentConfig)}
_KEY_FOR_FIELD["lam"] = "lambda"
_FIELD_FOR_KEY = {v: k for k, v in _KEY_FOR_FIELD.items()}

_PARSERS = {
    "task": str, "image": str, "denoiser": str, "window_shape": str,
    "algorithm": str, "schedule": str, "init": str, "out": str,
    "crop": int, "seed": int, "kernel_size": int, "sr_factor": int,
    "patch_radius": int, "window_radius": int, "max_iter": int,
    "cg_max_iter": int, "guide_warmup_iters": int,
    "noise_sigma": float, "mask_fraction": float, "kernel_sigma": float,
    "bandwidth": float, "gamma": float, "lambda": float, "L": float,
    "stop_tol": float, "cg_tol": float,
}


def parse_config(path) -> ExperimentConfig:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_FOR_KEY:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {value!r}") from None
        if _PARSERS[key] is float and not np.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key!r} must be finite, got {value!r}")
    cfg = ExperimentConfig(**{_FIELD_FOR_KEY[k]: v for k, v in values.items()})
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    checks = [
        (cfg.task in (None, "inpaint", "deblur", "superres"), f"task: {cfg.task!r}"),
        (cfg.crop >= 0, "crop must be >= 0"),
        (cfg.noise_sigma >= 0, "noise_sigma must be >= 0"),
        (0 < cfg.mask_fraction <= 1, "mask_fraction must be in (0, 1]"),
        (cfg.kernel_size >= 1 and cfg.kernel_size % 2 == 1, "kernel_size must be odd"),
        (cfg.kernel_sigma > 0, "kernel_sigma must be positive"),
        (cfg.sr_factor >= 1, "sr_factor must be >= 1"),
        (cfg.denoiser in ("nlm", "dsg"), f"denoiser: {cfg.denoiser!r}"),
        (cfg.window_shape in ("box", "hat"), f"window_shape: {cfg.window_shape!r}"),
        (cfg.algorithm in ("pnp_fista", "red_apg", "scaled_pnp_fista"),
         f"algorithm: {cfg.algorithm!r}"),
        (cfg.gamma > 0, "gamma must be positive"),
        (cfg.lam > 0, "lambda must be positive"),
        (cfg.L >= 1, "L must be >= 1"),
        (cfg.init in ("zeros", "backprojection", "random"), f"init: {cfg.init!r}"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    try:
        solvers.parse_schedule(cfg.schedule)
        kernel_denoise.KernelParams(
            cfg.patch_radius, cfg.window_radius, cfg.bandwidth, cfg.window_shape
        )
        solvers.SolverConfig(
            gamma=1.0, lam=cfg.lam, L=cfg.L, max_iter=cfg.max_iter,
            stop_tol=cfg.stop_tol, guide_warmup_iters=cfg.guide_warmup_iters,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require(cfg: ExperimentConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"config key {_KEY_FOR_FIELD[name]!r} is required")


def _center_crop(img: Image, side: int) -> Image:
    if side <= 0 or (img.rows <= side and img.cols <= side):
        return img
    r0 = (img.rows - min(side, img.rows)) // 2
    c0 = (img.cols - min(side, img.cols)) // 2
    g = img.grid()[r0 : r0 + side, c0 : c0 + side]
    return Image.from_grid(g)


@dataclass
class Problem:
    cfg: ExperimentConfig
    truth: Image
    op: fwdops.ForwardOp
    observed: np.ndarray
    guide: Image
    denoiser: kernel_denoise.KernelDenoiser
    lambda_hat: fwdops.EigenEstimate


def build_problem(cfg: ExperimentConfig) -> Problem:
    _require(cfg, "task", "image")
    truth = _center_crop(load_pgm(cfg.image), cfg.crop)
    if min(truth.rows, truth.cols) < 2:
        raise ConfigError("image must be at least 2x2 for a kernel denoiser")
    rng = Rng(cfg.seed)
    if cfg.task == "inpaint":
        op = fwdops.make_inpaint(truth.rows, truth.cols, cfg.mask_fraction, rng)
    else:
        kernel = fwdops.gaussian_kernel(cfg.kernel_size, cfg.kernel_sigma)
        if cfg.task == "deblur":
            op = fwdops.make_blur(truth.rows, truth.cols, kernel)
        else:
            if truth.rows % cfg.sr_factor or truth.cols % cfg.sr_factor:
                raise ConfigError(
                    f"image {truth.rows}x{truth.cols} not divisible by sr_factor {cfg.sr_factor}"
                )
            op = fwdops.make_superres(truth.rows, truth.cols, kernel, cfg.sr_factor)
    observed = fwdops.observe(op, truth, cfg.noise_sigma, rng)
    guide = kernel_denoise.make_guide(cfg.task, observed, op)
    params = kernel_denoise.KernelParams(
        cfg.patch_radius, cfg.window_radius, cfg.bandwidth, cfg.window_shape
    )
    mode = "nlm" if cfg.algorithm == "scaled_pnp_fista" else cfg.denoiser
    denoiser = kernel_denoise.build_denoiser(guide, params, mode)
    diag = denoiser.degrees if cfg.algorithm == "scaled_pnp_fista" else None
    lam_hat = fwdops.lambda_max_gram(op, diag=diag)
    return Problem(cfg, truth, op, observed, guide, denoiser, lam_hat)


def _solver_config(cfg: ExperimentConfig, gamma_abs: float | None) -> solvers.SolverConfig:
    return solvers.SolverConfig(
        gamma=gamma_abs, lam=cfg.lam, L=cfg.L, max_iter=cfg.max_iter,
        stop_tol=cfg.stop_tol, guide_warmup_iters=cfg.guide_warmup_iters,
    )


def _initial_vector(cfg: ExperimentConfig, prob: Problem) -> np.ndarray:
    if cfg.init == "zeros":
        return np.zeros(prob.op.n)
    if cfg.init == "backprojection":
        return prob.op.adjoint(prob.observed)
    return Rng(cfg.seed ^ 0xA5A5A5A5).uniforms(prob.op.n)


def run_solver(
    prob: Problem,
    schedule: solvers.MomentumSchedule,
    x0: np.ndarray,
    x_ref: np.ndarray | None = None,
    max_iter: int | None = None,
    stop_tol: float | None = None,
) -> solvers.SolverTrace:
    cfg = prob.cfg
    gamma_abs = cfg.gamma / prob.lambda_hat.value
    config = _solver_config(cfg, gamma_abs)
    if max_iter is not None or stop_tol is not None:
        config = replace(
            config,
            max_iter=config.max_iter if max_iter is None else max_iter,
            stop_tol=config.stop_tol if stop_tol is None else stop_tol,
        )
    factory = None
    if cfg.guide_warmup_iters > 0:
        if cfg.algorithm != "pnp_fista":
            raise ConfigError("guide_warmup_iters is only supported with pnp_fista")
        params = kernel_denoise.KernelParams(
            cfg.patch_radius, cfg.window_radius, cfg.bandwidth, cfg.window_shape
        )
        mode = prob.denoiser.mode
        factory = lambda g: kernel_denoise.build_denoiser(
            Image(g, prob.truth.rows, prob.truth.cols), params, mode
        )
    kwargs = dict(truth=prob.truth.data, x_ref=x_ref)
    if cfg.algorithm == "pnp_fista":
        return solvers.pnp_fista(
            prob.op, prob.observed, prob.denoiser, config, schedule, x0,
            denoiser_factory=factory, **kwargs,
        )
    if cfg.algorithm == "red_apg":
        return solvers.red_apg(
            prob.op, prob.observed, prob.denoiser, config, schedule, x0, **kwargs
        )
    return solvers.scaled_pnp_fista(
        prob.op, prob.observed, prob.denoiser, config, schedule, x0, **kwargs
    )


def iteration_operator(prob: Problem, grid_value: float) -> spectral.IterationOperator:
    """Iteration operator for the configured algorithm at one grid value.

    For the pnp paths the grid value is the step-size fraction; for red it is
    1/L, so theta = grid_value and mu = grid_value / lambda.
    """
    cfg = prob.cfg
    if cfg.algorithm == "pnp_fista":
        return spectral.pnp_operator(prob.op, prob.denoiser, grid_value / prob.lambda_hat.value)
    if cfg.algorithm == "scaled_pnp_fista":
        return spectral.scaled_operator(
            prob.op, prob.denoiser, grid_value / prob.lambda_hat.value
        )
    if not 0 < grid_value <= 1:
        raise ConfigError("red grid values are 1/L and must lie in (0, 1]")
    return spectral.red_operator(
        prob.op, prob.denoiser, mu=grid_value / cfg.lam, theta=grid_value
    )


def _load_reference(path, n: int) -> np.ndarray:
    p = Path(path)
    if p.suffix == ".npy":
        ref = np.load(p).reshape(-1)
    else:
        ref = load_pgm(p).data
    if ref.size != n:
        raise ConfigError(f"reference limit has {ref.size} entries, expected {n}")
    return ref


def _write_summary(path, pairs) -> None:
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write(f"{key}={value}\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    cfg = _apply_overrides(cfg, args)
    prob = build_problem(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    x_ref = _load_reference(args.ref_limit, prob.op.n) if args.ref_limit else None
    schedule = solvers.parse_schedule(cfg.schedule)
    trace = run_solver(prob, schedule, _initial_vector(cfg, prob), x_ref=x_ref)
    recon = Image(trace.final, prob.truth.rows, prob.truth.cols)
    save_pgm(recon, out / "recon.pgm")
    np.save(out / "recon.npy", trace.final)
    save_pgm(prob.guide, out / "guide.pgm")
    trace.write_csv(out / "trace.csv")
    pairs = [
        ("task", cfg.task),
        ("algorithm", cfg.algorithm),
        ("denoiser", prob.denoiser.mode),
        ("rows", prob.truth.rows),
        ("cols", prob.truth.cols),
        ("seed", cfg.seed),
        ("lambda_hat", _fmt(prob.lambda_hat.value)),
        ("gamma_abs", _fmt(cfg.gamma / prob.lambda_hat.value)),
        ("iterations", trace.iterations),
        ("converged", _fmt(trace.converged)),
        ("final_step_norm", _fmt(float(trace.step_norm[-1]))),
        ("psnr_recon", _fmt(psnr(recon, prob.truth))),
        ("psnr_guide", _fmt(psnr(prob.guide, prob.truth))),
    ]
    if min(prob.truth.rows, prob.truth.cols) >= 11:
        pairs.append(("ssim_recon", _fmt(ssim(recon, prob.truth))))
    if cfg.task == "inpaint":
        fwdops.save_mask_pgm(prob.op, out / "mask.pgm")
    else:
        r = prob.op.rows_in // prob.op.factor
        c = prob.op.cols_in // prob.op.factor
        observed_img = Image(prob.observed, r, c)
        save_pgm(observed_img, out / "observed.pgm")
        if cfg.task == "deblur":
            pairs.append(("psnr_observed", _fmt(psnr(observed_img, prob.truth))))
    _write_summary(out / "summary.txt", pairs)
    print(f"wrote {out}/recon.pgm, trace.csv, summary.txt")
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError("grid must contain at least one value")
    try:
        values = [float(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f"invalid grid value: {exc}") from None
    if not all(0 < v < np.inf for v in values):
        raise ConfigError("grid values must be positive and finite")
    labels = [_grid_label(v) for v in values]
    if len(set(labels)) != len(labels):
        raise ConfigError("grid values must be distinct: each names a report file")
    return values


def _grid_label(value: float) -> str:
    """File-name form of a grid value: its ``:g`` form when exact, else its repr."""
    text = f"{value:g}"
    if float(text) != value:
        text = repr(value)
    return re.sub(r"[^0-9a-zA-Z]+", "_", text).strip("_")


def cmd_certify(args) -> int:
    cfg = parse_config(args.config)
    cfg = _apply_overrides(cfg, args)
    grid = _parse_grid(args.grid)
    prob = build_problem(cfg)
    out = Path(cfg.out)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    checks = spectral.check_assumption(prob.denoiser, prob.op)
    rows = []
    for value in grid:
        iter_op = iteration_operator(prob, value)
        report = spectral.build_report(
            cfg.task, iter_op, value, prob.lambda_hat.value, checks,
            power_tol=args.power_tol, power_max_iter=args.power_max_iter,
        )
        rows.append(report.csv_row())
        name = f"{cfg.algorithm}_{_grid_label(value)}"
        (out / "reports" / f"{name}.txt").write_text(report.to_kv())
        print(report.csv_row())
    (out / "certify.csv").write_text(
        spectral.SWEEP_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    )
    return EXIT_OK


def _schedule_filename(label: str) -> str:
    return "schedule_" + re.sub(r"[^0-9a-zA-Z]+", "_", label).strip("_") + ".csv"


def cmd_schedules(args) -> int:
    cfg = parse_config(args.config)
    cfg = _apply_overrides(cfg, args)
    if args.ref_iters <= 0:
        raise ConfigError("a positive --ref-iters reference run is required")
    specs = [s.strip() for s in args.schedules.split(",") if s.strip()]
    if not specs:
        raise ConfigError("at least one schedule is required")
    schedules = [solvers.parse_schedule(s) for s in specs]
    prob = build_problem(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    x0 = _initial_vector(cfg, prob)
    ref = run_solver(
        prob, solvers.MomentumSchedule("beck"), x0,
        max_iter=args.ref_iters, stop_tol=0.0,
    )
    np.save(out / "reference.npy", ref.final)
    for sched in schedules:
        trace = run_solver(prob, sched, x0, x_ref=ref.final)
        path = out / _schedule_filename(sched.label())
        trace.write_csv(path)
        print(f"{sched.label()}: {trace.iterations} iterations, final distance "
              f"{trace.dist_to_ref[-1]:.3e} -> {path}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    noisy = load_pgm(args.image)
    guide = load_pgm(args.guide)
    if (noisy.rows, noisy.cols) != (guide.rows, guide.cols):
        raise ConfigError(
            f"image {noisy.rows}x{noisy.cols} and guide {guide.rows}x{guide.cols} differ"
        )
    if min(noisy.rows, noisy.cols) < 2:
        raise ConfigError("image must be at least 2x2 for a kernel denoiser")
    params = kernel_denoise.KernelParams(
        cfg.patch_radius, cfg.window_radius, cfg.bandwidth, cfg.window_shape
    )
    denoiser = kernel_denoise.build_denoiser(guide, params, cfg.denoiser)
    result = kernel_denoise.apply_w(denoiser, noisy.data)
    save_pgm(Image(result, noisy.rows, noisy.cols), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "gamma", None) is not None:
        if not 0 < args.gamma < np.inf:
            raise ConfigError("gamma must be positive and finite")
        updates["gamma"] = args.gamma
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        updates["out"] = args.out
    return replace(cfg, **updates) if updates else cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnpcert",
        description="Denoiser-regularized reconstruction with convergence certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--gamma", type=float, help="override step-size fraction")
        p.add_argument("--seed", type=int, help="override RNG seed")
        p.add_argument("--out", help="override output directory")

    p_run = sub.add_parser("run", help="reconstruct and write PGM/CSV artifacts")
    common(p_run)
    p_run.add_argument("--ref-limit", help="reference limit (.npy or .pgm) for distance traces")
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify", help="spectral-radius sweep over a step-size grid")
    common(p_cert)
    p_cert.add_argument("--grid", required=True,
                        help="comma-separated step fractions (pnp) or 1/L values (red)")
    p_cert.add_argument("--power-tol", type=float, default=1e-8,
                        help="relative tolerance (ARPACK tol) of the eigensolves of P")
    p_cert.add_argument("--power-max-iter", type=int, default=20000,
                        help="restart cap (ARPACK maxiter) of the eigensolves of P")
    p_cert.set_defaults(func=cmd_certify)

    p_sched = sub.add_parser("schedules", help="compare momentum schedules against a long run")
    common(p_sched)
    p_sched.add_argument("--schedules", required=True,
                         help="comma-separated schedule specs, e.g. beck,constant(0)")
    p_sched.add_argument("--ref-iters", type=int, default=20000,
                         help="iterations of the beck reference run")
    p_sched.set_defaults(func=cmd_schedules)

    p_den = sub.add_parser("denoise", help="apply the kernel denoiser once")
    p_den.add_argument("--config", help="config supplying denoiser parameters")
    p_den.add_argument("--image", required=True, help="noisy input PGM")
    p_den.add_argument("--guide", required=True, help="guide image PGM")
    p_den.add_argument("--out", required=True, help="output PGM path")
    p_den.set_defaults(func=cmd_denoise)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PgmFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solvers.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
