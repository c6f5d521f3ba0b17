"""Command-line front end: problem setup from config files, reconstruction
runs, certification sweeps, schedule comparisons, and one-shot denoising.

Config files are flat ``key = value`` text, one pair per line, with ``#``
comments that start a line or follow whitespace. Unknown keys are rejected.
The ``gamma`` key is a fraction of the certified step-size bound: the solver
uses gamma / lambda_hat where lambda_hat is the largest Gram eigenvalue,
exact from the operator's structure (for the scaled algorithm, that of
D^-1/2 A^T A D^-1/2: exact for inpainting, ARPACK otherwise). ``iteration_operator`` is
the one builder of the iteration map from a grid value, and the map's
constructor the one judge of it: ``certify`` builds every grid value's map
before any eigensolve, and ``run`` and ``schedules`` hand the solver its map
at grid value ``gamma`` (1/L for red_apg), so they iterate the map
``certify`` certifies. The ``cg_tol`` and ``cg_max_iter`` keys are accepted
and have no effect: the quadratic prox is solved exactly.

Exit codes (``exit_code``): 0 success, 2 config/validation error, 3 divergence, 4 I/O error.
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not np.isfinite(value):
                raise ConfigError(f"{_KEY_FOR_FIELD[f.name]!r} must be finite, got {value!r}")
        checks = [
            (self.task in (None, "inpaint", "deblur", "superres"), f"task: {self.task!r}"),
            (self.crop >= 0, "crop must be >= 0"),
            (self.noise_sigma >= 0, "noise_sigma must be >= 0"),
            (0 < self.mask_fraction <= 1, "mask_fraction must be in (0, 1]"),
            (self.kernel_size >= 1 and self.kernel_size % 2 == 1, "kernel_size must be odd"),
            (self.kernel_sigma > 0, "kernel_sigma must be positive"),
            (self.sr_factor >= 1, "sr_factor must be >= 1"),
            (self.denoiser in ("nlm", "dsg"), f"denoiser: {self.denoiser!r}"),
            (self.algorithm in ("pnp_fista", "red_apg", "scaled_pnp_fista"),
             f"algorithm: {self.algorithm!r}"),
            (self.gamma > 0, "gamma must be positive"),
            (self.lam > 0, "lambda must be positive"),
            (self.L >= 1, "L must be >= 1"),
            (self.max_iter >= 1, "max_iter must be >= 1"),
            (self.stop_tol >= 0, "stop_tol must be nonnegative"),
            (self.guide_warmup_iters >= 0, "guide_warmup_iters must be nonnegative"),
            (self.guide_warmup_iters == 0 or self.algorithm == "pnp_fista",
             "guide_warmup_iters is only supported with pnp_fista"),
            (self.init in ("zeros", "backprojection", "random"), f"init: {self.init!r}"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            solvers.parse_schedule(self.schedule)
            _kernel_params(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_KEY_FOR_FIELD = {f.name: f.name for f in fields(ExperimentConfig)}
_KEY_FOR_FIELD["lam"] = "lambda"
_FIELD_FOR_KEY = {v: k for k, v in _KEY_FOR_FIELD.items()}
# a key parses to the type of its field's default; a None default means str
_PARSERS = {
    _KEY_FOR_FIELD[f.name]: str if f.default is None else type(f.default)
    for f in fields(ExperimentConfig)
}


def parse_config(path) -> ExperimentConfig:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.sub(r"(^|\s)#.*", "", raw).strip()  # a value may contain '#'
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
    return ExperimentConfig(**{_FIELD_FOR_KEY[k]: v for k, v in values.items()})


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


def _kernel_params(cfg: ExperimentConfig) -> kernel_denoise.KernelParams:
    return kernel_denoise.KernelParams(
        cfg.patch_radius, cfg.window_radius, cfg.bandwidth, cfg.window_shape
    )


@dataclass
class Problem:
    cfg: ExperimentConfig
    truth: Image
    op: fwdops.ForwardOp
    observed: np.ndarray
    guide: Image
    denoiser: kernel_denoise.KernelDenoiser
    lambda_hat: fwdops.EigenEstimate

    def step_size(self, fraction: float) -> float:
        """The absolute pnp step for a fraction of the bound 1 / lambda_hat."""
        return fraction / self.lambda_hat.value


def build_problem(cfg: ExperimentConfig) -> Problem:
    _require(cfg, "task", "image")
    truth = _center_crop(load_pgm(cfg.image), cfg.crop)
    rng = Rng(cfg.seed)
    if cfg.task == "inpaint":
        op = fwdops.make_inpaint(truth.rows, truth.cols, cfg.mask_fraction, rng)
    else:
        kernel = fwdops.gaussian_kernel(cfg.kernel_size, cfg.kernel_sigma)
        if cfg.task == "deblur":
            op = fwdops.make_blur(truth.rows, truth.cols, kernel)
        else:
            op = fwdops.make_superres(truth.rows, truth.cols, kernel, cfg.sr_factor)
    observed = fwdops.observe(op, truth, cfg.noise_sigma, rng)
    guide = kernel_denoise.make_guide(observed, op)
    mode = "nlm" if cfg.algorithm == "scaled_pnp_fista" else cfg.denoiser
    denoiser = kernel_denoise.build_denoiser(guide, _kernel_params(cfg), mode)
    diag = denoiser.degrees if cfg.algorithm == "scaled_pnp_fista" else None
    lam_hat = fwdops.lambda_max_gram(op, diag=diag)
    return Problem(cfg, truth, op, observed, guide, denoiser, lam_hat)


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
    """Iterate from x0 the map ``iteration_operator`` builds at grid value
    gamma (pnp kinds) or 1/L (red): the map ``certify`` certifies at that
    grid value. The map's kind is the scheme; the solver is the one momentum
    loop, looked up under the configured algorithm's name.

    With guide warm-up (pnp_fista only), each of the first
    ``guide_warmup_iters`` iterations rebuilds the denoiser from the iterate
    and hands the solver ``iteration_operator`` on it.
    """
    cfg = prob.cfg
    kwargs = dict(
        max_iter=cfg.max_iter if max_iter is None else max_iter,
        stop_tol=cfg.stop_tol if stop_tol is None else stop_tol,
        truth=prob.truth.data, x_ref=x_ref,
    )
    if cfg.guide_warmup_iters > 0:
        def rebuild(x):
            guide = Image(x, prob.truth.rows, prob.truth.cols)
            denoiser = kernel_denoise.build_denoiser(
                guide, _kernel_params(cfg), prob.denoiser.mode
            )
            return iteration_operator(replace(prob, denoiser=denoiser), cfg.gamma)
        kwargs.update(rebuild=rebuild, warmup_iters=cfg.guide_warmup_iters)
    grid_value = 1 / cfg.L if cfg.algorithm == "red_apg" else cfg.gamma
    solver = getattr(solvers, cfg.algorithm)  # by name: the benchmark tracer wraps each
    return solver(iteration_operator(prob, grid_value), prob.observed, schedule, x0, **kwargs)


def iteration_operator(prob: Problem, grid_value: float) -> spectral.IterationOperator:
    """Iteration operator for the configured algorithm at one grid value.

    For the pnp paths the grid value is the step-size fraction; for red it is
    1/L, so theta = grid_value and mu = grid_value / lambda. The map's
    constructor judges the value: a red value above 1 raises ValueError.
    """
    cfg = prob.cfg
    if cfg.algorithm == "red_apg":
        return spectral.IterationOperator(
            "red", prob.op, prob.denoiser, mu=grid_value / cfg.lam, theta=grid_value
        )
    kind = "pnp" if cfg.algorithm == "pnp_fista" else "scaled_pnp"
    return spectral.IterationOperator(kind, prob.op, prob.denoiser, prob.step_size(grid_value))


def certify_grid(prob: Problem, grid, **eigensolver) -> list[spectral.SpectralReport]:
    """One report per grid value, each on the map ``iteration_operator`` builds.

    All maps are built, so every value is judged, before any eigensolve. The
    assumption checks do not depend on the grid value and run once;
    ``eigensolver`` holds ``build_report``'s ``power_tol``/``power_max_iter``.
    """
    maps = [iteration_operator(prob, value) for value in grid]
    checks = spectral.check_assumption(prob.denoiser, prob.op)
    return [
        spectral.build_report(
            prob.cfg.task, it, value, prob.lambda_hat.value, checks, **eigensolver
        )
        for it, value in zip(maps, grid)
    ]


def _load_reference(path, truth: Image) -> np.ndarray:
    """The ``--ref-limit`` vector: a ``.npy`` array or a PGM with one entry per
    pixel, judged by ``Image`` on the truth's grid, so real and finite."""
    p = Path(path)
    ref = np.load(p) if p.suffix == ".npy" else load_pgm(p).data
    if ref.size != truth.data.size:
        raise ConfigError(f"reference limit has {ref.size} entries, expected {truth.data.size}")
    return Image(ref, truth.rows, truth.cols).data


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
    cfg = _apply_overrides(parse_config(args.config), args)
    prob = build_problem(cfg)
    x_ref = _load_reference(args.ref_limit, prob.truth) if args.ref_limit else None
    schedule = solvers.parse_schedule(cfg.schedule)
    trace = run_solver(prob, schedule, _initial_vector(cfg, prob), x_ref=x_ref)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
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
        ("gamma_abs", _fmt(prob.step_size(cfg.gamma))),
        ("iterations", trace.iterations),
        ("converged", _fmt(trace.converged)),
        ("final_step_norm", _fmt(float(trace.step_norm[-1]))),
        ("psnr_recon", _fmt(psnr(recon, prob.truth))),
        ("psnr_guide", _fmt(psnr(prob.guide, prob.truth))),
    ]
    if min(prob.truth.rows, prob.truth.cols) >= 11:
        pairs.append(("ssim_recon", _fmt(ssim(recon, prob.truth))))
    if prob.op.kind == "inpaint":
        fwdops.save_mask_pgm(prob.op, out / "mask.pgm")
    else:
        observed_img = Image(prob.observed, *prob.op.meas_shape)
        save_pgm(observed_img, out / "observed.pgm")
        if prob.op.kind == "blur":
            pairs.append(("psnr_observed", _fmt(psnr(observed_img, prob.truth))))
    _write_summary(out / "summary.txt", pairs)
    print(f"wrote {out}/recon.pgm, trace.csv, summary.txt")
    return EXIT_OK


def parse_grid(text: str) -> list[float]:
    """A ``--grid`` list: positive finite values whose report names differ."""
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


def _slug(text: str) -> str:
    """File-name form of a label: each run of other characters becomes one '_'."""
    return re.sub(r"[^0-9a-zA-Z]+", "_", text).strip("_")


def _grid_label(value: float) -> str:
    """File-name form of a grid value: its ``:g`` form when exact, else its repr."""
    text = f"{value:g}"
    return _slug(text if float(text) == value else repr(value))


def cmd_certify(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    if cfg.guide_warmup_iters > 0:
        raise ConfigError("guide_warmup_iters > 0: run iterates maps rebuilt from its "
                          "iterates, not one frozen map that certify could analyse")
    grid = parse_grid(args.grid)
    fwdops.check_arpack_args(args.power_tol, args.power_max_iter)
    reports = certify_grid(
        build_problem(cfg), grid, power_tol=args.power_tol, power_max_iter=args.power_max_iter
    )
    out = Path(cfg.out)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    rows = []
    for report in reports:
        name = f"{cfg.algorithm}_{_grid_label(report.grid_value)}"
        (out / "reports" / f"{name}.txt").write_text(report.to_kv())
        rows.append(report.csv_row())
        print(rows[-1])
    (out / "certify.csv").write_text(
        spectral.SWEEP_CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    )
    return EXIT_OK


def cmd_schedules(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    compare_schedules(cfg, args.schedules, args.ref_iters)
    return EXIT_OK


def compare_schedules(cfg: ExperimentConfig, spec_list: str, ref_iters: int) -> None:
    """Trace each comma-separated schedule spec against a ``ref_iters``-step
    beck reference run; write reference.npy and schedule_<name>.csv files,
    creating ``out/`` only after every run has returned."""
    if ref_iters <= 0:
        raise ConfigError("a positive --ref-iters reference run is required")
    specs = [s.strip() for s in spec_list.split(",") if s.strip()]
    if not specs:
        raise ConfigError("at least one schedule is required")
    schedules = [solvers.parse_schedule(s) for s in specs]
    prob = build_problem(cfg)
    x0 = _initial_vector(cfg, prob)
    ref = run_solver(
        prob, solvers.MomentumSchedule("beck"), x0,
        max_iter=ref_iters, stop_tol=0.0,
    )
    traces = [run_solver(prob, sched, x0, x_ref=ref.final) for sched in schedules]
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "reference.npy", ref.final)
    for sched, trace in zip(schedules, traces):
        path = out / f"schedule_{_slug(sched.label())}.csv"
        trace.write_csv(path)
        print(f"{sched.label()}: {trace.iterations} iterations, final distance "
              f"{trace.dist_to_ref[-1]:.3e} -> {path}")


def cmd_denoise(args) -> int:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    noisy = load_pgm(args.image)
    guide = load_pgm(args.guide)
    if (noisy.rows, noisy.cols) != (guide.rows, guide.cols):
        raise ConfigError(
            f"image {noisy.rows}x{noisy.cols} and guide {guide.rows}x{guide.cols} differ"
        )
    denoiser = kernel_denoise.build_denoiser(guide, _kernel_params(cfg), cfg.denoiser)
    result = kernel_denoise.apply_w(denoiser, noisy.data)
    save_pgm(Image(result, noisy.rows, noisy.cols), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "gamma", None) is not None:
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


def exit_code(command, *args) -> int:
    """``command(*args)``'s exit code, for ``main`` and the experiment scripts:
    an expected error prints one line to stderr and gives its class's code."""
    try:
        return command(*args)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
