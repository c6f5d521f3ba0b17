"""Accelerated denoiser-driven iterations for quadratic data fidelity.

Three schemes, all with a pluggable momentum sequence {alpha_k}:

* ``pnp_fista``        -- denoise the gradient step: x_k = W(y_k - gamma * grad f(y_k)),
* ``red_apg``          -- proximal step on f, then a convex blend with the denoised
                          extrapolation: v_k = theta * W y_k + (1 - theta) * y_k,
* ``scaled_pnp_fista`` -- pnp_fista with the gradient taken in the inner product
                          weighted by the denoiser's degree diagonal, which is the
                          geometry in which plain NLM weights are self-adjoint.

With the denoiser frozen, each scheme's update is the affine map
x -> P x + q of its ``spectral.IterationOperator``, the same object the
certifier analyses. One momentum loop, ``_accelerate``, iterates that map for
all three schemes; the public solvers only build the map and the start.

The data-fidelity proximal map solves (I + mu A^T A) x = v + mu A^T b in
closed form with ``fwdops.solve_shifted_gram`` (a diagonal, Fourier or
Woodbury solve, depending on the operator).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .fwdops import ForwardOp, solve_shifted_gram
from .imgcore import psnr_vec
from .kernel_denoise import KernelDenoiser
from .spectral import IterationOperator, pnp_operator, red_operator, scaled_operator


class DivergenceError(RuntimeError):
    """Iterates became non-finite or blew past the divergence guard."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass
class MomentumSchedule:
    """Momentum coefficient sequence alpha_k, k >= 1.

    kinds:
      beck        -- (t_k - 1) / t_{k+1} with t_1 = 1, t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2
      chambolle   -- (k - 1) / (k + a), default a = 3
      log1p       -- 1 - 1 / ln(k + 1)  (negative for small k)
      geometric   -- 1 - 0.5^k
      constant    -- fixed value c; c = 0 gives the non-accelerated iterations
    """

    kind: str
    a: float = 3.0
    c: float = 0.0
    _t: list = field(default_factory=lambda: [1.0], repr=False)

    def __post_init__(self):
        if self.kind not in ("beck", "chambolle", "log1p", "geometric", "constant"):
            raise ValueError(f"unknown schedule kind: {self.kind!r}")
        if self.kind == "chambolle" and self.a <= 2:
            raise ValueError("chambolle offset must exceed 2")

    def alpha(self, k: int) -> float:
        if k < 1:
            raise ValueError("iteration index must be >= 1")
        if self.kind == "beck":
            while len(self._t) < k + 1:
                t = self._t[-1]
                self._t.append(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)))
            return (self._t[k - 1] - 1.0) / self._t[k]
        if self.kind == "chambolle":
            return (k - 1.0) / (k + self.a)
        if self.kind == "log1p":
            return 1.0 - 1.0 / math.log(k + 1.0)
        if self.kind == "geometric":
            return 1.0 - 0.5**k
        return self.c

    def label(self) -> str:
        if self.kind == "chambolle":
            return f"chambolle({self.a:g})"
        if self.kind == "constant":
            return f"constant({self.c:g})"
        return self.kind


_SCHEDULE_RE = re.compile(r"^([a-z0-9]+)(?:\(([^)]*)\))?$")


def parse_schedule(spec: str) -> MomentumSchedule:
    """Parse "beck", "chambolle(3)", "log1p", "geometric", or "constant(0)"."""
    m = _SCHEDULE_RE.match(spec.strip())
    if not m:
        raise ValueError(f"cannot parse schedule spec: {spec!r}")
    name, arg = m.group(1), m.group(2)
    if name == "chambolle":
        return MomentumSchedule("chambolle", a=float(arg) if arg is not None else 3.0)
    if name == "constant":
        return MomentumSchedule("constant", c=float(arg) if arg is not None else 0.0)
    if arg is not None:
        raise ValueError(f"schedule {name!r} takes no argument")
    return MomentumSchedule(name)


@dataclass(frozen=True)
class SolverConfig:
    gamma: float | None = None   # step size (pnp paths), absolute
    lam: float = 1.0             # regularization weight (red)
    L: float = 2.0               # red internal parameter, >= 1
    max_iter: int = 20000
    stop_tol: float = 1e-9       # on ||x_k - x_{k-1}|| / ||x_k||
    guide_warmup_iters: int = 0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")
        if self.guide_warmup_iters < 0:
            raise ValueError("guide_warmup_iters must be nonnegative")

    @property
    def theta(self) -> float:
        return 1.0 / self.L

    @property
    def mu(self) -> float:
        """The red prox weight 1 / (lam L), written as the certifier writes it
        for its grid value theta = 1/L, so that the two maps agree bitwise."""
        return self.theta / self.lam


@dataclass
class SolverTrace:
    """Per-iteration history of a solver run."""

    k: np.ndarray
    alpha: np.ndarray
    step_norm: np.ndarray
    dist_to_ref: np.ndarray | None
    psnr: np.ndarray | None
    final: np.ndarray
    converged: bool
    iterations: int

    def write_csv(self, path) -> None:
        """CSV trace; absent optional columns are emitted as empty fields."""
        with open(path, "w") as fh:
            fh.write("k,alpha,step_norm,dist_to_ref,psnr\n")
            for i in range(self.iterations):
                dist = "" if self.dist_to_ref is None else repr(float(self.dist_to_ref[i]))
                p = "" if self.psnr is None else repr(float(self.psnr[i]))
                fh.write(
                    f"{int(self.k[i])},{float(self.alpha[i])!r},"
                    f"{float(self.step_norm[i])!r},{dist},{p}\n"
                )


class _TraceBuilder:
    def __init__(self, truth, x_ref):
        self.truth = truth
        self.x_ref = x_ref
        self.k = []
        self.alpha = []
        self.step = []
        self.dist = [] if x_ref is not None else None
        self.psnr = [] if truth is not None else None

    def record(self, k, a, x, x_prev):
        self.k.append(k)
        self.alpha.append(a)
        self.step.append(float(np.linalg.norm(x - x_prev)))
        if self.dist is not None:
            self.dist.append(float(np.linalg.norm(x - self.x_ref)))
        if self.psnr is not None:
            self.psnr.append(psnr_vec(x, self.truth))

    def build(self, final, converged) -> SolverTrace:
        return SolverTrace(
            k=np.array(self.k, dtype=np.int64),
            alpha=np.array(self.alpha),
            step_norm=np.array(self.step),
            dist_to_ref=None if self.dist is None else np.array(self.dist),
            psnr=None if self.psnr is None else np.array(self.psnr),
            final=final,
            converged=converged,
            iterations=len(self.k),
        )


def prox_quadratic(
    op: ForwardOp,
    b: np.ndarray,
    mu: float,
    v: np.ndarray,
    cg_tol: float | None = None,
    cg_max_iter: int | None = None,
) -> np.ndarray:
    """Proximal map of mu/2 ||A x - b||^2 ... solves (I + mu A^T A) x = v + mu A^T b.

    The solve is exact; ``cg_tol`` and ``cg_max_iter`` are accepted for
    callers written against the former conjugate-gradient solver and ignored.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    return solve_shifted_gram(op, mu, v + mu * op.adjoint(b))


def _guard_iterate(x: np.ndarray, k: int, bound: float) -> None:
    if not np.all(np.isfinite(x)):
        raise DivergenceError(k, "non-finite iterate")
    if np.linalg.norm(x) > bound:
        raise DivergenceError(k, "iterate norm exceeded the divergence guard")


def _start(it: IterationOperator, x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.size != it.n:
        raise ValueError(f"start length {x0.size} != {it.n}")
    return x0


def _accelerate(
    it: IterationOperator,
    data: np.ndarray,
    config: SolverConfig,
    schedule: MomentumSchedule,
    x0: np.ndarray,
    truth: np.ndarray | None,
    x_ref: np.ndarray | None,
    x1: np.ndarray | None = None,
    rebuild=None,
) -> SolverTrace:
    """The momentum loop of all three solvers:

        x_{k+1} = P y_k + q,   y_k = x_k + alpha_k (x_k - x_{k-1}),   k >= 1,

    with x -> P x + q given by ``it.step(x, data)``. The first iterate is
    x_1 = P x_0 + q, or ``x1`` when given, in which case x_0 := x1 and the
    zero first step does not count as convergence. ``rebuild(x)`` returns
    the map for the next iteration during the first
    ``config.guide_warmup_iters`` iterations. The loop stops when
    ||x_k - x_{k-1}|| <= stop_tol ||x_k|| or after ``config.max_iter``
    iterations, and raises DivergenceError on a non-finite iterate or one
    whose norm exceeds 1e8 (1 + ||x_0||).
    """
    if config.guide_warmup_iters > 0 and rebuild is None:
        raise ValueError("guide warm-up requires pnp_fista with a denoiser_factory")
    guard = 1e8 * (1.0 + np.linalg.norm(x0))
    tracer = _TraceBuilder(truth, x_ref)
    x_prev = y = x0 if x1 is None else x1
    converged = False
    for k in range(1, config.max_iter + 1):
        given = k == 1 and x1 is not None
        x = x1 if given else it.step(y, data)
        _guard_iterate(x, k, guard)
        a = schedule.alpha(k)
        tracer.record(k, a, x, x_prev)
        converged = not given and bool(tracer.step[-1] <= config.stop_tol * np.linalg.norm(x))
        y = x + a * (x - x_prev)
        x_prev = x
        if k <= config.guide_warmup_iters:
            it = rebuild(x)
        if converged:
            break
    return tracer.build(x_prev, converged)


def pnp_fista(
    op: ForwardOp,
    b: np.ndarray,
    denoiser: KernelDenoiser,
    config: SolverConfig,
    schedule: MomentumSchedule,
    x0: np.ndarray,
    truth: np.ndarray | None = None,
    x_ref: np.ndarray | None = None,
    denoiser_factory=None,
) -> SolverTrace:
    """Denoiser-in-the-gradient-step iteration with momentum.

    y_1 = x_0; for k >= 1:
        x_k = W (y_k - gamma * A^T (A y_k - b))
        y_{k+1} = x_k + alpha_k (x_k - x_{k-1})

    ``denoiser_factory``, together with ``config.guide_warmup_iters > 0``,
    rebuilds W from the current iterate during warm-up; afterwards W is
    frozen so the remaining iterations follow a fixed affine map.
    """
    it = pnp_operator(op, denoiser, config.gamma)
    rebuild = None
    if denoiser_factory is not None:
        rebuild = lambda x: pnp_operator(op, denoiser_factory(x), config.gamma)
    return _accelerate(it, it.data_term(b), config, schedule, _start(it, x0), truth, x_ref,
                       rebuild=rebuild)


def red_apg(
    op: ForwardOp,
    b: np.ndarray,
    denoiser: KernelDenoiser,
    config: SolverConfig,
    schedule: MomentumSchedule,
    v0: np.ndarray,
    truth: np.ndarray | None = None,
    x_ref: np.ndarray | None = None,
) -> SolverTrace:
    """Proximal-then-blend iteration with momentum.

    for k >= 1:
        x_k = argmin_x  mu/2 ||A x - b||^2 + 1/2 ||x - v_{k-1}||^2,  mu = theta / lam
        y_k = x_k + alpha_k (x_k - x_{k-1})
        v_k = theta W y_k + (1 - theta) y_k,                          theta = 1/L

    The first momentum term needs x_0; we set x_0 := x_1 (zero first momentum),
    which coincides with the beck schedule's alpha_1 = 0 behavior and keeps the
    update well-defined for schedules with alpha_1 != 0.
    """
    it = red_operator(op, denoiser, config.mu, config.theta)
    data = it.data_term(b)
    v0 = _start(it, v0)
    x1 = solve_shifted_gram(op, it.mu, v0 + data)
    return _accelerate(it, data, config, schedule, v0, truth, x_ref, x1=x1)


def scaled_pnp_fista(
    op: ForwardOp,
    b: np.ndarray,
    denoiser: KernelDenoiser,
    config: SolverConfig,
    schedule: MomentumSchedule,
    x0: np.ndarray,
    truth: np.ndarray | None = None,
    x_ref: np.ndarray | None = None,
) -> SolverTrace:
    """pnp_fista with the gradient taken in the degree-weighted inner product:

        x_k = W (y_k - gamma * D^-1 A^T (A y_k - b))

    Requires nlm-mode weights (they carry the degree diagonal D and are
    self-adjoint in the D-weighted geometry). The step size should satisfy
    gamma < 1 / lambda_max(D^-1/2 A^T A D^-1/2); the unscaled bound
    1 / lambda_max(A^T A) is a valid, D-free fallback since all degrees
    are >= 1.
    """
    it = scaled_operator(op, denoiser, config.gamma)
    return _accelerate(it, it.data_term(b), config, schedule, _start(it, x0), truth, x_ref)
