"""Accelerated denoiser-driven iterations for quadratic data fidelity.

Three schemes, all with a pluggable momentum sequence {alpha_k}:

* ``pnp_fista``        -- denoise the gradient step: x_k = W(y_k - gamma * grad f(y_k)),
* ``red_apg``          -- proximal step on f, then a convex blend with the denoised
                          extrapolation: v_k = theta * W y_k + (1 - theta) * y_k,
* ``scaled_pnp_fista`` -- pnp_fista with the gradient taken in the inner product
                          weighted by the denoiser's degree diagonal, which is the
                          geometry in which plain NLM weights are self-adjoint.

With the denoiser frozen, each scheme's update is the affine map
x -> P x + q of a ``spectral.IterationOperator``. The solvers take that map,
the measurements, the schedule and the start, and do not build the map
themselves: ``cli.iteration_operator`` builds it, for ``run`` and for
``certify`` alike, so the map that runs is the map that is certified. One
momentum loop, ``_accelerate``, iterates the map for all three schemes.

The data-fidelity proximal map solves (I + mu A^T A) x = v + mu A^T b in
closed form with ``fwdops.solve_shifted_gram`` (a diagonal, Fourier or
Woodbury solve, depending on the operator).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .fwdops import ForwardOp, check_len, l2_norm, solve_shifted_gram
from .imgcore import psnr_vec
from .spectral import IterationOperator


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

    def record(self, k, a, x, dx):
        self.k.append(k)
        self.alpha.append(a)
        self.step.append(l2_norm(dx))
        if self.dist is not None:
            self.dist.append(l2_norm(x - self.x_ref))
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


def _guard_iterate(x: np.ndarray, k: int, bound: float) -> float:
    if not np.all(np.isfinite(x)):
        raise DivergenceError(k, "non-finite iterate")
    if (norm := l2_norm(x)) > bound:
        raise DivergenceError(k, "iterate norm exceeded the divergence guard")
    return norm  # the stop test reuses it


def _accelerate(
    it: IterationOperator,
    data: np.ndarray,
    schedule: MomentumSchedule,
    x0: np.ndarray,
    max_iter: int,
    stop_tol: float,
    truth: np.ndarray | None,
    x_ref: np.ndarray | None,
    x1: np.ndarray | None = None,
    rebuild=None,
    warmup_iters: int = 0,
) -> SolverTrace:
    """The momentum loop of all three solvers:

        x_{k+1} = P y_k + q,   y_k = x_k + alpha_k (x_k - x_{k-1}),   k >= 1,

    with x -> P x + q given by ``it.step(x, data)``. The first iterate is
    x_1 = P x_0 + q, or ``x1`` when given, in which case x_0 := x1 and the
    zero first step does not count as convergence. ``rebuild(x)`` returns
    the map for the next iteration during the first ``warmup_iters``
    iterations. The loop stops when ||x_k - x_{k-1}|| <= stop_tol ||x_k||
    or after ``max_iter`` iterations, and raises DivergenceError on a
    non-finite iterate or one whose norm exceeds 1e8 (1 + ||x_0||).
    """
    if warmup_iters > 0 and rebuild is None:
        raise ValueError("guide warm-up requires a rebuild of the map")
    guard = 1e8 * (1.0 + l2_norm(x0))
    tracer = _TraceBuilder(truth, x_ref)
    x_prev = y = x0 if x1 is None else x1
    converged = False
    for k in range(1, max_iter + 1):
        given = k == 1 and x1 is not None
        x = x1 if given else it.step(y, data)
        x_norm = _guard_iterate(x, k, guard)
        a = schedule.alpha(k)
        dx = x - x_prev
        tracer.record(k, a, x, dx)
        converged = not given and bool(tracer.step[-1] <= stop_tol * x_norm)
        y = x + a * dx
        x_prev = x
        if k <= warmup_iters:
            it = rebuild(x)
        if converged:
            break
    return tracer.build(x_prev, converged)


def pnp_fista(
    it: IterationOperator,
    b: np.ndarray,
    schedule: MomentumSchedule,
    x0: np.ndarray,
    max_iter: int = 20000,
    stop_tol: float = 1e-9,
    truth: np.ndarray | None = None,
    x_ref: np.ndarray | None = None,
    rebuild=None,
    warmup_iters: int = 0,
) -> SolverTrace:
    """Denoiser-in-the-gradient-step iteration with momentum, on a pnp or
    scaled_pnp map ``it``:

    y_1 = x_0; for k >= 1:
        x_k = W (y_k - gamma * A^T (A y_k - b))      (pnp)
        x_k = W (y_k - gamma * D^-1 A^T (A y_k - b)) (scaled_pnp)
        y_{k+1} = x_k + alpha_k (x_k - x_{k-1})

    ``rebuild(x)``, together with ``warmup_iters > 0``, returns the map on a
    denoiser rebuilt from the iterate during warm-up; afterwards the map is
    frozen so the remaining iterations follow a fixed affine map.
    """
    if it.kind == "red":
        raise ValueError("red maps are iterated by red_apg")
    return _accelerate(it, it.data_term(b), schedule, check_len(x0, it.n), max_iter, stop_tol,
                       truth, x_ref, rebuild=rebuild, warmup_iters=warmup_iters)


# the map carries the degree scaling, so the loop is pnp_fista's
scaled_pnp_fista = pnp_fista


def red_apg(
    it: IterationOperator,
    b: np.ndarray,
    schedule: MomentumSchedule,
    v0: np.ndarray,
    max_iter: int = 20000,
    stop_tol: float = 1e-9,
    truth: np.ndarray | None = None,
    x_ref: np.ndarray | None = None,
) -> SolverTrace:
    """Proximal-then-blend iteration with momentum, on a red map ``it``:

    for k >= 1:
        x_k = argmin_x  mu/2 ||A x - b||^2 + 1/2 ||x - v_{k-1}||^2
        y_k = x_k + alpha_k (x_k - x_{k-1})
        v_k = theta W y_k + (1 - theta) y_k

    The first momentum term needs x_0; we set x_0 := x_1 (zero first momentum),
    which coincides with the beck schedule's alpha_1 = 0 behavior and keeps the
    update well-defined for schedules with alpha_1 != 0.
    """
    if it.kind != "red":
        raise ValueError("red_apg iterates a red map")
    data = it.data_term(b)
    v0 = check_len(v0, it.n)
    x1 = solve_shifted_gram(it.op, it.mu, v0 + data)
    return _accelerate(it, data, schedule, v0, max_iter, stop_tol, truth, x_ref, x1=x1)
