"""Accelerated denoiser-driven iterations for quadratic data fidelity.

With the denoiser frozen, each scheme's update is the affine map
x -> P x + q of a ``spectral.IterationOperator``, and the map's kind is the
scheme:

* ``pnp``        -- denoise the gradient step: x_k = W(y_k - gamma * grad f(y_k)),
* ``red``        -- proximal step on f, then a convex blend with the denoised
                    extrapolation: v_k = theta * W y_k + (1 - theta) * y_k,
* ``scaled_pnp`` -- pnp with the gradient taken in the inner product weighted
                    by the denoiser's degree diagonal, which is the geometry in
                    which plain NLM weights are self-adjoint.

So there is one solver, ``accelerate``: the momentum iteration, with a
pluggable sequence {alpha_k}, on the map it is handed. ``pnp_fista``,
``red_apg`` and ``scaled_pnp_fista``, the config's algorithm names, are
bound to it. It does not build the map: ``cli.iteration_operator`` builds
it, for ``run`` and for ``certify`` alike, so the map that runs is the map
that is certified.

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


def accelerate(
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
    """The momentum iteration on the map ``it`` for measurements b:

        x_{k+1} = P y_k + q,   y_k = x_k + alpha_k (x_k - x_{k-1}),   k >= 1,

    with x -> P x + q given by ``it.step``, so the map's kind decides the
    scheme. pnp kinds start from x_1 = P x_0 + q. red reads x_0 as v_0 and
    starts from its prox x_1, with x_0 := x_1: the first step is zero, which
    keeps alpha_1 != 0 well defined, and it does not count as convergence.

    ``rebuild(x)`` returns the map for the next iteration during the first
    ``warmup_iters`` iterations (guide warm-up); afterwards the map is
    frozen. The loop stops when ||x_k - x_{k-1}|| <= stop_tol ||x_k|| or
    after ``max_iter`` iterations, and raises DivergenceError on a
    non-finite iterate or one whose norm exceeds 1e8 (1 + ||x_0||).
    """
    if warmup_iters > 0 and rebuild is None:
        raise ValueError("guide warm-up requires a rebuild of the map")
    data = it.data_term(b)
    x0 = check_len(x0, it.n)
    guard = 1e8 * (1.0 + l2_norm(x0))
    red = it.kind == "red"
    x_prev = y = solve_shifted_gram(it.op, it.mu, x0 + data) if red else x0
    alpha, step, dist, quality = [], [], [], []
    converged = False
    for k in range(1, max_iter + 1):
        x = x_prev if red and k == 1 else it.step(y, data)
        x_norm = _guard_iterate(x, k, guard)
        a = schedule.alpha(k)
        dx = x - x_prev
        alpha.append(a)
        step.append(l2_norm(dx))
        if x_ref is not None:
            dist.append(l2_norm(x - x_ref))
        if truth is not None:
            quality.append(psnr_vec(x, truth))
        converged = not (red and k == 1) and bool(step[-1] <= stop_tol * x_norm)
        y = x + a * dx
        x_prev = x
        if k <= warmup_iters:
            it = rebuild(x)
        if converged:
            break
    return SolverTrace(
        k=np.arange(1, len(step) + 1),
        alpha=np.array(alpha),
        step_norm=np.array(step),
        dist_to_ref=None if x_ref is None else np.array(dist),
        psnr=None if truth is None else np.array(quality),
        final=x_prev,
        converged=converged,
        iterations=len(step),
    )


# the algorithm names of the config; the map each is handed carries its scheme
pnp_fista = red_apg = scaled_pnp_fista = accelerate
