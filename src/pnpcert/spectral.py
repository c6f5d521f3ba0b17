"""The three schemes' update maps and their spectral certification.

Each solver's frozen-momentum update is an affine map x -> P x + q, and
``IterationOperator.step`` is the one place where the three maps are
written: the solvers iterate it, and ``apply`` (P) is the same method with
a zero data term. So the certified map is the iterated map. When the
eigenvalues of P lie in [0, 1), the full momentum iteration converges
globally and linearly, with asymptotic rate sqrt(rho(P)): the limiting
two-step update has companion form [[2P, -P], [I, 0]], whose eigenvalues
lie on |lambda| = sqrt(mu) for each eigenvalue mu of P. An eigenvalue
mu < -1/3, possible with pnp steps above 1 / lambda_max(A^T A), gives roots
of modulus |mu| + sqrt(mu^2 - mu) > 1.

This module builds the map for the three schemes, finds the eigenvalues of
P that bound the rate with ARPACK (Lehoucq, Sorensen & Yang, SIAM 1998) on
the iterated map itself, and verifies the convergence preconditions on the
denoiser/operator pair, deciding those on the spectrum of W by one
symmetric Lanczos solve on W or its symmetric similar form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fwdops import (  # lambda_max_gram: a binding the benchmark tracer wraps
    EigenEstimate, ForwardOp, arpack_eigenvalue, arpack_start, lambda_max_gram,
    solve_shifted_gram,
)
from .imgcore import gaussian_noise  # unused here: a binding the benchmark tracer wraps
from .kernel_denoise import KernelDenoiser


@dataclass
class IterationOperator:
    """One-step update map x -> P x + q of a solver with momentum frozen.

    kinds, with data term d = A^T b (pnp kinds) or mu A^T b (red):
      pnp        -- P x + q = W (x - gamma (A^T A x - d))
      red        -- P x + q = (I + mu A^T A)^-1 (theta W x + (1 - theta) x + d)
      scaled_pnp -- P x + q = W (x - gamma D^-1 (A^T A x - d))

    With dsg weights, and for the scaled kind, P is similar to a product of
    two symmetric matrices, so its spectrum is real; it lies in [0, 1] while
    W's does and, for the pnp kinds, gamma <= 1 / lambda_max of the (scaled)
    Gram map. pnp and red with nlm weights lie outside the paper's theorem:
    on blur P then has complex eigenvalues.
    """

    kind: str
    op: ForwardOp
    denoiser: KernelDenoiser
    gamma: float | None = None
    mu: float | None = None
    theta: float | None = None
    _dinv: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.op.n

    def data_term(self, b: np.ndarray) -> np.ndarray:
        """The data term d of ``step`` for measurements b."""
        b = np.asarray(b, dtype=np.float64).reshape(-1)
        if b.size != self.op.m:
            raise ValueError(f"measurement length {b.size} != {self.op.m}")
        atb = self.op.adjoint(b)
        return self.mu * atb if self.kind == "red" else atb

    def step(self, x: np.ndarray, data: np.ndarray | float) -> np.ndarray:
        """P x + q for a precomputed data term d from ``data_term``; d = 0.0 gives P x.

        The solvers iterate this method, so it takes no copies and no checks.
        """
        W = self.denoiser.bands
        if self.kind == "pnp":
            return W @ (x - self.gamma * (self.op.gram(x) - data))
        if self.kind == "scaled_pnp":
            return W @ (x - self.gamma * (self._dinv * (self.op.gram(x) - data)))
        blended = self.theta * (W @ x) + (1.0 - self.theta) * x
        return solve_shifted_gram(self.op, self.mu, blended + data)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size != self.n:
            raise ValueError(f"length mismatch: expected {self.n}, got {x.size}")
        return self.step(x, 0.0)


def _check_pair(op: ForwardOp, denoiser: KernelDenoiser) -> None:
    if denoiser.n != op.n:
        raise ValueError(f"denoiser size {denoiser.n} != operator size {op.n}")


def pnp_operator(op: ForwardOp, denoiser: KernelDenoiser, gamma: float) -> IterationOperator:
    """The map may be built for any gamma >= 0 (gamma = 0 degenerates to W).
    Above gamma = 1 / lambda_max(A^T A), P can have an eigenvalue below -1/3,
    and the iteration then diverges; ``build_report`` rates that eigenvalue."""
    _check_pair(op, denoiser)
    if gamma is None or gamma < 0:
        raise ValueError("gamma must be a nonnegative step size")
    return IterationOperator(kind="pnp", op=op, denoiser=denoiser, gamma=gamma)


def red_operator(
    op: ForwardOp,
    denoiser: KernelDenoiser,
    mu: float,
    theta: float,
) -> IterationOperator:
    _check_pair(op, denoiser)
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0 <= theta <= 1:
        raise ValueError("theta must be in [0, 1]")
    return IterationOperator(kind="red", op=op, denoiser=denoiser, mu=mu, theta=theta)


def scaled_operator(op: ForwardOp, denoiser: KernelDenoiser, gamma: float) -> IterationOperator:
    """Requires nlm-mode weights: they carry the degree diagonal D and are
    self-adjoint in the D-weighted geometry. The step size should satisfy
    gamma < 1 / lambda_max(D^-1/2 A^T A D^-1/2); the unscaled bound
    1 / lambda_max(A^T A) is a valid, D-free fallback since all degrees
    are >= 1."""
    _check_pair(op, denoiser)
    if gamma is None or gamma < 0:
        raise ValueError("gamma must be a nonnegative step size")
    if denoiser.mode != "nlm":
        raise ValueError("scaled iteration requires an nlm-mode denoiser")
    return IterationOperator(
        kind="scaled_pnp", op=op, denoiser=denoiser, gamma=gamma, _dinv=1.0 / denoiser.degrees
    )


def spectral_radius(
    iter_op: IterationOperator, tol: float = 1e-10, max_iter: int = 100000
) -> EigenEstimate:
    """The signed eigenvalue of P of largest modulus, by ARPACK ``eigs`` on
    ``iter_op.apply``, the map the solvers iterate."""
    return arpack_eigenvalue(iter_op.apply, iter_op.n, "LM", tol, max_iter)


def accelerated_radius(mu: float | complex) -> float:
    """Larger modulus of the companion roots lambda^2 - 2 mu lambda + mu = 0
    that an eigenvalue mu of P gives the form [[2P, -P], [I, 0]].

    It is sqrt(mu) for mu in [0, 1], and |mu| + sqrt(mu^2 - mu) for other
    real mu, which exceeds 1 exactly when mu < -1/3 or mu > 1; nan gives nan.
    """
    if not isinstance(mu, complex) and 0.0 <= mu <= 1.0:
        return float(np.sqrt(mu))
    s = np.sqrt(complex(mu) ** 2 - mu)
    return float(max(abs(mu + s), abs(mu - s)))


@dataclass
class AssumptionChecks:
    """Verdicts for the convergence preconditions of a denoiser/operator pair."""

    stochastic_ok: bool
    stochastic_defect: float
    forward_ok: bool          # A 1 != 0
    forward_one_norm: float
    spectrum_ok: bool         # spectrum of W in [0, 1]
    spectrum_low: float
    spectrum_high: float
    fix_ok: bool              # eigenvalue 1 is simple: fixed vectors are the constants
    second_eigenvalue: float

    def all_ok(self) -> bool:
        return self.stochastic_ok and self.forward_ok and self.spectrum_ok and self.fix_ok


def check_assumption(denoiser: KernelDenoiser, op) -> AssumptionChecks:
    """Verify stochasticity of W, A 1 != 0, the spectrum of W, and simplicity
    of the eigenvalue 1.

    The spectrum checks read the lowest and the two highest eigenvalues of W
    from one sparse symmetric Lanczos solve (ARPACK ``eigsh``, both ends) on
    W for dsg weights, or on its degree-symmetrized similar form
    D^1/2 W D^-1/2 for nlm weights, applied as x -> s (W (x / s)) with
    s = sqrt(D) and never built. The same path, with tolerance 1e-12, serves
    every n >= 4; the start vector is ``fwdops.arpack_start``, so
    reports are deterministic. If ARPACK does not converge, the spectrum
    values are NaN and both spectrum verdicts are False.
    """
    # imported here: loading ARPACK costs about 8 MB of RSS that run never uses
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = denoiser.n
    W = denoiser.bands
    ones = np.ones(n)
    defect = float(np.abs(W @ ones - ones).max())
    a_one = float(np.linalg.norm(op.apply(ones)))
    s = np.sqrt(denoiser.degrees)
    sym = W if denoiser.mode == "dsg" else LinearOperator(
        (n, n), matvec=lambda x: s * (W @ (x / s)), dtype=np.float64)
    v0 = arpack_start(n)
    try:
        ends = eigsh(sym, k=3, which="BE", v0=v0, tol=1e-12, return_eigenvectors=False)
    except ArpackNoConvergence:
        ends = np.full(3, np.nan)  # NaN fails both comparisons below
    low, second, high = (float(v) for v in np.sort(ends))
    return AssumptionChecks(
        stochastic_ok=defect <= 1e-10,
        stochastic_defect=defect,
        forward_ok=a_one > 1e-10 * np.sqrt(n),
        forward_one_norm=a_one,
        spectrum_ok=low >= -1e-8 and high <= 1.0 + 1e-8,
        spectrum_low=low,
        spectrum_high=high,
        fix_ok=second <= 1.0 - 1e-10,
        second_eigenvalue=second,
    )


SWEEP_CSV_HEADER = "task,denoiser_mode,gamma_or_invL,rho_P,rho_R,certified"


@dataclass
class SpectralReport:
    """Per-instance certification summary."""

    task: str
    denoiser_mode: str
    grid_value: float          # step-size fraction (pnp paths) or 1/L (red)
    rho_step: EigenEstimate    # P's largest-modulus eigenvalue; flag and count cover all solves
    rho_accel: float           # the certified asymptotic rate
    certified: bool            # rho_accel < 1 and every solve converged
    assumptions: AssumptionChecks
    gamma_interval: tuple[float, float]
    power_tol: float = 1e-10

    def csv_row(self) -> str:
        return (
            f"{self.task},{self.denoiser_mode},{self.grid_value!r},"
            f"{self.rho_step.value!r},{self.rho_accel!r},{str(self.certified).lower()}"
        )

    def to_kv(self) -> str:
        a = self.assumptions
        lines = [
            f"task={self.task}",
            f"denoiser_mode={self.denoiser_mode}",
            f"gamma_or_invL={self.grid_value!r}",
            f"rho_P={self.rho_step.value!r}",
            f"rho_P_converged={str(self.rho_step.converged).lower()}",
            f"rho_P_iterations={self.rho_step.iterations}",
            f"rho_R={self.rho_accel!r}",
            f"certified={str(self.certified).lower()}",
            f"gamma_interval_low={self.gamma_interval[0]!r}",
            f"gamma_interval_high={self.gamma_interval[1]!r}",
            f"power_tol={self.power_tol!r}",
            f"check_stochastic={str(a.stochastic_ok).lower()}",
            f"check_stochastic_defect={a.stochastic_defect!r}",
            "check_stochastic_tol=1e-10",
            f"check_forward_one={str(a.forward_ok).lower()}",
            f"check_forward_one_norm={a.forward_one_norm!r}",
            # constant: the spectrum check runs at every n; the key and
            # check_heuristic stay so that parsers of the key list keep working
            "check_spectrum_ran=true",
            f"check_spectrum={str(a.spectrum_ok).lower()}",
            f"check_spectrum_low={a.spectrum_low!r}",
            f"check_spectrum_high={a.spectrum_high!r}",
            "check_spectrum_tol=1e-08",
            f"check_fix_simple={str(a.fix_ok).lower()}",
            f"second_eigenvalue={a.second_eigenvalue!r}",
            "check_fix_gap_tol=1e-10",
            "check_heuristic=false",
        ]
        return "\n".join(lines) + "\n"


def build_report(
    task: str,
    iter_op: IterationOperator,
    grid_value: float,
    lambda_hat: float,
    checks: AssumptionChecks,
    power_tol: float = 1e-8,
    power_max_iter: int = 20000,
) -> SpectralReport:
    """Assemble a certification report for one iteration operator.

    ``checks`` comes from ``check_assumption`` on the same denoiser and
    operator; it does not depend on the grid value, so sweeps compute it once.
    The rate is that of P's largest-modulus eigenvalue. Where the theorem's
    hypotheses do not put P's spectrum in [0, inf) -- a pnp step fraction
    above 1, nlm weights outside the scaled kind, or a failed spectrum check
    -- the eigenvalue of smallest real part is rated too, and the worse rate
    counts. ``power_tol``/``power_max_iter`` are ARPACK's tol/maxiter.
    """
    est = spectral_radius(iter_op, tol=power_tol, max_iter=power_max_iter)
    rate = accelerated_radius(est.value)
    in_theorem = (
        checks.spectrum_ok
        and (iter_op.kind == "red" or grid_value <= 1.0)
        and (iter_op.kind == "scaled_pnp" or iter_op.denoiser.mode == "dsg")
    )
    if not in_theorem:
        low = arpack_eigenvalue(iter_op.apply, iter_op.n, "SR", power_tol, power_max_iter)
        rate = float(np.max([rate, accelerated_radius(low.value)]))  # nan propagates
        est = EigenEstimate(
            est.value, est.converged and low.converged, est.iterations + low.iterations
        )
    return SpectralReport(
        task=task,
        denoiser_mode=iter_op.denoiser.mode,
        grid_value=grid_value,
        rho_step=est,
        rho_accel=rate,
        certified=est.converged and rate < 1.0,
        assumptions=checks,
        gamma_interval=(0.0, 1.0 / lambda_hat),
        power_tol=power_tol,
    )
