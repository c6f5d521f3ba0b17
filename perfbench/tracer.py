"""Spans and counters recorded around pnpcert's public functions, from outside.

The tracer replaces a function at one binding (a module attribute or a class
attribute) by a wrapper that records a span: name, parent span, start and
end. A function imported under several names (``spectral.solve_shifted_gram``
and ``solvers.solve_shifted_gram``, say) is wrapped at each binding its
callers look up, so every call is seen once, under the name of the caller's
layer. Spans and counters stay in memory; ``layer_metrics`` turns them into
the per-layer figures when the run ends. ``uninstall`` puts every original
back, so untraced runs execute the unmodified program.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time
from collections import defaultdict

# A span's ru_maxrss is sampled when it ends at most this deep below the
# command span, so the process peak can be attributed to a setup stage.
RSS_SAMPLE_DEPTH = 2

_NAME, _PARENT, _START, _END = range(4)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.rss_after = defaultdict(float)  # span name -> ru_maxrss (MB) at its end
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` for every call through ``owner.attr``.

        ``count(tracer, args, kwargs, result)`` runs after each call and may
        update counters from the arguments or the result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), 0.0])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][_END] = time.perf_counter()
            if count is not None:
                count(self, args, kwargs, result)
            if len(stack) <= RSS_SAMPLE_DEPTH:
                rss = peak_rss_mb()
                self.rss_after[name] = max(self.rss_after[name], rss)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- aggregation -------------------------------------------------

    def durations(self) -> list[float]:
        return [s[_END] - s[_START] for s in self.spans]

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover.

        Calls are synchronous and single-threaded, so children of one span are
        disjoint intervals inside it and their durations simply add up.
        """
        dur = self.durations()
        own = list(dur)
        for i, span in enumerate(self.spans):
            if span[_PARENT] >= 0:
                own[span[_PARENT]] -= dur[i]
        return own

    def span_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total s, self s) per span name, largest total first."""
        rows = {}
        for span, dur, own in zip(self.spans, self.durations(), self.self_times()):
            calls, total, self_s = rows.get(span[_NAME], (0, 0.0, 0.0))
            rows[span[_NAME]] = (calls + 1, total + dur, self_s + own)
        return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[2])

    def under(self, ancestor_names) -> list[bool]:
        """For each span, whether some ancestor's name is in ``ancestor_names``."""
        flags = []
        for span in self.spans:
            parent = span[_PARENT]
            flags.append(parent >= 0 and (self.spans[parent][_NAME] in ancestor_names
                                          or flags[parent]))
        return flags


def _in(names):
    names = set(names)
    return lambda n: n in names


def _prefix(prefix):
    return lambda n: n.startswith(prefix)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced cycle, in s unless named otherwise."""
    names = [s[_NAME] for s in tr.spans]
    dur = tr.durations()
    own = tr.self_times()
    c, mx = tr.counters, tr.maxima

    def total(pred, times=dur):
        return sum(t for n, t in zip(names, times) if pred(n))

    def calls(pred):
        return sum(1 for n in names if pred(n))

    solver = _in(("solvers.pnp_fista", "solvers.red_apg", "solvers.scaled_pnp_fista"))
    under_solver_cg = tr.under({"solvers.cg"})
    under_spectral_cg = tr.under({"spectral.cg"})
    gram = [n == "fwdops.gram" for n in names]
    rng = _in(("imgcore.gaussian_noise", "imgcore.Rng.shuffle", "imgcore.Rng.uniforms"))
    solve_s = total(solver)
    iterations = c["solvers.iterations"]
    return {
        "fwdops.gram_calls": calls(_in(("fwdops.gram",))),
        "fwdops.gram_s": total(_in(("fwdops.gram",))),
        "fwdops.apply_calls": calls(_in(("fwdops.apply",))),
        "fwdops.adjoint_calls": calls(_in(("fwdops.adjoint",))),
        "fwdops.lambda_hat_s": total(_in(("fwdops.lambda_max_gram",))),
        "fwdops.lambda_hat_iters": c["fwdops.lambda_hat_iters"],
        "fwdops.lambda_hat_converged": _ratio(c["fwdops.lambda_hat_converged"],
                                              c["fwdops.lambda_hat_calls"]),
        "fwdops.observe_s": total(_in(("fwdops.observe",))),
        "fwdops.make_op_s": total(_prefix("fwdops.make_")),
        "solvers.solve_s": solve_s,
        "solvers.iterations": iterations,
        "solvers.converged": _ratio(c["solvers.converged"], c["solvers.calls"]),
        "solvers.iter_ms": 1e3 * solve_s / iterations if iterations else 0.0,
        "solvers.self_s": total(_prefix("solvers."), own),
        "solvers.cg_calls": calls(_in(("solvers.cg",))),
        "solvers.cg_grams": sum(g and u for g, u in zip(gram, under_solver_cg)),
        "solvers.cg_s": total(_in(("solvers.cg",))),
        "kernel_denoise.guide_s": total(_in(("kernel_denoise.make_guide",))),
        "kernel_denoise.build_kernel_s": total(_in(("kernel_denoise.build_kernel",))),
        "kernel_denoise.normalize_s": total(_in(("kernel_denoise.build_dsg",
                                                  "kernel_denoise.build_nlm"))),
        "kernel_denoise.nnz": mx["kernel_denoise.nnz"],
        "kernel_denoise.matrix_mb": mx["kernel_denoise.matrix_mb"],
        "kernel_denoise.rss_after_build_mb": tr.rss_after["kernel_denoise.build_denoiser"],
        "kernel_denoise.w_bytes_per_matvec": mx["kernel_denoise.w_bytes_per_matvec"],
        "spectral.rho_s": total(_in(("spectral.spectral_radius",))),
        "spectral.rho_iters": c["spectral.rho_iters"],
        "spectral.rho_converged": _ratio(c["spectral.rho_converged"], c["spectral.rho_calls"]),
        "spectral.check_s": total(_in(("spectral.check_assumption",))),
        "spectral.check_calls": calls(_in(("spectral.check_assumption",))),
        "spectral.cg_calls": calls(_in(("spectral.cg",))),
        "spectral.cg_grams": sum(g and u for g, u in zip(gram, under_spectral_cg)),
        "spectral.self_s": total(_prefix("spectral."), own),
        "imgcore.rng_s": total(rng),
        "imgcore.gaussian_draws": c["imgcore.gaussian_draws"],
        "imgcore.shuffle_items": c["imgcore.shuffle_items"],
        "imgcore.load_pgm_s": total(_in(("imgcore.load_pgm",))),
        "imgcore.save_pgm_s": total(_in(("imgcore.save_pgm",))),
        "imgcore.quality_s": total(_in(("imgcore.psnr", "imgcore.ssim", "imgcore.psnr_vec"))),
        "cli.build_problem_s": total(_in(("cli.build_problem",))),
        "cli.write_s": total(_in(("imgcore.save_pgm", "solvers.write_csv",
                                  "cli.write_summary"))),
        "cli.self_s": total(_prefix("cli."), own),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_ms(fn, repeats: int, budget_s: float) -> float:
    """Median wall time of ``fn()`` in ms, after one warm-up call.

    Stops early once ``budget_s`` is spent, keeping at least three samples.
    """
    fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < repeats:
        t0 = time.perf_counter()
        fn()
        samples.append(1e3 * (time.perf_counter() - t0))
        if len(samples) >= 3 and time.perf_counter() - start > budget_s:
            break
    return statistics.median(samples)


def instrument(tr: Tracer) -> None:
    """Wrap pnpcert's public functions at every binding the CLI paths use."""
    from pnpcert import cli, fwdops, imgcore, kernel_denoise, solvers, spectral

    def power(prefix):
        def count(t, args, kwargs, est):
            t.counters[prefix + "_calls"] += 1
            t.counters[prefix + "_iters"] += est.iterations
            t.counters[prefix + "_converged"] += bool(est.converged)
        return count

    def solve(t, args, kwargs, trace):
        t.counters["solvers.calls"] += 1
        t.counters["solvers.iterations"] += trace.iterations
        t.counters["solvers.converged"] += bool(trace.converged)

    def draws(t, args, kwargs, result):
        t.counters["imgcore.gaussian_draws"] += len(result)

    def shuffled(t, args, kwargs, result):
        t.counters["imgcore.shuffle_items"] += len(args[1])

    def built(t, args, kwargs, den):
        sizes = csr_sizes(den.weights)
        for key, value in sizes.items():
            t.maxima["kernel_denoise." + key] = max(t.maxima["kernel_denoise." + key], value)

    for owner, attr, name, count in [
        (cli, "cmd_run", "cli.run", None),
        (cli, "cmd_certify", "cli.certify", None),
        (cli, "build_problem", "cli.build_problem", None),
        (cli, "run_solver", "cli.run_solver", None),
        (cli, "iteration_operator", "cli.iteration_operator", None),
        (cli, "_write_summary", "cli.write_summary", None),
        (cli, "load_pgm", "imgcore.load_pgm", None),
        (cli, "save_pgm", "imgcore.save_pgm", None),
        (cli, "psnr", "imgcore.psnr", None),
        (cli, "ssim", "imgcore.ssim", None),
        (fwdops.ForwardOp, "gram", "fwdops.gram", None),
        (fwdops.ForwardOp, "apply", "fwdops.apply", None),
        (fwdops.ForwardOp, "adjoint", "fwdops.adjoint", None),
        (fwdops, "make_inpaint", "fwdops.make_inpaint", None),
        (fwdops, "make_blur", "fwdops.make_blur", None),
        (fwdops, "make_superres", "fwdops.make_superres", None),
        (fwdops, "observe", "fwdops.observe", None),
        (fwdops, "lambda_max_gram", "fwdops.lambda_max_gram", power("fwdops.lambda_hat")),
        (fwdops, "gaussian_noise", "imgcore.gaussian_noise", draws),
        (fwdops, "save_pgm", "imgcore.save_pgm", None),
        (kernel_denoise, "build_denoiser", "kernel_denoise.build_denoiser", built),
        (kernel_denoise, "build_kernel", "kernel_denoise.build_kernel", None),
        (kernel_denoise, "build_dsg", "kernel_denoise.build_dsg", None),
        (kernel_denoise, "build_nlm", "kernel_denoise.build_nlm", None),
        (kernel_denoise, "make_guide", "kernel_denoise.make_guide", None),
        (kernel_denoise, "apply_w", "kernel_denoise.apply_w", None),
        (solvers, "pnp_fista", "solvers.pnp_fista", solve),
        (solvers, "red_apg", "solvers.red_apg", solve),
        (solvers, "scaled_pnp_fista", "solvers.scaled_pnp_fista", solve),
        (solvers, "solve_shifted_gram", "solvers.cg", None),
        (solvers, "prox_quadratic", "solvers.prox", None),
        (solvers, "psnr_vec", "imgcore.psnr_vec", None),
        (solvers.SolverTrace, "write_csv", "solvers.write_csv", None),
        (spectral, "spectral_radius", "spectral.spectral_radius", power("spectral.rho")),
        (spectral, "check_assumption", "spectral.check_assumption", None),
        (spectral, "build_report", "spectral.build_report", None),
        (spectral, "solve_shifted_gram", "spectral.cg", None),
        (spectral, "gaussian_noise", "imgcore.gaussian_noise", draws),
        (spectral, "lambda_max_gram", "fwdops.lambda_max_gram", power("fwdops.lambda_hat")),
        (imgcore, "gaussian_noise", "imgcore.gaussian_noise", draws),
        (imgcore.Rng, "shuffle", "imgcore.Rng.shuffle", shuffled),
        (imgcore.Rng, "uniforms", "imgcore.Rng.uniforms", None),
    ]:
        tr.wrap(owner, attr, name, count)


def csr_sizes(matrix) -> dict[str, float]:
    """Computed (not measured) sizes of a CSR matrix and of one matvec with it.

    A matvec reads data, indices and indptr once, reads x and writes y.
    """
    n_rows, n_cols = matrix.shape
    nnz = matrix.nnz
    stored = (nnz * (matrix.data.itemsize + matrix.indices.itemsize)
              + (n_rows + 1) * matrix.indptr.itemsize)
    return {
        "nnz": float(nnz),
        "matrix_mb": stored / 1e6,
        "w_bytes_per_matvec": float(stored + 8 * (n_rows + n_cols)),
    }
