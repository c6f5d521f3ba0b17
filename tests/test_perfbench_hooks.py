"""The benchmark's tracer wraps pnpcert functions at named bindings.

``perfbench/tracer.py`` is loaded read-only from the checkout; a renamed or
deleted function, or a moved import, makes ``instrument`` fail here instead
of inside a benchmark run.
"""

import importlib.util
from pathlib import Path

from pnpcert import cli, solvers, spectral

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_binds_every_hook_and_restores():
    tracer = load_tracer()
    originals = (cli.build_problem, solvers.red_apg, spectral.solve_shifted_gram)
    with tracer.Tracer() as tr:
        tracer.instrument(tr)  # a missing binding raises AttributeError or KeyError
        assert cli.build_problem is not originals[0]
    assert (cli.build_problem, solvers.red_apg, spectral.solve_shifted_gram) == originals
