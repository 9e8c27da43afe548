"""The benchmark's instrumentation installs against the package as it is.

perfbench/instrument.py wraps library functions and module attributes by
name (solver.spla among them); a removed or renamed one breaks every
benchmark run.  This catches that in the test suite.
"""

import importlib.util
import pathlib

from shockrefl import solver

INSTRUMENT = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def test_instruments_install_and_uninstall():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    originals = (solver.spla, solver.solve_bvp, solver._Discretization.assemble)
    tools = instrument.Instruments()
    tools.install()
    try:
        assert solver.solve_bvp is not originals[1] and solver.spla is not originals[0]
    finally:
        tools.uninstall()
    assert (solver.spla, solver.solve_bvp, solver._Discretization.assemble) == originals
