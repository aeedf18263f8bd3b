"""The benchmark tracer's contract with the library, seen from tier-1.

perfbench/run.py wraps the public functions of every layer by name, binds
some of their arguments by name, and checks exact call counts on a tiny job
list. Its self-check runs here, so a renamed function or argument fails a
test rather than only the benchmark's smoke run.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

import siqm.cli
from siqm import BoundaryDecayWarning

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the BLAS/OpenMP variables run.py sets on import when they are unset
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
HELPERS = ("tracing", "workloads", "checks")  # imported by run.py from its directory


def test_tracer_selfcheck_passes(tmp_path, monkeypatch):
    for var in THREAD_VARS:  # restored, or removed again, after the test
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    fresh = [name for name in HELPERS if name not in sys.modules]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        assert run.THREAD_VARS == THREAD_VARS
        # the self-check's tiny grids truncate some states; a benchmark run
        # keeps that warning in the job's stderr, and so does this list
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run._selfcheck(siqm.cli, tmp_path)
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    assert result["problems"] == []
    assert result["pass"] is True
    assert all(issubclass(w.category, BoundaryDecayWarning) for w in caught)
