"""The benchmark's traced-run contract, checked on the current code.

`bench/harness.py` wraps every public function of the package in a span and
reads results at some boundaries (`Observers`); a traced pass must then
reproduce the untraced pass exactly and leave no wrapper behind. A change to
what a traced function returns, or to what a workload's operation calls,
breaks the benchmark without breaking any other test. The benchmark's files
are imported, never changed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402

from qutrit_ks import simulate, tomography  # noqa: E402


@pytest.mark.parametrize("workload", [workloads.Roster, workloads.CalibrationSweep],
                         ids=lambda w: w.name)
def test_traced_pass_reproduces_the_untraced_pass(tmp_path, workload):
    """One untraced and one traced pass (a run of 0 seconds makes one each)."""
    wl = workload(1, tmp_path / "scratch")
    metrics, detail = harness.traced(wl, 0.0, tmp_path / "spans.csv")
    results = detail["results"]
    assert len(results) == 2
    assert [p for r in results for p in r.problems] == []
    assert sum(r.failed for r in results) == 0
    assert detail["output_mismatches"] == 0
    assert detail["wrappers_left"] == []
    assert metrics["trace.span_count"][0] > 0


def test_observers_read_what_the_traced_functions_return():
    """Every observer accepts a real result of the function it watches."""
    obs = harness.Observers()
    settings = tomography.tomography_settings()
    state = simulate.default_state_roster()[0]
    res = tomography.reconstruct(
        tomography.simulate_tomography(state, settings, simulate.NoiseModel.paper(),
                                       10_000, np.random.default_rng(0)),
        settings, state.rho)
    obs.table()["tomography.reconstruct"]((), {}, res)
    assert (obs.reconstructions, len(obs.fidelities)) == (1, 1)
