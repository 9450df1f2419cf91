"""The benchmark's traced-run contract, checked on the current code.

`bench/harness.py` wraps every public function of the package in a span and
reads results at some boundaries (`Observers`); a traced pass must then
reproduce the untraced pass exactly and leave no wrapper behind. A change to
what a traced function returns, or to what a workload's operation calls,
breaks the benchmark without breaking any other test. The benchmark's files
are imported, never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from qutrit_ks import cli, hv, pulses, simulate, tomography  # noqa: E402
from qutrit_ks.analysis import Estimate  # noqa: E402
from qutrit_ks.model import build_model  # noqa: E402


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


def test_calibration_sweep_estimates_what_the_cli_estimates(tmp_path):
    """One operation per readout mode: the sweep's flip mode corrects with
    the rate pair of the CLI's paper noise, so its chi13 and chi4 equal
    `cli.run_simulation`'s bit for bit; photon-count, which the sweep leaves
    uncorrected, gives the CLI's raw values."""
    wl = workloads.CalibrationSweep(1, tmp_path / "scratch")
    for seed, mode, state in wl.warmup_inputs():
        _, chi13, chi4 = wl.run((seed, mode, state))
        cfg = cli.RunConfig(master_seed=seed, shots=wl.shots, states=(state.label,),
                            noise="paper" if mode == "flip" else mode)
        [r] = cli.run_simulation(cfg, wl.model)[1]
        raw = "_raw" if mode == "photon-count" else ""
        assert (chi13, chi4) == tuple(Estimate(r[name + raw], r[name + raw + "_err"])
                                      for name in ("chi13", "chi4"))


def test_observers_read_what_the_traced_functions_return():
    """Every observer accepts a real result of the function it watches, called
    as a traced call calls it. `bench/spans.py` runs an observer on every
    traced call of its function, so an observed name that the package has
    must be fed here; one it lacks is never traced."""
    obs = harness.Observers()
    obs.tracer = spans.Tracer()
    model = build_model()
    noise = simulate.NoiseModel.paper()
    state = simulate.default_state_roster()[0]
    settings = pulses.settings_table()
    calls = {
        "pulses.compile_setting": (pulses.compile_setting, (settings[0],)),
        "hv.max_chi13_noncontextual": (hv.max_chi13_noncontextual, (model,)),
        "hv.max_chi4_constrained": (hv.max_chi4_constrained, (model,)),
    }
    for name, (fn, args) in calls.items():
        obs.table()[name](args, {}, fn(*args))
    [res] = tomography.run_tomography([state], tomography.tomography_settings(),
                                      noise, 10_000, 0)
    obs.table()["tomography.reconstruct"]((), {}, res)
    assert (obs.reconstructions, len(obs.fidelities)) == (1, 1)
    assert obs.settings == {(-1, settings[0].id)}
    assert obs.chi4_enumerated == 2 ** len(model.mu_i)
    assert obs.chi4_admissible > 0 and obs.assignments > obs.chi4_admissible

    def traced(name):
        module, attr = name.split(".")
        return hasattr(importlib.import_module(f"qutrit_ks.{module}"), attr)

    assert [n for n in obs.table() if n not in calls and traced(n)] == []
