"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import array
import signal
import time

import pytest

import harness
import reference
import spans
from qutrit_ks import analysis, hv, pulses, simulate
from workloads import CalibrationSweep, Verify


@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected
    if expected is not None:
        assert harness.beyond(n, expected) >= harness.MIN_BEYOND


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))  # 1..100, unordered
    assert harness.percentile(samples, 50.0) == 50
    assert harness.percentile(samples, 90.0) == 90
    assert harness.percentile(samples, 100.0) == 100
    assert harness.percentile([7.0], 90.0) == 7.0


def _summary(rows):
    """rows: (name, start, end, parent index)."""
    names = sorted({r[0] for r in rows})
    return spans.SpanSummary(
        names,
        array.array("i", [names.index(r[0]) for r in rows]),
        array.array("d", [r[1] for r in rows]),
        array.array("d", [r[2] for r in rows]),
        array.array("i", [r[3] for r in rows]),
    )


def test_self_time_of_nested_spans():
    s = _summary([
        ("cli.main", 0.0, 10.0, -1),          # 0
        ("simulate.run", 1.0, 4.0, 0),        # 1
        ("linalg.adjoint", 2.0, 3.0, 1),      # 2
        ("simulate.run", 5.0, 9.0, 0),        # 3
        ("simulate.run", 6.0, 7.0, 3),        # 4: recursion
        ("linalg.adjoint", 11.0, 12.0, -1),   # 5: second top-level span
    ])
    assert s.self_time["cli.main"] == pytest.approx(10 - 3 - 4)
    assert s.self_time["simulate.run"] == pytest.approx((3 - 1) + (4 - 1) + 1)
    assert s.self_time["linalg.adjoint"] == pytest.approx(2)
    # A span nested in a span of the same name is not busy time twice.
    assert s.busy["simulate.run"] == pytest.approx(3 + 4)
    assert s.calls["simulate.run"] == 3
    assert s.module_busy["linalg"] == pytest.approx(2)
    # Self times partition the top-level spans.
    assert sum(s.module_self.values()) == pytest.approx(s.top_level) == 11


def test_coverage_merges_overlapping_children():
    assert spans.covered((0, 10), [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7)
    assert spans.covered((0, 10), []) == 0.0


def test_wrappers_installed_where_callers_look_and_removed():
    original = pulses.compile_setting
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # `simulate` imported compile_setting by name: it is wrapped there too.
            assert simulate.compile_setting is not original
            assert pulses.compile_setting is simulate.compile_setting
            assert spans.installed_wrappers()
            pulses.compile_setting(pulses.settings_table()[4])
            raise RuntimeError("operation failed")
    assert spans.installed_wrappers() == []
    assert pulses.compile_setting is original is simulate.compile_setting
    assert "pulses.compile_setting" in {row[3] for row in tracer.rows()}


def test_speed_sampler_samples_during_work_and_restores_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with reference.SpeedSampler(interval=0.05) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.samples) >= 4  # on entry, during the loop, on exit
    assert sampler.stolen >= sum(sampler.samples)


def test_traced_pass_reproduces_untraced_outputs(tmp_path):
    wl = CalibrationSweep(3, tmp_path)
    ops = wl.pass_inputs(0)[::6]
    plain = harness.run_pass(wl, ops)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = harness.run_pass(wl, ops, tracer)
    assert plain.failed == traced.failed == 0
    assert plain.fingerprints == traced.fingerprints
    assert set(tracer.op) == set(range(len(ops)))
    assert spans.installed_wrappers() == []


def test_traced_run_restores_every_wrapper(tmp_path):
    wl = Verify(0, tmp_path)
    metrics, detail = harness.traced(wl, 0.01, tmp_path / "spans.csv")
    assert detail["wrappers_left"] == [] == spans.installed_wrappers()
    assert detail["output_mismatches"] == 0
    assert metrics["hv.assignments_evaluated"][0] == 8192 + 24
    assert (tmp_path / "spans.csv").read_text().startswith("op,span,parent")


def test_injected_wrong_bound_fails_verify(tmp_path, monkeypatch):
    real = hv.max_chi13_noncontextual

    def wrong(model):
        report = real(model)
        report.maximum = 26
        return report

    monkeypatch.setattr(hv, "max_chi13_noncontextual", wrong)
    wl = Verify(0, tmp_path)
    result = harness.run_pass(wl, wl.pass_inputs(0)[:2])
    assert result.failed == 2
    assert any("PASSED" in p or "chi13" in p for p in result.problems)


def test_injected_wrong_estimate_fails_calibration(tmp_path, monkeypatch):
    def wrong(singles, pairs, model):
        return analysis.Estimate(25.0, 0.1, corrected=True)

    monkeypatch.setattr(analysis, "assemble_chi13", wrong)
    wl = CalibrationSweep(0, tmp_path)
    result = harness.run_pass(wl, wl.pass_inputs(0)[:3])
    assert result.failed == 3


def test_operation_that_raises_is_counted_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(simulate, "run_roster", broken)
    wl = CalibrationSweep(0, tmp_path)
    result = harness.run_pass(wl, wl.pass_inputs(0)[:2])
    assert result.failed == 2
    assert result.problems[0].startswith("raised ValueError")


def test_correct_outputs_pass_the_checks(tmp_path):
    wl = CalibrationSweep(5, tmp_path)
    result = harness.run_pass(wl, wl.warmup_inputs())
    assert result.failed == 0, result.problems
