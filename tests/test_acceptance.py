"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import time

import numpy as np
import pytest

from qutrit_ks import analysis, hv, linalg, simulate, tomography as tg
from qutrit_ks.model import CHI4, build_model, exact_operator
from qutrit_ks.pulses import ALPHA, covered_pairs, settings_table, \
    verify_all_settings

from helpers import exact_probabilities, random_density_matrix

QUANTUM_CHI13 = 83 / 3
QUANTUM_CHI4 = 4 / 3


@pytest.fixture(scope="module")
def model():
    return build_model()


@pytest.fixture(scope="module")
def settings():
    return settings_table()


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" - {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _state_results(tabs, model, confusion):
    raw = analysis.ConfusionModel(0.0, 0.0)
    confusion = confusion or raw
    results = {}
    for label, tables in tabs.items():
        freqs = analysis.frequencies(tables)
        results[label] = {
            "chi13": analysis.estimate(model.chi13, freqs, confusion),
            "chi13_raw": analysis.estimate(model.chi13, freqs, raw),
            "chi4": analysis.estimate(CHI4, freqs, confusion),
        }
    return results


def test_criterion_01_classical_bound_chi13(model):
    t0 = time.perf_counter()
    report = hv.max_chi13_noncontextual(model)
    dt = time.perf_counter() - t0
    _report("criterion 1: chi13 classical bound",
            report.maximum == 25 and sum(report.histogram.values()) == 8192
            and dt < 1.0,
            f"max {report.maximum} over 8192 assignments in {dt:.3f}s")


def test_criterion_02_classical_bound_chi4(model):
    t0 = time.perf_counter()
    report = hv.max_chi4_constrained(model)
    dt = time.perf_counter() - t0
    _report("criterion 2: chi4 constrained bound",
            report.maximum == 1 and dt < 1.0,
            f"max {report.maximum}, {report.admissible_count} admissible, {dt:.3f}s")


def test_criterion_03_quantum_operators(model):
    d13 = linalg.frobenius_distance(exact_operator(model.chi13).astype(float),
                                    QUANTUM_CHI13 * linalg.IDENTITY)
    d4 = linalg.frobenius_distance(exact_operator(CHI4).astype(float),
                                   QUANTUM_CHI4 * linalg.IDENTITY)
    _report("criterion 3: quantum operators", d13 < 1e-9 and d4 < 1e-12,
            f"|chi13-(83/3)I|={d13:.2e}, |chi4-(4/3)I|={d4:.2e}")


def test_criterion_04_graph_structure(model):
    ok = len(model.edges) == 24 and set(model.triangles) == {
        (1, 2, 3), (1, 4, 7), (2, 5, 8), (3, 6, 9)}
    _report("criterion 4: graph structure", ok,
            f"{len(model.edges)} edges, triangles {sorted(model.triangles)}")


def test_criterion_05_table_verification(settings):
    reports = verify_all_settings(settings)
    worst = max(d for r in reports for _, _, d in r.deficits)
    alpha_ok = abs(ALPHA - 0.392 * np.pi) < 2e-3
    _report("criterion 5: 16 setting mappings",
            worst < 1e-9 and alpha_ok, f"worst overlap deficit {worst:.2e}")


def test_criterion_06_state_independence(model):
    rng = np.random.default_rng(606)
    op = exact_operator(model.chi13).astype(float)
    t0 = time.perf_counter()
    worst = max(abs(np.trace(random_density_matrix(rng) @ op).real
                    - QUANTUM_CHI13) for _ in range(1000))
    dt = time.perf_counter() - t0
    _report("criterion 6: state independence", worst < 1e-9 and dt < 1.0,
            f"worst |Tr(rho chi13) - 83/3| = {worst:.2e} over 1000 states")


def test_criterion_07_monte_carlo_ideal(model, settings):
    plan = simulate.build_plan(model, settings, shots=10_000)
    roster = simulate.default_state_roster()
    t0 = time.perf_counter()
    tabs = simulate.run_roster(roster, plan, settings,
                               simulate.NoiseModel.ideal(), 42)
    dt = time.perf_counter() - t0
    results = _state_results(tabs, model, None)
    worst = max(max(abs(r["chi13"].value - QUANTUM_CHI13) / r["chi13"].stderr,
                    abs(r["chi4"].value - QUANTUM_CHI4) / r["chi4"].stderr)
                for r in results.values())
    dd_total = sum(t.counts["DD"] for tables in tabs.values() for t in tables
                   if len(t.subexperiment.chain) == 2)
    _report("criterion 7: ideal-noise Monte Carlo",
            worst < 3.0 and dd_total == 0 and dt < 120.0,
            f"worst deviation {worst:.2f} sigma, DD total {dd_total}, {dt:.1f}s")


def test_criterion_08_monte_carlo_paper_noise(model, settings):
    plan = simulate.build_plan(model, settings, shots=10_000)
    roster = simulate.default_state_roster()
    confusion = analysis.ConfusionModel(0.010, 0.021)
    seeds = [1, 2, 3, 4, 5]
    passes = {"window": 0, "sig13": 0, "sig4": 0, "bias": 0}
    details = []
    for seed in seeds:
        tabs = simulate.run_roster(roster, plan, settings,
                                   simulate.NoiseModel.paper(), seed)
        results = _state_results(tabs, model, confusion)
        worst = max(abs(r["chi13"].value - QUANTUM_CHI13) / r["chi13"].stderr
                    for r in results.values())
        min_sig13 = min(analysis.significance(r["chi13"], 25.0)
                        for r in results.values())
        min_sig4 = min(analysis.significance(r["chi4"], 1.0)
                       for r in results.values())
        biased = sum(abs(r["chi13_raw"].value - r["chi13"].value)
                     > r["chi13"].stderr for r in results.values())
        passes["window"] += worst < 3.0
        passes["sig13"] += min_sig13 >= 10.0
        passes["sig4"] += min_sig4 >= 10.0
        passes["bias"] += biased >= len(results) / 2
        details.append(f"seed {seed}: dev {worst:.2f}, sig13 {min_sig13:.1f}, "
                       f"sig4 {min_sig4:.1f}, biased {biased}/12")
    ok = all(v >= 4 for v in passes.values())
    _report("criterion 8: paper-noise Monte Carlo", ok,
            f"{passes} over seeds {seeds}; " + "; ".join(details))


def test_criterion_09_tomography():
    settings = tg.tomography_settings()
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    worst_exact = max(
        linalg.frobenius_distance(
            tg.reconstruct(exact_probabilities(rho, settings),
                           settings, rho).rho, rho)
        for rho in (random_density_matrix(rng) for _ in range(100)))
    noise = simulate.NoiseModel.paper()
    fids = []
    for state in simulate.default_state_roster()[:9]:
        srng = simulate.derive_rng(909, state.label, "tomography")
        tables = tg.simulate_tomography(state, settings, noise, 10_000, srng)
        fids.append(tg.reconstruct(tables, settings,
                                   state.rho).fidelity_to_target)
    dt = time.perf_counter() - t0
    _report("criterion 9: tomography",
            worst_exact < 1e-9 and min(fids) >= 0.98 and dt < 60.0,
            f"exact round-trip {worst_exact:.2e}, min fidelity {min(fids):.4f}, "
            f"mean {np.mean(fids):.4f}, {dt:.1f}s")


def test_criterion_10_determinism(model, settings):
    plan = simulate.build_plan(model, settings, shots=2_000)
    roster = simulate.default_state_roster()
    noise = simulate.NoiseModel.paper()
    a = simulate.counts_to_csv(
        simulate.run_roster(roster, plan, settings, noise, 1234))
    b = simulate.counts_to_csv(
        simulate.run_roster(roster, plan, settings, noise, 1234))
    # order independence: running one sub-experiment in isolation matches
    [solo] = simulate.run_roster([roster[4]], [plan[20]], settings, noise,
                                 1234)[roster[4].label]
    full = simulate.run_roster(roster, plan, settings, noise, 1234)
    match = [t for t in full[roster[4].label]
             if t.subexperiment == plan[20]][0]
    _report("criterion 10: determinism",
            a == b and solo.counts == match.counts,
            "byte-identical count tables; streams independent of order")
