import math
from itertools import product

import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate
from qutrit_ks.model import build_model


@pytest.fixture(scope="module")
def model():
    return build_model()


def exact_estimates(model, rho):
    singles = {i: analysis.Estimate(
        float(np.trace(rho @ model.projectors[i]).real), 1e-6, False, 1)
        for i in range(1, 14)}
    pairs = {e: analysis.Estimate(0.0, 1e-6, False, 1) for e in model.edges}
    return singles, pairs


def test_estimate_probability():
    e = analysis.estimate_probability(5000, 10_000)
    assert e.value == 0.5
    assert e.stderr == pytest.approx(0.005)
    zero = analysis.estimate_probability(0, 10_000)
    assert zero.value == 0.0
    assert zero.stderr == pytest.approx(3e-4)
    full = analysis.estimate_probability(10_000, 10_000)
    assert full.value == 1.0
    assert full.stderr == pytest.approx(3e-4)
    with pytest.raises(ValueError):
        analysis.estimate_probability(1, 0)
    with pytest.raises(ValueError):
        analysis.estimate_probability(11, 10)


def test_confusion_invertibility():
    with pytest.raises(ValueError):
        analysis.ConfusionModel(0.6, 0.5)


def test_correct_ml_examples():
    conf = analysis.ConfusionModel(0.010, 0.021)
    raw = analysis.Estimate(0.5, 0.005, False, 10_000)
    corr = analysis.correct_ml(raw, conf)
    assert corr.value == pytest.approx(0.479 / 0.969, abs=1e-9)
    assert corr.stderr == pytest.approx(0.005 / 0.969)
    assert corr.corrected

    low = analysis.correct_ml(analysis.Estimate(0.010, 0.001, False, 10_000), conf)
    assert low.value == 0.0  # clipped below the bright floor
    assert low.stderr > 0.0

    identity = analysis.ConfusionModel(0.0, 0.0)
    same = analysis.correct_ml(raw, identity)
    assert same.value == raw.value


def test_correct_ml_monotone():
    conf = analysis.ConfusionModel(0.010, 0.021)
    values = [analysis.correct_ml(
        analysis.Estimate(q, 0.01, False, 100), conf).value
        for q in np.linspace(0.03, 0.97, 30)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_correct_pair_ml_noiseless_identity():
    conf = analysis.ConfusionModel(0.0, 0.0)
    counts = {"B": 7000, "DB": 2940, "DD": 60}
    sj = analysis.Estimate(0.35, 0.005, True, 10_000)
    est = analysis.correct_pair_ml(counts, conf, sj)
    assert est.value == pytest.approx(60 / 10_000, abs=1e-12)


def test_correct_pair_ml_removes_flip_bias():
    """Forward-model counts with the paper's flip rates invert back to the
    true joint probability (which is zero for compatible projectors)."""
    eps_d, eps_b = 0.010, 0.021
    p1, c = 0.3, 0.45  # true first-dark and conditional bright-branch dark
    n = 10_000_000
    q1 = p1 * (1 - eps_d) + (1 - p1) * eps_b
    w = p1 * (1 - eps_d) / q1
    qc = eps_b + (1 - eps_d - eps_b) * (w * 0.0 + (1 - w) * c)
    counts = {"B": round(n * (1 - q1)), "DD": round(n * q1 * qc)}
    counts["DB"] = n - counts["B"] - counts["DD"]
    s_j = analysis.Estimate(p1 * 0.0 + (1 - p1) * c, 1e-5, True, n)
    conf = analysis.ConfusionModel(eps_d, eps_b)
    est = analysis.correct_pair_ml(counts, conf, s_j)
    assert est.value == pytest.approx(0.0, abs=1e-4)


def test_correct_pair_ml_recovers_nonzero_joint():
    eps_d, eps_b = 0.010, 0.021
    p1, p2d, c = 0.4, 0.25, 0.5
    n = 10_000_000
    q1 = p1 * (1 - eps_d) + (1 - p1) * eps_b
    w = p1 * (1 - eps_d) / q1
    qc = eps_b + (1 - eps_d - eps_b) * (w * p2d + (1 - w) * c)
    counts = {"B": round(n * (1 - q1)), "DD": round(n * q1 * qc)}
    counts["DB"] = n - counts["B"] - counts["DD"]
    s_j = analysis.Estimate(p1 * p2d + (1 - p1) * c, 1e-5, True, n)
    conf = analysis.ConfusionModel(eps_d, eps_b)
    est = analysis.correct_pair_ml(counts, conf, s_j)
    assert est.value == pytest.approx(p1 * p2d, abs=1e-4)


def test_assemble_chi13_exact_inputs(model):
    rng = np.random.default_rng(31)
    for _ in range(100):
        rho = linalg.random_density_matrix(rng)
        singles, pairs = exact_estimates(model, rho)
        est = analysis.assemble_chi13(singles, pairs, model)
        assert est.value == pytest.approx(83 / 3, abs=1e-9)


def test_assemble_chi13_all_zero_limit(model):
    singles = {i: analysis.Estimate(0.0, 0.0, False, 1) for i in range(1, 14)}
    pairs = {e: analysis.Estimate(0.0, 0.0, False, 1) for e in model.edges}
    est = analysis.assemble_chi13(singles, pairs, model)
    # A_i = 1 everywhere: 17 - 39 - 9, the all-(+1) hidden-variable value
    assert est.value == pytest.approx(-31.0)


def test_assemble_chi13_maximally_mixed_values(model):
    singles = {i: analysis.Estimate(1 / 3, 0.0, False, 1) for i in range(1, 14)}
    pairs = {e: analysis.Estimate(0.0, 0.0, False, 1) for e in model.edges}
    est = analysis.assemble_chi13(singles, pairs, model)
    assert est.value == pytest.approx(83 / 3, abs=1e-12)


def test_assemble_chi13_missing_estimate(model):
    singles = {i: analysis.Estimate(0.0, 0.0, False, 1) for i in range(1, 13)}
    pairs = {e: analysis.Estimate(0.0, 0.0, False, 1) for e in model.edges}
    with pytest.raises(ValueError, match="v13"):
        analysis.assemble_chi13(singles, pairs, model)


def test_hidden_variable_assignments_bounded(model):
    """Deterministic 0/1 assignments with product pairs never exceed 25."""
    for v in product((0, 1), repeat=13):
        singles = {i: analysis.Estimate(float(v[i - 1]), 0.0, False, 1)
                   for i in range(1, 14)}
        pairs = {(i, j): analysis.Estimate(float(v[i - 1] * v[j - 1]),
                                           0.0, False, 1)
                 for (i, j) in model.edges}
        est = analysis.assemble_chi13(singles, pairs, model)
        assert est.value <= 25 + 1e-12


def test_dropped_term_is_conservative(model):
    """Including the non-negative triple term can only raise the value."""
    rng = np.random.default_rng(77)
    for _ in range(200):
        s = rng.random(13)
        triple = rng.random(4)
        singles = {i: analysis.Estimate(s[i - 1], 0.0, False, 1)
                   for i in range(1, 14)}
        pairs = {e: analysis.Estimate(rng.random() * 0.2, 0.0, False, 1)
                 for e in model.edges}
        dropped = analysis.assemble_chi13(singles, pairs, model).value
        bonus = sum(8 * model.mu_ijk[t] * tv
                    for t, tv in zip(sorted(model.triangles), triple))
        assert dropped <= dropped + bonus + 1e-12


def test_assemble_chi4(model):
    singles = {i: analysis.Estimate(1 / 3, 0.004, False, 10_000)
               for i in range(10, 14)}
    est = analysis.assemble_chi4(singles)
    assert est.value == pytest.approx(4 / 3)
    assert est.stderr == pytest.approx(0.008)
    zeros = {i: analysis.Estimate(0.0, 0.001, False, 1) for i in range(10, 14)}
    assert analysis.assemble_chi4(zeros).value == 0.0
    with pytest.raises(ValueError, match="v10"):
        analysis.assemble_chi4({11: singles[11], 12: singles[12],
                                13: singles[13]})


def test_significance():
    assert analysis.significance(analysis.Estimate(27.63, 0.17, True, 1), 25) \
        == pytest.approx(15.47, abs=0.01)
    assert analysis.significance(analysis.Estimate(25.0, 0.1, True, 1), 25) == 0.0
    assert analysis.significance(analysis.Estimate(1.328, 0.011, True, 1), 1) \
        == pytest.approx(29.8, abs=0.05)
    with pytest.raises(ValueError):
        analysis.significance(analysis.Estimate(1.0, 0.0, True, 1), 1)


def test_confusion_for_noise_models():
    paper = analysis.confusion_for(simulate.NoiseModel.paper())
    assert paper == analysis.ConfusionModel(0.010, 0.021)
    assert analysis.confusion_for(simulate.NoiseModel.ideal()) is None
    assert analysis.confusion_for(simulate.NoiseModel(mode="photon-count")) is None
    assert analysis.confusion_for(simulate.NoiseModel(
        eps_dark_to_bright=0.0, eps_bright_to_dark=0.0)) is None
