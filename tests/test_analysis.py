import math
import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate
from qutrit_ks.model import CHI4, RAYS, build_model
from qutrit_ks.pulses import settings_table

from helpers import random_density_matrix


@pytest.fixture(scope="module")
def model():
    return build_model()


def exact_estimates(model, rho):
    singles = {i: analysis.Estimate(
        float(np.trace(rho @ linalg.projector_from_ray(RAYS[i])).real), 1e-6)
        for i in range(1, 14)}
    pairs = {e: analysis.Estimate(0.0, 1e-6) for e in model.edges}
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
    raw = analysis.Estimate(0.5, 0.005)
    corr = analysis.correct_ml(raw, conf)
    assert corr.value == pytest.approx(0.479 / 0.969, abs=1e-9)
    assert corr.stderr == pytest.approx(0.005 / 0.969)
    assert corr.corrected

    low = analysis.correct_ml(analysis.Estimate(0.010, 0.001), conf)
    assert low.value == 0.0  # clipped below the bright floor
    assert low.stderr > 0.0

    identity = analysis.ConfusionModel(0.0, 0.0)
    same = analysis.correct_ml(raw, identity)
    assert same.value == raw.value


def test_correct_ml_monotone():
    conf = analysis.ConfusionModel(0.010, 0.021)
    values = [analysis.correct_ml(
        analysis.Estimate(q, 0.01), conf).value
        for q in np.linspace(0.03, 0.97, 30)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_correct_pair_ml_noiseless_identity():
    conf = analysis.ConfusionModel(0.0, 0.0)
    counts = {"B": 7000, "DB": 2940, "DD": 60}
    sj = analysis.Estimate(0.35, 0.005, True)
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
    s_j = analysis.Estimate(p1 * 0.0 + (1 - p1) * c, 1e-5, True)
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
    s_j = analysis.Estimate(p1 * p2d + (1 - p1) * c, 1e-5, True)
    conf = analysis.ConfusionModel(eps_d, eps_b)
    est = analysis.correct_pair_ml(counts, conf, s_j)
    assert est.value == pytest.approx(p1 * p2d, abs=1e-4)


def test_assemble_chi13_exact_inputs(model):
    rng = np.random.default_rng(31)
    for _ in range(100):
        rho = random_density_matrix(rng)
        singles, pairs = exact_estimates(model, rho)
        est = analysis.assemble_chi13(singles, pairs, model)
        assert est.value == pytest.approx(83 / 3, abs=1e-9)


def test_assemble_chi13_all_zero_limit(model):
    singles = {i: analysis.Estimate(0.0, 0.0) for i in range(1, 14)}
    pairs = {e: analysis.Estimate(0.0, 0.0) for e in model.edges}
    est = analysis.assemble_chi13(singles, pairs, model)
    # A_i = 1 everywhere: 17 - 39 - 9, the all-(+1) hidden-variable value
    assert est.value == pytest.approx(-31.0)


def test_assemble_chi13_maximally_mixed_values(model):
    singles = {i: analysis.Estimate(1 / 3, 0.0) for i in range(1, 14)}
    pairs = {e: analysis.Estimate(0.0, 0.0) for e in model.edges}
    est = analysis.assemble_chi13(singles, pairs, model)
    assert est.value == pytest.approx(83 / 3, abs=1e-12)


def test_assemble_chi13_missing_estimate(model):
    singles = {i: analysis.Estimate(0.0, 0.0) for i in range(1, 13)}
    pairs = {e: analysis.Estimate(0.0, 0.0) for e in model.edges}
    with pytest.raises(ValueError, match="v13"):
        analysis.assemble_chi13(singles, pairs, model)


def test_hidden_variable_assignments_bounded(model):
    """Deterministic 0/1 assignments with product pairs never exceed 25: the
    coefficients of chi13 evaluated on all 8192 x 13 assignments at once."""
    index = np.arange(2 ** 13)
    v = (index[:, None] >> np.arange(13)) & 1  # column r - 1 holds V_r
    values = np.zeros(index.size, dtype=np.int64)
    for rays, coef in analysis.coefficients(model.chi13).items():
        values += coef * np.prod(v[:, [r - 1 for r in rays]], axis=1)
    assert values.max() <= 25


def test_dropped_term_is_conservative(model):
    """Including the non-negative triple term can only raise the value."""
    rng = np.random.default_rng(77)
    for _ in range(200):
        s = rng.random(13)
        triple = rng.random(4)
        singles = {i: analysis.Estimate(s[i - 1], 0.0)
                   for i in range(1, 14)}
        pairs = {e: analysis.Estimate(rng.random() * 0.2, 0.0)
                 for e in model.edges}
        dropped = analysis.assemble_chi13(singles, pairs, model).value
        bonus = sum(8 * model.mu_ijk[t] * tv
                    for t, tv in zip(sorted(model.triangles), triple))
        assert dropped <= dropped + bonus + 1e-12


def test_assemble_chi4(model):
    singles = {i: analysis.Estimate(1 / 3, 0.004)
               for i in range(10, 14)}
    est = analysis.assemble_chi4(singles)
    assert est.value == pytest.approx(4 / 3)
    assert est.stderr == pytest.approx(0.008)
    zeros = {i: analysis.Estimate(0.0, 0.001) for i in range(10, 14)}
    assert analysis.assemble_chi4(zeros).value == 0.0
    with pytest.raises(ValueError, match="v10"):
        analysis.assemble_chi4({11: singles[11], 12: singles[12],
                                13: singles[13]})


def test_significance():
    assert analysis.significance(analysis.Estimate(27.63, 0.17, True), 25) \
        == pytest.approx(15.47, abs=0.01)
    assert analysis.significance(analysis.Estimate(25.0, 0.1, True), 25) == 0.0
    assert analysis.significance(analysis.Estimate(1.328, 0.011, True), 1) \
        == pytest.approx(29.8, abs=0.05)
    with pytest.raises(ValueError):
        analysis.significance(analysis.Estimate(1.0, 0.0, True), 1)


NOISE = {
    "ideal": simulate.NoiseModel.ideal(),
    "paper": simulate.NoiseModel.paper(),
    "flip-depolarized": simulate.NoiseModel(eps_dark_to_bright=0.2, eps_bright_to_dark=0.3,
                                            prep_depolarization=0.1),
    "photon-count": simulate.NoiseModel(mode="photon-count"),
    "photon-count-harsh": simulate.NoiseModel(mode="photon-count", lambda_dark=0.1,
                                              lambda_bright=4.0, threshold=2),
}


def test_confusion_for_noise_models():
    """The correction reads the rates the simulation draws with: rates are
    compared, since 1 - (1 - 0.010) is not 0.010 in floating point."""
    for noise in NOISE.values():
        conf = analysis.confusion_for(noise)
        r_d, r_b = simulate.readout_rates(noise)
        assert (1.0 - conf.eps_dark_to_bright, conf.eps_bright_to_dark) == (r_d, r_b)
        assert conf.visibility == r_d - r_b
    assert analysis.confusion_for(NOISE["ideal"]) == analysis.ConfusionModel(0.0, 0.0)


def _corrected(tables, noise, model):
    est = analysis.estimates_from_counts(tables, analysis.confusion_for(noise))
    return (analysis.assemble_chi13(est.singles, est.pairs, model),
            analysis.assemble_chi4(est.singles))


def test_correction_inverts_exact_laws(model):
    """Counts proportional to the exact outcome laws (10^15 shots) correct
    back to the quantum values under every readout model."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()
    for name, noise in NOISE.items():
        laws = simulate.expected_laws(roster, plan, settings, noise)
        for state in roster:
            tables = [simulate.CountTable(sub, {
                s: round(p * 10 ** 15) for s, p in law.items()}, "exact")
                for sub, law in zip(plan, laws[state.label])]
            chi13, chi4 = _corrected(tables, noise, model)
            assert chi13.value == pytest.approx(float(model.chi13.quantum_value),
                                                abs=1e-9), (name, state.label)
            assert chi4.value == pytest.approx(float(CHI4.quantum_value),
                                               abs=1e-9), (name, state.label)


def test_chi13_pulls_are_calibrated(model):
    """(chi13 - 83/3) / stderr over 100 fixed seeds x 3 states at 10^4 shots
    has mean near 0 and sd near 1 under each readout model."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots=10_000)
    roster = [s for s in simulate.default_state_roster()
              if s.label in ("psi1", "psi7", "rho10")]
    truth = float(model.chi13.quantum_value)
    for name in ("ideal", "paper", "photon-count-harsh"):
        pulls = []
        for seed in range(100):
            runs = simulate.run_roster(roster, plan, settings, NOISE[name], seed)
            for tables in runs.values():
                chi13, _ = _corrected(tables, NOISE[name], model)
                pulls.append((chi13.value - truth) / chi13.stderr)
        mean, sd = np.mean(pulls), np.std(pulls, ddof=1)
        assert abs(mean) < 0.2 and 0.9 <= sd <= 1.1, f"{name}: {mean:+.3f}, {sd:.3f}"
