import math
from fractions import Fraction

import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate
from qutrit_ks.model import CHI4, RAYS, ZO, Inequality, build_model
from qutrit_ks.pulses import settings_table

from helpers import random_density_matrix

IDENTITY = analysis.ConfusionModel(0.0, 0.0)
PAPER = analysis.ConfusionModel(0.010, 0.021)


@pytest.fixture(scope="module")
def model():
    return build_model()


@pytest.fixture(scope="module")
def layout(model):
    """Each table's chain and count total for the default plan."""
    return tuple((sub.chain, sub.shots)
                 for sub in simulate.build_plan(model, settings_table()))


def exact_f(layout, single, pair):
    """The frequency vector of noiseless tables that read P(V_i = 1) =
    single(i) and P(V_i = 1 and V_j = 1) = pair(i, j) exactly; with array
    arguments, one column per input."""
    f = []
    for chain, _ in layout:
        p = single(chain[0])
        if len(chain) == 1:
            f += [p, 1 - p]
        else:
            x = pair(*chain)
            f += [1 - p, p - x, x]
    return np.array(f)


def exact_estimate(ineq, layout, single, pair=lambda i, j: 0.0):
    return analysis.estimate(
        ineq, analysis.Frequencies(layout, exact_f(layout, single, pair)), IDENTITY)


def probability(*rays):
    """The inequality whose value is P(V_r = 1 for every r in rays)."""
    return Inequality("p", ZO, {rays: 1}, classical_bound=1,
                      quantum_value=Fraction(1))


def tables_of(*chains_counts):
    """Count tables (chain, counts); the setting id and key do not matter."""
    return [simulate.CountTable(simulate.SubExperiment("M1", chain), counts, "t")
            for chain, counts in chains_counts]


def single_estimate(dark, shots, confusion, ray=10):
    tables = tables_of(((ray,), {"D": dark, "B": shots - dark}))
    return analysis.estimate(probability(ray), analysis.frequencies(tables), confusion)


def test_estimate_probability():
    """A raw single is its dark fraction with the exact binomial stderr,
    which is 0 at a boundary; a table with no counts is rejected."""
    e = single_estimate(5000, 10_000, IDENTITY)
    assert e.value == 0.5
    assert e.stderr == pytest.approx(0.005)
    zero = single_estimate(0, 10_000, IDENTITY)
    assert (zero.value, zero.stderr) == (0.0, 0.0)
    full = single_estimate(10_000, 10_000, IDENTITY)
    assert (full.value, full.stderr) == (1.0, 0.0)
    with pytest.raises(ValueError, match="no counts"):
        single_estimate(0, 0, IDENTITY)


def test_confusion_invertibility():
    with pytest.raises(ValueError):
        analysis.ConfusionModel(0.6, 0.5)


def test_correct_ml_examples():
    corr = single_estimate(5000, 10_000, PAPER)
    assert corr.value == pytest.approx(0.479 / 0.969, abs=1e-9)
    assert corr.stderr == pytest.approx(0.005 / 0.969)

    # Below the bright floor the corrected value is negative: no clip.
    low = single_estimate(100, 10_000, PAPER)
    assert low.value == pytest.approx((0.010 - 0.021) / 0.969, abs=1e-12)
    assert low.stderr > 0.0

    assert single_estimate(5000, 10_000, IDENTITY).value == 0.5


def test_correct_ml_monotone():
    values = [single_estimate(int(d), 10_000, PAPER).value
              for d in np.linspace(300, 9700, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def pair_estimate(counts, n, dark_j, confusion, i=4, j=7):
    """The corrected pair (i, j) from its B/DB/DD counts and a single table
    of ray j with `dark_j` of n dark."""
    tables = tables_of(((i, j), counts), ((j,), {"D": dark_j, "B": n - dark_j}))
    return analysis.estimate(probability(i, j), analysis.frequencies(tables),
                             confusion)


def forward_pair(p1, p2d, c, n=10_000_000, eps_d=0.010, eps_b=0.021):
    """Counts of a pair whose first ray is dark with probability p1, whose
    second is then dark with p2d (first dark) or c (first bright), read with
    flip rates eps, and the dark count of the second ray's single."""
    q1 = p1 * (1 - eps_d) + (1 - p1) * eps_b
    w = p1 * (1 - eps_d) / q1
    qc = eps_b + (1 - eps_d - eps_b) * (w * p2d + (1 - w) * c)
    counts = {"B": round(n * (1 - q1)), "DD": round(n * q1 * qc)}
    counts["DB"] = n - counts["B"] - counts["DD"]
    s_j = p1 * p2d + (1 - p1) * c
    return counts, round(n * (eps_b + (1 - eps_d - eps_b) * s_j))


def test_correct_pair_ml_noiseless_identity():
    est = pair_estimate({"B": 7000, "DB": 2940, "DD": 60}, 10_000, 3500, IDENTITY)
    assert est.value == pytest.approx(60 / 10_000, abs=1e-12)


def test_correct_pair_ml_removes_flip_bias():
    """Forward-model counts with the paper's flip rates invert back to the
    true joint probability (which is zero for compatible projectors)."""
    counts, dark_j = forward_pair(0.3, 0.0, 0.45)
    est = pair_estimate(counts, 10_000_000, dark_j, PAPER)
    assert est.value == pytest.approx(0.0, abs=1e-4)


def test_correct_pair_ml_recovers_nonzero_joint():
    counts, dark_j = forward_pair(0.4, 0.25, 0.5)
    est = pair_estimate(counts, 10_000_000, dark_j, PAPER)
    assert est.value == pytest.approx(0.4 * 0.25, abs=1e-4)


def test_assemble_chi13_exact_inputs(model, layout):
    rng = np.random.default_rng(31)
    for _ in range(100):
        rho = random_density_matrix(rng)
        est = exact_estimate(model.chi13, layout, lambda i: float(
            np.trace(rho @ linalg.projector_from_ray(RAYS[i])).real))
        assert est.value == pytest.approx(83 / 3, abs=1e-9)


def test_assemble_chi13_all_zero_limit(model, layout):
    # A_i = 1 everywhere: 17 - 39 - 9, the all-(+1) hidden-variable value
    est = exact_estimate(model.chi13, layout, lambda i: 0.0)
    assert est.value == pytest.approx(-31.0)


def test_assemble_chi13_maximally_mixed_values(model, layout):
    est = exact_estimate(model.chi13, layout, lambda i: 1 / 3)
    assert est.value == pytest.approx(83 / 3, abs=1e-12)


def test_assemble_chi13_missing_estimate(model, layout):
    without_v13 = tuple(t for t in layout if t[0] != (13,))
    with pytest.raises(ValueError, match="v13"):
        exact_estimate(model.chi13, without_v13, lambda i: 0.0)


@pytest.fixture(scope="module")
def assignments(model, layout):
    """Every 0/1 assignment of the 13 rays (column r - 1 holds V_r) and the
    estimator's chi13 on its noiseless tables, pairs the products."""
    index = np.arange(2 ** 13)
    v = (index[:, None] >> np.arange(13)) & 1
    col = lambda r: v[:, r - 1]  # noqa: E731
    m = analysis.affine_map(model.chi13, layout, IDENTITY)
    return v, m.w0 + m.w @ exact_f(layout, col, lambda i, j: col(i) * col(j))


def test_hidden_variable_assignments_bounded(assignments):
    """Deterministic 0/1 assignments with product pairs never exceed 25:
    the estimator evaluated on all 8192 noiseless runs at once."""
    _, values = assignments
    assert values.max() <= 25 + 1e-9


def test_dropped_term_is_conservative(model, assignments):
    """The dropped triple term is never negative: on every assignment the
    estimator's value is at most chi13 of A = 1 - 2V with the triple terms,
    and equal where no triangle is all dark."""
    v, values = assignments
    a = 1 - 2 * v
    full = sum(c * np.prod(a[:, [r - 1 for r in rays]], axis=1)
               for rays, c in model.chi13.terms.items())
    all_dark = sum(np.prod(v[:, [r - 1 for r in t]], axis=1)
                   for t in model.triangles)
    assert np.all(values <= full + 1e-9)
    assert np.allclose(values[all_dark == 0], full[all_dark == 0], atol=1e-9)
    assert (all_dark > 0).any()


def test_assemble_chi4():
    third = tables_of(*(((r,), {"D": 3000, "B": 6000}) for r in range(10, 14)))
    est = analysis.estimate(CHI4, analysis.frequencies(third), IDENTITY)
    assert est.value == pytest.approx(4 / 3)
    assert est.stderr == pytest.approx(math.sqrt(4 * (1 / 3) * (2 / 3) / 9000))
    zeros = tables_of(*(((r,), {"D": 0, "B": 9000}) for r in range(10, 14)))
    assert analysis.estimate(CHI4, analysis.frequencies(zeros), IDENTITY).value == 0.0
    with pytest.raises(ValueError, match="v10"):
        analysis.estimate(CHI4, analysis.frequencies(third[1:]), IDENTITY)


def test_significance():
    assert analysis.significance(analysis.Estimate(27.63, 0.17, True), 25) \
        == pytest.approx(15.47, abs=0.01)
    assert analysis.significance(analysis.Estimate(25.0, 0.1, True), 25) == 0.0
    assert analysis.significance(analysis.Estimate(1.328, 0.011, True), 1) \
        == pytest.approx(29.8, abs=0.05)
    assert math.isnan(analysis.significance(analysis.Estimate(1.0, 0.0, True), 1))


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
    freqs, confusion = analysis.frequencies(tables), analysis.confusion_for(noise)
    return (analysis.estimate(model.chi13, freqs, confusion),
            analysis.estimate(CHI4, freqs, confusion))


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


def test_stderr_is_the_multinomial_variance(model):
    """The estimator's variance equals sum_k W_k' Cov_k W_k / n_k, Cov_k =
    diag(f_k) - f_k f_k' the multinomial covariance of table k, summed
    table by table in plain Python."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots=2000)
    noise = NOISE["flip-depolarized"]
    confusion = analysis.confusion_for(noise)
    for label, tables in simulate.run_roster(simulate.default_state_roster(), plan,
                                             settings, noise, 5).items():
        freqs = analysis.frequencies(tables)
        for ineq in (model.chi13, CHI4):
            m = analysis.affine_map(ineq, freqs.layout, confusion)
            var, start = 0.0, 0
            for _, n in freqs.layout:
                stop = start + int(np.sum(m.table == m.table[start]))
                w, f = m.w[start:stop], freqs.f[start:stop]
                var += (w @ (np.diag(f) - np.outer(f, f)) @ w) / n
                start = stop
            est = analysis.estimate(ineq, freqs, confusion)
            assert est.stderr == pytest.approx(math.sqrt(var), rel=1e-9), label
            assert est.value == pytest.approx(m.w0 + m.w @ freqs.f, abs=1e-12)


@pytest.mark.parametrize("name", sorted(NOISE))
def test_estimator_operator_is_the_quantum_value(model, name):
    """w0 I + sum_k W_k E_k, over the plan's effect stack under the same
    readout, is (83/3) I for chi13 and (4/3) I for chi4: the estimator is
    unbiased for every state at once, through the compiled settings, the
    sequential collapse and the correction."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings)
    layout = tuple((sub.chain, sub.shots) for sub in plan)
    entries = tuple((sub.setting_id, sub.chain) for sub in plan)

    def operator(ineq, noise_of_map, noise_of_stack):
        _, stack = simulate._plan_effects(tuple(settings), entries,
                                          simulate.readout_rates(noise_of_stack))
        m = analysis.affine_map(ineq, layout, analysis.confusion_for(noise_of_map))
        return m.w0 * np.identity(3) + np.tensordot(m.w, stack, 1)

    noise = NOISE[name]
    for ineq in (model.chi13, CHI4):
        err = abs(operator(ineq, noise, noise)
                  - float(ineq.quantum_value) * np.identity(3)).max()
        assert err <= 1e-12, (ineq.name, err)
    if name == "paper":  # the paper-rate map does not correct harsh readout
        err = abs(operator(model.chi13, noise, NOISE["photon-count-harsh"])
                  - float(model.chi13.quantum_value) * np.identity(3)).max()
        assert err > 1e-3


def _pulls(model, noise, labels, seeds):
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots=10_000)
    roster = [s for s in simulate.default_state_roster() if s.label in labels]
    truth = float(model.chi13.quantum_value)
    pulls = []
    for seed in seeds:
        for tables in simulate.run_roster(roster, plan, settings, noise, seed).values():
            chi13, _ = _corrected(tables, noise, model)
            pulls.append((chi13.value - truth) / chi13.stderr)
    return np.mean(pulls), np.std(pulls, ddof=1)


def test_chi13_stderr_is_calibrated_at_large_flip_rates(model):
    """With flip rates 0.2 / 0.3 and 0.1 depolarization the pair terms share
    the singles they correct with, and their DD and first-dark fractions
    covary; the stderr must carry both (400 seeds x psi1, psi7, rho10)."""
    mean, sd = _pulls(model, NOISE["flip-depolarized"], ("psi1", "psi7", "rho10"),
                      range(400))
    assert abs(sd - 1) < 0.07, f"{mean:+.3f}, {sd:.3f}"


def test_chi13_unbiased_for_deterministic_singles(model):
    """psi1 has singles at exactly 0 and 1, where a clip of the corrected
    single would bias chi13; under harsh photon-count readout the pull mean
    over 400 seeds stays near 0."""
    mean, sd = _pulls(model, NOISE["photon-count-harsh"], ("psi1",), range(400))
    assert abs(mean) < 0.15, f"{mean:+.3f}, {sd:.3f}"
