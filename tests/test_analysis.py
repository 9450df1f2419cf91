import dataclasses
import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate
from qutrit_ks.model import CHI4, RAYS, Inequality, build_model, triple_free
from qutrit_ks.pulses import settings_table

from helpers import (effect_stack, law_rows, random_density_matrix, reference_map,
                     reference_rows)

IDENTITY = (1.0, 0.0)
PAPER = simulate.readout_rates(simulate.NoiseModel.paper())


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
    single(i) and P(V_i = 1 and V_j = 1) = pair(i, j) exactly, three entries
    per table in draw order; with array arguments, one column per input."""
    f = []
    for chain, _ in layout:
        p = single(chain[0])
        if len(chain) == 1:
            f += [0 * p, p, 1 - p]
        else:
            x = pair(*chain)
            f += [1 - p, p - x, x]
    return np.array(f)


def exact_estimate(ineq, layout, single, pair=lambda i, j: 0.0):
    return analysis.estimate(
        ineq, analysis.Frequencies(layout, exact_f(layout, single, pair)), IDENTITY)


def probability(*rays):
    """The inequality whose value is P(V_r = 1 for every r in rays)."""
    return Inequality("p", {rays: 1}, classical_bound=1, quantum_value=Fraction(1))


def counts_of(*chains_counts):
    """One state's plan and (n, 3) count array from (chain, counts) pairs,
    each table's counts in draw order: (0, D, B) for a single, (B, DB, DD)
    for a pair; the setting id does not matter."""
    return ([simulate.SubExperiment("M1", chain) for chain, _ in chains_counts],
            np.array([counts for _, counts in chains_counts], dtype=np.int64))


def single_estimate(dark, shots, rates, ray=10):
    freqs = analysis.frequencies(*counts_of(((ray,), (0, dark, shots - dark))))
    return analysis.estimate(probability(ray), freqs, rates)


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


def test_estimate_refuses_rates_without_visibility():
    """Rates that read dark no more often from a dark ion than from a
    bright one cannot be inverted: (0.3, 0.3) too, although its visibility
    rounds to 5.6e-17; the ideal pair (1, 0) returns the raw value."""
    for rates in ((0.4, 0.5), (0.5, 0.5), (0.3, 0.3)):
        messages = set()
        for r in (rates, tuple(Fraction(str(x)) for x in rates)):
            with pytest.raises(ValueError, match=r"do not have r_d > r_b") as refused:
                single_estimate(5000, 10_000, r)
            messages.add(str(refused.value))
        assert messages == {f"readout rates {rates} do not have r_d > r_b"}
    raw = single_estimate(2500, 10_000, IDENTITY)
    assert (raw.value, raw.stderr) == (0.25, math.sqrt(0.25 * 0.75 / 10_000))


def test_correct_ml_examples():
    corr = single_estimate(5000, 10_000, PAPER)
    assert corr.value == pytest.approx(0.479 / 0.969, abs=1e-9)
    assert corr.stderr == pytest.approx(0.005 / 0.969)
    exact = single_estimate(5000, 10_000, (Fraction(99, 100), Fraction(21, 1000)))
    assert (exact.value, exact.stderr) == pytest.approx((corr.value, corr.stderr), rel=1e-15)

    # Below the bright floor the corrected value is negative: no clip.
    low = single_estimate(100, 10_000, PAPER)
    assert low.value == pytest.approx((0.010 - 0.021) / 0.969, abs=1e-12)
    assert low.stderr > 0.0

    assert single_estimate(5000, 10_000, IDENTITY).value == 0.5


def test_correct_ml_monotone():
    values = [single_estimate(int(d), 10_000, PAPER).value
              for d in np.linspace(300, 9700, 30)]
    assert all(b > a for a, b in zip(values, values[1:]))


def pair_estimate(counts, n, dark_j, rates, i=4, j=7):
    """The corrected pair (i, j) from its B/DB/DD counts and a single table
    of ray j with `dark_j` of n dark."""
    freqs = analysis.frequencies(*counts_of(
        ((i, j), [counts[s] for s in ("B", "DB", "DD")]), ((j,), (0, dark_j, n - dark_j))))
    return analysis.estimate(probability(i, j), freqs, rates)


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
    m = analysis.affine_map(model.chi13, layout, *IDENTITY)
    return v, m.w0 + m.w @ exact_f(layout, col, lambda i, j: col(i) * col(j))


def test_hidden_variable_assignments_bounded(assignments):
    """Deterministic 0/1 assignments with product pairs never exceed 25:
    the estimator evaluated on all 8192 noiseless runs at once."""
    _, values = assignments
    assert values.max() <= 25 + 1e-9


def test_dropped_term_is_conservative(model, assignments):
    """The dropped triple term is never negative: on every assignment the
    estimator's value is at most chi13 with its triple terms, and equal
    where no triangle is all dark."""
    v, values = assignments
    full = sum(c * np.prod(v[:, [r - 1 for r in rays]], axis=1)
               for rays, c in model.chi13.terms.items())
    all_dark = sum(np.prod(v[:, [r - 1 for r in t]], axis=1)
                   for t in model.triangles)
    assert np.all(values <= full + 1e-9)
    assert np.allclose(values[all_dark == 0], full[all_dark == 0], atol=1e-9)
    assert (all_dark > 0).any()


@pytest.mark.parametrize("shots", [2 ** 53 + 1, 2 ** 63 - 1])
def test_frequencies_divide_as_python_past_2_53(model, shots):
    """numpy's int64 division rounds each count, and a total past 2^53, to
    a float before it divides; every frequency of a drawn state is still
    Python's correctly rounded count / n, where numpy's would miss some."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots)
    _, _, stack = simulate.draw_roster(simulate.default_state_roster(), plan, settings,
                                       NOISE["paper"], 3)
    missed = 0
    for counts in stack:
        f = analysis.frequencies(plan, counts)
        assert f.layout == tuple((sub.chain, shots) for sub in plan)
        assert f.f.tolist() == [c / shots for c in counts.ravel().tolist()]
        missed += f.f.tolist() != (counts / shots).ravel().tolist()
    assert missed > 0


@pytest.mark.parametrize("shots", [100, 10_000, 1_000_000, 2 ** 53 + 1])
def test_stacked_estimates_equal_one_state_calls(model, shots):
    """A roster's (S, n, 3) count stack divides and estimates as its states
    do one by one, bit for bit: frequencies, and the value and stderr of
    every inequality, raw and corrected, at float and at `Fraction` rates."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots)
    for noise in NOISE.values():
        _, _, counts = simulate.draw_roster(simulate.default_state_roster(), plan, settings,
                                            noise, shots % 7)
        stacked = analysis.frequencies(plan, counts)
        alone = [analysis.frequencies(plan, c) for c in counts]
        assert all(f.layout == stacked.layout for f in alone)
        assert stacked.f.tobytes() == np.array([f.f for f in alone]).tobytes()
        for ineq in model.inequalities:
            for rates in (IDENTITY, simulate.readout_rates(noise),
                          (Fraction(99, 100), Fraction(21, 1000))):
                ests = analysis.estimate(ineq, stacked, rates)
                assert [(e.value.hex(), e.stderr.hex()) for e in ests] == [
                    (e.value.hex(), e.stderr.hex())
                    for e in (analysis.estimate(ineq, f, rates) for f in alone)]


def test_frequencies_refuse_a_stack_with_an_empty_table(model):
    """A table without counts in any state of a stack, the last included, is
    refused and named; so is a stack whose states differ in a table's total,
    which no one affine map fits."""
    plan = simulate.build_plan(model, settings_table(), 10)
    counts = np.tile(np.array([0, 4, 6]), (3, len(plan), 1))
    assert analysis.frequencies(plan, counts).f.shape == (3, 3 * len(plan))
    empty = counts.copy()
    empty[-1, 20] = 0
    with pytest.raises(ValueError, match=f"count table {plan[20].key} has no counts"):
        analysis.frequencies(plan, empty)
    uneven = counts.copy()
    uneven[-1, 20, 0] = 1
    with pytest.raises(ValueError, match="different count totals"):
        analysis.frequencies(plan, uneven)


def test_assemble_chi4():
    plan, third = counts_of(*(((r,), (0, 3000, 6000)) for r in range(10, 14)))
    est = analysis.estimate(CHI4, analysis.frequencies(plan, third), IDENTITY)
    assert est.value == pytest.approx(4 / 3)
    assert est.stderr == pytest.approx(math.sqrt(4 * (1 / 3) * (2 / 3) / 9000))
    zeros = counts_of(*(((r,), (0, 0, 9000)) for r in range(10, 14)))
    assert analysis.estimate(CHI4, analysis.frequencies(*zeros), IDENTITY).value == 0.0
    with pytest.raises(ValueError, match="v10"):
        analysis.estimate(CHI4, analysis.frequencies(plan[1:], third[1:]), IDENTITY)


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


def _corrected(plan, counts, noise, model):
    freqs, rates = analysis.frequencies(plan, counts), simulate.readout_rates(noise)
    return (analysis.estimate(model.chi13, freqs, rates),
            analysis.estimate(CHI4, freqs, rates))


def test_correction_inverts_exact_laws(model):
    """Counts proportional to the exact outcome laws (10^15 shots) correct
    back to the quantum values under every readout model."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()
    for name, noise in NOISE.items():
        _, laws = law_rows(roster, plan, settings, noise)
        for state, law in zip(roster, laws):
            counts = np.array([[round(p * 10 ** 15) for p in row] for row in law])
            chi13, chi4 = _corrected(plan, counts, noise, model)
            assert chi13.value == pytest.approx(float(model.chi13.quantum_value),
                                                abs=1e-9), (name, state.label)
            assert chi4.value == pytest.approx(float(CHI4.quantum_value),
                                               abs=1e-9), (name, state.label)


def test_chi13_pulls_are_calibrated(model):
    """(chi13 - 83/3) / stderr over 100 fixed seeds x 3 states at 10^4 shots
    has mean near 0 and sd near 1 under each readout model."""
    for name in ("ideal", "paper", "photon-count-harsh"):
        mean, sd = _pulls(model, NOISE[name], ("psi1", "psi7", "rho10"), range(100))
        assert abs(mean) < 0.2 and 0.9 <= sd <= 1.1, f"{name}: {mean:+.3f}, {sd:.3f}"


def test_estimator_lookup_hashes_each_inequality_once(model, monkeypatch):
    """An inequality hashes once, so the four estimates of each run find
    their cached maps without rehashing its terms."""
    calls = []
    original = Inequality._hash.func
    counting = functools.cached_property(
        lambda ineq: calls.append(ineq.name) or original(ineq))
    counting.__set_name__(Inequality, "_hash")
    monkeypatch.setattr(Inequality, "_hash", counting)
    fresh = [dataclasses.replace(ineq) for ineq in (model.chi13, CHI4)]
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots=300)
    state, noise = simulate.default_state_roster()[4], NOISE["paper"]
    for seed in range(3):
        freqs = analysis.frequencies(
            plan, simulate.draw_roster([state], plan, settings, noise, seed)[2][0])
        for ineq in fresh:
            for rates in (IDENTITY, simulate.readout_rates(noise)):
                analysis.estimate(ineq, freqs, rates)
    assert type(freqs.layout) is tuple
    assert calls == ["chi13", "chi4"]
    for ineq in fresh:
        assert vars(ineq)["_hash"] == hash(ineq)


def test_float_maps_are_the_exact_maps_rounded(model, layout):
    """At float rates the map is the `Fraction`-rate map at the floats'
    exact values, each coefficient rounded once: bit for bit at (1, 0) and
    at 200 random rate pairs, over tables of unequal totals. Float and
    `Fraction` rates of equal value get their own maps, whichever is asked
    for first."""

    def rounded(ineq, lay, r_d, r_b):
        em = analysis.affine_map(ineq, lay, Fraction(r_d), Fraction(r_b))
        return float(em.w0), em.w.astype(float)

    unequal = tuple((chain, n + 7 * k) for k, (chain, n) in enumerate(layout))
    rng = np.random.default_rng(13)
    for k in range(200):
        r_d = int(rng.integers(550, 1001)) / 1000
        r_b = int(rng.integers(0, 450)) / 1000
        ineq = (model.chi13, CHI4)[k % 2]
        fm = analysis.affine_map(ineq, unequal, r_d, r_b)
        w0, w = rounded(ineq, unequal, r_d, r_b)
        assert fm.w0 == w0 and fm.w.tobytes() == w.tobytes()
    pairs = [IDENTITY, (Fraction(1), Fraction(0)), (0.75, 0.25), (Fraction(3, 4), Fraction(1, 4))]
    for ineq in (model.chi13, CHI4):
        for order in (1, -1):
            analysis.affine_map.cache_clear()
            maps = [analysis.affine_map(ineq, layout, *r) for r in pairs[::order]][::order]
            assert [(m.w.dtype, type(m.w0)) for m in maps] == [(float, float),
                                                               (object, Fraction)] * 2
        for fm, em in (maps[:2], maps[2:]):
            assert fm.w0 == em.w0 and fm.w.tobytes() == em.w.astype(float).tobytes()


def test_maps_are_the_fraction_reference(model, layout):
    """`affine_map` is the map that `reference_map` sums in `Fraction`
    arithmetic: equal at `Fraction` rates, and at float rates each
    coefficient the reference's rounded once, hex for hex. Both witnesses and
    the triple-free chi13, over the default layout, an unequal one and one
    at 2^63 - 1 shots per table, at the named rate pairs down to a visibility
    of 2^-53 and at 200 random pairs."""
    layouts = (layout, tuple((chain, n + 7 * k) for k, (chain, n) in enumerate(layout)),
               tuple((chain, 2 ** 63 - 1) for chain, _ in layout))
    cases = [(ineq, lay) for ineq in (model.chi13, CHI4, triple_free(model.chi13))
             for lay in layouts]
    rows = {case: reference_rows(*case) for case in cases}
    named = [IDENTITY, PAPER, (0.8, 0.3), (0.99, 5e-324), (0.5, 0.5 - 2 ** -53),
             simulate.readout_rates(NOISE["photon-count"])]
    rng = np.random.default_rng(46)
    drawn = [(float(r_d), float(r_b)) for r_d, r_b in rng.uniform((0.5, 0.0), (1.0, 0.5), (200, 2))]
    checks = [(case, rates) for case in cases for rates in named]
    checks += [(cases[k % len(cases)], rates) for k, rates in enumerate(drawn)]
    for (ineq, lay), (r_d, r_b) in checks:
        exact = reference_map(rows[ineq, lay], r_d, r_b)
        em = analysis.affine_map(ineq, lay, Fraction(r_d), Fraction(r_b))
        assert [em.w0, *em.w] == exact, (ineq.name, r_d, r_b)
        assert {type(x) for x in em.w} | {type(em.w0)} == {Fraction}
        fm = analysis.affine_map(ineq, lay, r_d, r_b)
        assert [fm.w0.hex(), *map(float.hex, fm.w.tolist())] == [float(x).hex() for x in exact]
        assert type(fm.w0) is float and fm.w.dtype == float


def test_parts_rows_are_integers_over_the_least_scale(model, layout):
    """`_parts` keeps Python ints over one scale L, the least one: on the
    default layout, at any shot count, L is 15 for chi13 and 1 for chi4,
    and the largest entry in size is 3,960 for chi13 and 4 for chi4."""
    for shots in (1, 10 ** 4, 2 ** 63 - 1):
        lay = tuple((chain, shots) for chain, _ in layout)
        for ineq, scale, largest in ((model.chi13, 15, 3960), (CHI4, 1, 4)):
            rows, L, _, _ = analysis._parts(ineq, lay)
            entries = [x for row in rows for x in row]
            assert {type(x) for x in entries} == {int} and type(L) is int
            assert L == scale and math.gcd(L, *entries) == 1
            assert max(map(abs, entries)) == largest


def test_raw_and_corrected_maps_share_one_build(model):
    """A run's four maps evaluate two rate-free builds, one per inequality."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots=50)
    state, noise = simulate.default_state_roster()[0], NOISE["photon-count"]
    freqs = analysis.frequencies(
        plan, simulate.draw_roster([state], plan, settings, noise, 3)[2][0])
    analysis.affine_map.cache_clear()
    analysis._parts.cache_clear()
    for ineq in (model.chi13, CHI4):
        for rates in (IDENTITY, simulate.readout_rates(noise)):
            analysis.estimate(ineq, freqs, rates)
    info = analysis._parts.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_stderr_is_the_multinomial_variance(model):
    """The estimator's variance equals sum_k W_k' Cov_k W_k / n_k, Cov_k =
    diag(f_k) - f_k f_k' the multinomial covariance of table k, summed
    table by table in plain Python."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots=2000)
    noise = NOISE["flip-depolarized"]
    rates = simulate.readout_rates(noise)
    _, names, stack = simulate.draw_roster(simulate.default_state_roster(), plan,
                                           settings, noise, 5)
    for label, counts in zip(names, stack):
        freqs = analysis.frequencies(plan, counts)
        for ineq in (model.chi13, CHI4):
            m = analysis.affine_map(ineq, freqs.layout, *rates)
            var, start = 0.0, 0
            for _, n in freqs.layout:
                stop = start + int(np.sum(m.table == m.table[start]))
                w, f = m.w[start:stop], freqs.f[start:stop]
                var += (w @ (np.diag(f) - np.outer(f, f)) @ w) / n
                start = stop
            est = analysis.estimate(ineq, freqs, rates)
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
        effs = simulate._plan_effects(
            tuple(settings), entries, simulate.readout_rates(noise_of_stack))
        m = analysis.affine_map(ineq, layout, *simulate.readout_rates(noise_of_map))
        # One layout on both sides: W's entries are the planes' columns, pads included.
        assert len(m.w) == effs.re.shape[1] == 3 * len(plan)
        return m.w0 * np.identity(3) + np.tensordot(m.w, effect_stack(effs), 1)

    noise = NOISE[name]
    for ineq in (model.chi13, CHI4):
        err = abs(operator(ineq, noise, noise)
                  - float(ineq.quantum_value) * np.identity(3)).max()
        assert err <= 1e-12, (ineq.name, err)
    if name == "paper":  # the paper-rate map does not correct harsh readout
        err = abs(operator(model.chi13, noise, NOISE["photon-count-harsh"])
                  - float(model.chi13.quantum_value) * np.identity(3)).max()
        assert err > 1e-3


@pytest.mark.parametrize("name", ["ideal", "paper", "photon-count", "flip-depolarized"])
def test_estimate_at_the_law_is_the_quantum_value(model, name):
    """The estimator's exact mean is `estimate` read at a state's law: the
    law of `simulate._laws` has the frequencies' layout, so every roster
    state's law corrects to the quantum value of each witness."""
    settings = settings_table()
    plan = simulate.build_plan(model, settings)
    layout = tuple((sub.chain, sub.shots) for sub in plan)
    noise = NOISE[name]
    rates = simulate.readout_rates(noise)
    effs = simulate.plan_effects(plan, settings, rates)
    roster = simulate.default_state_roster()
    [counts] = simulate.draw_roster(roster[:1], plan, settings, noise, 0)[2]
    drawn = analysis.frequencies(plan, counts)
    assert drawn.layout == layout and drawn.f.shape == (3 * len(plan),)
    singles = [3 * k for k, sub in enumerate(plan) if len(sub.chain) == 1]
    assert drawn.f[singles].tolist() == [0.0] * 13  # a single's first entry, as its law's
    for state in roster:
        law = simulate._laws(effs, simulate.prepare(state, noise)).ravel()
        for ineq in (model.chi13, CHI4):
            mean = analysis.estimate(ineq, analysis.Frequencies(layout, law), rates).value
            assert abs(mean - float(ineq.quantum_value)) <= 1e-12, (state.label, ineq.name)


def _pulls(model, noise, labels, seeds):
    settings = settings_table()
    plan = simulate.build_plan(model, settings, shots=10_000)
    roster = [s for s in simulate.default_state_roster() if s.label in labels]
    truth = float(model.chi13.quantum_value)
    pulls = []
    for seed in seeds:
        for counts in simulate.draw_roster(roster, plan, settings, noise, seed)[2]:
            chi13, _ = _corrected(plan, counts, noise, model)
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


def test_raw_chi4_excess_is_readout_not_contextuality(model, layout):
    """Each admissible noncontextual assignment with v13 = 1 (it obeys the
    sum rule on every triangle and the product rule on every edge), read
    through the paper's rates: raw chi4 is r_d + 3 r_b = 1.053 > 1, yet
    corrected chi4 is 1, chi13 is 25 and every rule residual is 0. A raw chi4
    above its bound is therefore no evidence of contextuality."""
    paper = simulate.NoiseModel()
    corrected = r_d, r_b = simulate.readout_rates(paper)
    raw = simulate.readout_rates(simulate.NoiseModel.ideal())
    rules = [Inequality(f"sum{t}", {(): -1, **{(r,): 1 for r in t}}, 0, Fraction(0))
             for t in sorted(model.triangles)]
    rules += [Inequality(f"product{e}", {e: 1}, 0, Fraction(0))
              for e in sorted(model.edges)]
    admissible = [v for v in (dict(zip(RAYS, bits)) for bits in product((0, 1), repeat=13))
                  if v[13] and all(sum(v[r] for r in t) == 1 for t in model.triangles)
                  and not any(v[i] and v[j] for i, j in model.edges)]
    assert len(admissible) == 3
    for v in admissible:
        # P(read dark) of each ray; the readouts of a pair are independent.
        read = {r: r_d if v[r] else r_b for r in RAYS}
        freqs = analysis.Frequencies(layout, exact_f(
            layout, lambda r: read[r], lambda i, j: read[i] * read[j]))
        chi4_raw = analysis.estimate(CHI4, freqs, raw).value
        assert chi4_raw == pytest.approx(r_d + 3 * r_b, abs=1e-12) and chi4_raw > 1.05
        assert analysis.estimate(CHI4, freqs, corrected).value == pytest.approx(1, abs=1e-12)
        assert analysis.estimate(model.chi13, freqs, corrected).value == pytest.approx(
            25, abs=1e-12)
        for rule in rules:
            assert abs(analysis.estimate(rule, freqs, corrected).value) <= 1e-12, rule.name
