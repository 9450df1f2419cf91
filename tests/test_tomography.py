import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from qutrit_ks import cli, linalg, simulate, tomography as tg
from qutrit_ks.model import build_model
from qutrit_ks.pulses import Pulse, compile_setting, pulse_matrix

from helpers import (IDEAL_RATES, derive_rng, effect_stack, exact_probabilities,
                     random_density_matrix, stream_name, subrun_plan_effects)

ROUND_TRIP_TOL = 1e-9  # reconstruction error of exact probabilities


@pytest.fixture(scope="module")
def settings():
    return tg.tomography_settings()


def _subrun_effects(settings, rates):
    """Both effects of every sub-run, three per setting, each built on its
    own: sub-run k swaps basis state k onto |3>, so it detects the lab-frame
    projector V† |3><3| V of V = swap k after the setting, the rule of the
    simulated singles."""
    steps = [simulate.SWAP[slot] @ compile_setting(s) for s in settings for slot in (1, 2, 3)]
    effs = [simulate.effects([linalg.adjoint(v) @ simulate.DARK @ v], rates) for v in steps]
    return {symbol: np.array([e[symbol] for e in effs]) for symbol in ("D", "B")}


def _drawn_effects(settings, rates):
    """The effects every sub-run is drawn from, pad, D and B of each in turn."""
    return effect_stack(subrun_plan_effects(settings, rates))


def _response(settings, rates=IDEAL_RATES):
    """Map from the 8 traceless parameters to the dark probabilities under
    `rates`, and its offset column, the dark probabilities of |3><3|. Each
    entry is a sum of two matrix elements, so it has the same bits in any
    summation order; the map is C-contiguous, as the solved one, so a
    product with it takes the same path."""
    dark = _subrun_effects(settings, rates)["D"]
    a = np.einsum("gij,kji->kg", tg._BASIS8, dark).real
    return np.ascontiguousarray(a), dark[:, 2, 2].real


def test_traceless_basis_spans_the_unit_trace_states():
    """|3><3| plus the span of the eight generators is every unit-trace
    Hermitian matrix: the generators are traceless, Hermitian and
    independent, so the trace is fixed exactly and nothing else is."""
    assert np.array_equal(np.trace(tg._BASIS8, axis1=1, axis2=2), np.zeros(8))
    assert np.array_equal(tg._BASIS8, linalg.adjoint(tg._BASIS8))
    flat = tg._BASIS8.reshape(8, 9)
    assert np.linalg.matrix_rank(np.hstack([flat.real, flat.imag])) == 8


# The last pair has visibility 1e-10, which scales the map by 1e-10: the
# rank check is relative to that scale, where an absolute 1e-9 finds rank 0.
READOUT_RATES = [simulate.readout_rates(noise) for noise in (
    simulate.NoiseModel.ideal(), simulate.NoiseModel.paper(),
    simulate.NoiseModel(mode="photon-count"),
    simulate.NoiseModel(eps_dark_to_bright=0.2, eps_bright_to_dark=0.3),
    simulate.NoiseModel(eps_dark_to_bright=0.5, eps_bright_to_dark=0.4999999999))]


def test_settings_rank_eight(settings):
    """The solved map is rank 8 and is read off the very effects the
    sub-runs are drawn from, which equal those built sub-run by sub-run."""
    for rates in READOUT_RATES:
        drawn = _drawn_effects(settings, rates)
        assert np.array_equal(drawn[1::3], _subrun_effects(settings, rates)["D"])
        a, offset, _ = tg._checked_response(subrun_plan_effects(settings, rates))
        expected_a, expected_offset = _response(settings, rates)
        assert np.array_equal(a, expected_a)
        assert np.array_equal(offset, expected_offset)
        assert np.linalg.matrix_rank(a) == 8
    assert len(settings) >= 5


def test_base_five_settings_are_rank_deficient():
    base = tuple(tg.tomography_settings()[:5])
    for rates in READOUT_RATES:
        assert np.linalg.matrix_rank(_response(base, rates)[0]) < 8
        with pytest.raises(ValueError, match="rank-deficient"):
            tg._checked_response(subrun_plan_effects(base, rates))


def test_two_pulse_settings_run_the_channel_2_pulse_first(settings):
    half = np.pi / 2
    for s, phi in zip(settings[5:], (0.0, half)):
        assert s.mapping == {}
        assert np.array_equal(compile_setting(s),
                              pulse_matrix(Pulse(1, half, phi))
                              @ pulse_matrix(Pulse(2, half, 0.0)))


def test_identity_setting_yields_diagonal(settings):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    probs = exact_probabilities(rho, settings)
    assert np.allclose(probs[:3], [0.5, 0.3, 0.2])


def test_exact_round_trip_100_states(settings):
    rng = np.random.default_rng(13)
    rhos = [random_density_matrix(rng) for _ in range(100)]
    b = np.array([exact_probabilities(rho, settings) for rho in rhos])
    for rho, res in zip(rhos, tg._reconstruct(b, subrun_plan_effects(settings), rhos)):
        assert linalg.frobenius_distance(res.rho, rho) < ROUND_TRIP_TOL
        assert res.residual < 1e-10


def test_reconstruction_is_always_physical(settings):
    """Even corrupted tables must come back as a valid density matrix."""
    rng = np.random.default_rng(17)
    b = np.array([np.concatenate([np.clip(rng.normal(1 / 3, 0.3, 3), 0, 1)
                                  for _ in settings]) for _ in range(20)])
    for rates in (IDEAL_RATES, simulate.readout_rates(simulate.NoiseModel.paper())):
        for res in tg._reconstruct(b, subrun_plan_effects(settings, rates),
                                   [linalg.IDENTITY / 3] * len(b)):
            linalg.validate_density_matrix(res.rho)


def _parameters(h):
    """The eight real coefficients x of a unit-trace Hermitian h = |3><3| +
    sum_k x_k G_k."""
    flat = tg._BASIS8.reshape(8, 9)
    lhs = np.hstack([flat.real, flat.imag]).T
    rest = h - simulate.DARK
    rhs = np.concatenate([rest.real.ravel(), rest.imag.ravel()])
    return np.linalg.lstsq(lhs, rhs, rcond=None)[0]


def _random_pure(rng):
    return linalg.projector_from_ray(rng.normal(size=3) + 1j * rng.normal(size=3))


@pytest.mark.parametrize("noise", [simulate.NoiseModel.ideal(),
                                   simulate.NoiseModel.paper()], ids=["ideal", "paper"])
def test_reconstruction_is_the_nearest_state(settings, noise):
    """Frequencies that the map sends exactly to a unit-trace Hermitian H come
    back as the density matrix nearest to H: for every state sigma,
    Re Tr[(rho - H)(sigma - rho)] >= 0, the condition for the Frobenius
    projection onto a convex set. sigma runs over H's eigenprojectors and
    200 random pure and mixed states; a physical H comes back unchanged."""
    rng = np.random.default_rng(29)
    rates = simulate.readout_rates(noise)
    effs = subrun_plan_effects(settings, rates)
    a, offset, _ = tg._checked_response(effs)
    sigmas = [f(rng) for _ in range(100) for f in (_random_pure, random_density_matrix)]
    unphysical = []
    while len(unphysical) < 20:
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = random_density_matrix(rng) + 0.2 * (g + linalg.adjoint(g))
        h -= (np.trace(h).real - 1.0) / 3 * np.eye(3)
        if np.linalg.eigvalsh(h).min() < -1e-3:
            unphysical.append(h)
    physical = [random_density_matrix(rng) for _ in range(5)] + [_random_pure(rng)]
    hs = unphysical + physical
    q = np.array([offset + a @ _parameters(h) for h in hs])
    results = tg._reconstruct(q, effs, [linalg.IDENTITY / 3] * len(hs))
    for h, res in zip(unphysical, results):
        assert res.projected
        linalg.validate_density_matrix(res.rho)
        _, vecs = np.linalg.eigh(h)
        eigenprojectors = [np.outer(v, v.conj()) for v in vecs.T]
        for sigma in eigenprojectors + sigmas:
            assert np.trace((res.rho - h) @ (sigma - res.rho)).real >= -1e-12
    for h, res in zip(physical, results[len(unphysical):]):
        assert linalg.frobenius_distance(res.rho, h) < 1e-12


def _dark_frequencies(state, settings, shots, seed):
    """Raw dark frequency of every sub-run of one ideal-noise run."""
    [counts] = simulate.draw_roster([state], tg._subruns(settings, shots), settings,
                                    simulate.NoiseModel.ideal(), seed)[2]
    return [d / shots for d in counts[:, 1].tolist()]  # each sub-run's D


def test_simulated_tomography_trivia(settings):
    psi3 = simulate.StateSpec.pure("psi3", [0, 0, 1])
    assert _dark_frequencies(psi3, settings, 2000, 19)[2] == 1.0  # T1, sub-run 3

    mixed = simulate.StateSpec.mixed("rho10", np.eye(3) / 3)
    assert np.allclose(_dark_frequencies(mixed, settings, 40_000, 19), 1 / 3, atol=0.02)


def test_simulated_tomography_half_probability(settings):
    psi1 = simulate.StateSpec.pure("psi1", [1, 0, 0])
    row = _dark_frequencies(psi1, settings, 40_000, 23)
    assert row[5] == pytest.approx(0.5, abs=0.02)  # T2, sub-run 3


def test_statistical_round_trip_ideal(settings):
    """Shot noise alone limits 10k-shot fidelity to ~0.994 typical; the
    reconstruction must stay within that statistical envelope."""
    psi7 = simulate.default_state_roster()[6]
    fids = [res.fidelity_to_target for seed in range(5) for res in tg.run_tomography(
        [psi7], settings, simulate.NoiseModel.ideal(), 10_000, seed)]
    assert min(fids) >= 0.985
    assert np.mean(fids) >= 0.99


def test_paper_noise_fidelities(settings):
    states = simulate.default_state_roster()[:9]
    for res in tg.run_tomography(states, settings, simulate.NoiseModel.paper(),
                                 10_000, 101):
        assert res.fidelity_to_target >= 0.98


def test_reconstruct_rejects_rank_deficient():
    base = tg.tomography_settings()[:5]
    with pytest.raises(ValueError, match="rank"):
        tg._reconstruct(np.full((1, 3 * len(base)), 1 / 3), subrun_plan_effects(base),
                        [linalg.IDENTITY / 3])


def test_reconstruct_follows_the_settings_content(settings):
    """A setting that keeps its id but starts with one more pulse makes a new
    settings list, whose exact probabilities reconstruct each state with
    fidelity 1 against that list's own map."""
    states = simulate.default_state_roster()
    last = settings[-1]
    turned = [*settings[:-1],
              dataclasses.replace(last, pulses=(Pulse(2, 0.3, 0.0), *last.pulses))]
    for state in states[:3]:
        [res] = tg._reconstruct(exact_probabilities(state.rho, turned)[None],
                                subrun_plan_effects(turned), [state.rho])
        assert res.fidelity_to_target == pytest.approx(1.0, abs=1e-9)


def test_equal_settings_lists_share_one_subrun_entry():
    """Settings hash by content, so two fresh `tomography_settings()` lists
    read one cached sub-run stack, to draw and to solve."""
    simulate._plan_effects.cache_clear()
    first, second = tg.tomography_settings(), tg.tomography_settings()
    assert first == second and first[0] is not second[0]
    rho = np.eye(3, dtype=complex) / 3
    assert np.array_equal(exact_probabilities(rho, first),
                          exact_probabilities(rho, second))
    tg._checked_response(subrun_plan_effects(first))
    tg._checked_response(subrun_plan_effects(second))
    info = simulate._plan_effects.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_tomography_run_builds_the_subrun_effects_once_per_rates(settings,
                                                                  monkeypatch):
    """Every state of a run reads one sub-run stack, under the run's readout
    rates, both to draw and to solve: a run builds each of the 21 sub-run
    effects once, not twice, and looks its planes up once."""
    built = []
    original = simulate.effects

    def counting(steps, rates):
        built.append(rates)
        return original(steps, rates)

    looked_up, solved = [], []
    lookup, solve = simulate.plan_effects, tg._reconstruct

    def recording_lookup(*args):
        looked_up.append(lookup(*args))
        return looked_up[-1]

    def recording_solve(q, effs, targets):
        solved.append(effs)
        return solve(q, effs, targets)

    monkeypatch.setattr(simulate, "effects", counting)
    monkeypatch.setattr(simulate, "plan_effects", recording_lookup)
    monkeypatch.setattr(tg, "_reconstruct", recording_solve)
    simulate._plan_effects.cache_clear()
    noise = simulate.NoiseModel.paper()
    for state in simulate.default_state_roster():
        tg.run_tomography([state], settings, noise, 10_000, 5)
    assert built == [simulate.readout_rates(noise)] * 21
    # one lookup per run, whose planes both the draw and the solve read
    assert len(looked_up) == len(solved) == 12
    assert all(a is b for a, b in zip(looked_up, solved))


STACK_NOISES = {
    "ideal": simulate.NoiseModel.ideal(),
    "paper": simulate.NoiseModel.paper(),
    "photon-count": simulate.NoiseModel(mode="photon-count"),
    "flip-harsh": simulate.NoiseModel(eps_dark_to_bright=0.2, eps_bright_to_dark=0.3,
                                      prep_depolarization=0.1),
}


def _descending_eigh(m):
    w, u = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return w[order], u[:, order]


def _reference_fidelity(rho, target):
    def psd_sqrt(m):
        w, u = _descending_eigh(m)
        w = np.where(w > 1e-12 * max(float(w[0]), 1e-300), w, 0.0)
        return (u * np.sqrt(w)) @ linalg.adjoint(u)
    sv = np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(target), compute_uv=False)
    return min(max(float(np.sum(sv) ** 2), 0.0), 1.0)


def _law(rho, effect):
    """Tr(rho E) as a plan's law reads it: sum_ij Re(rho_ij) Re(E_ij) +
    Im(rho_ij) Im(E_ij), the nine terms added in order, clipped to [0, 1]."""
    terms = [r.real * e.real + r.imag * e.imag
             for r, e in zip(rho.ravel().tolist(), effect.ravel().tolist())]
    return min(max(functools.reduce(operator.add, terms), 0.0), 1.0)


def _reference_tomography(state, settings, noise, shots, seed):
    """One state and one sub-run at a time: scalar binomial draws, in plan
    order, on the state's keyed stream for the plan, raw frequencies, least
    squares for the eight traceless parameters against the run-rate map less
    its offset through the map's SVD, x = V diag(1/s) U^T b, then the
    Smolin-Gambetta-Smith loop on the spectrum, rescaled to unit sum."""
    rates = simulate.readout_rates(noise)
    rho0 = simulate.prepare(state, noise)
    subruns = tg._subruns(settings, shots)
    rng = derive_rng(stream_name(seed, state.label, subruns))
    q = np.array([int(rng.binomial(shots, _law(rho0, dark))) / shots
                  for dark in _subrun_effects(settings, rates)["D"]])
    a, offset = _response(settings, rates)
    b = q - offset
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    x = ((vt.T / s) @ u.T) @ b
    rho = simulate.DARK + sum(c * g for c, g in zip(x, tg._BASIS8))
    w, u = _descending_eigh(rho)
    projected = bool(w.min() < 0.0)
    lam, n, acc = [float(v) for v in w], 3, 0.0
    while lam[n - 1] + acc / n < 0.0:
        acc += lam[n - 1]
        lam[n - 1] = 0.0
        n -= 1
    lam[:n] = [v + acc / n for v in lam[:n]]
    total = math.fsum(lam[:n])
    lam[:n] = [v / total for v in lam[:n]]
    rho = (u * np.array(lam)) @ linalg.adjoint(u)
    rho = (rho + linalg.adjoint(rho)) / 2
    return tg.ReconstructionResult(rho, _reference_fidelity(rho, state.rho),
                                   float(np.linalg.norm(a @ x - b)), projected)


def _bits(res):
    return (res.rho.tobytes(), repr(res.fidelity_to_target), repr(res.residual),
            res.projected)


@pytest.mark.parametrize("shots", [100, 10_000, 1_000_000])
@pytest.mark.parametrize("noise", STACK_NOISES.values(), ids=STACK_NOISES.keys())
def test_run_tomography_equals_one_state_calls(settings, noise, shots):
    """A state's reconstruction does not depend on the rest of the roster:
    the stacked pass equals, bit for bit, each state's one-state roster and
    the per-state reference."""
    roster = simulate.default_state_roster()
    stacked = tg.run_tomography(roster, settings, noise, shots, 7)
    assert len(stacked) == len(roster)
    for state, res in zip(roster, stacked):
        [alone] = tg.run_tomography([state], settings, noise, shots, 7)
        reference = _reference_tomography(state, settings, noise, shots, 7)
        assert _bits(res) == _bits(alone) == _bits(reference), state.label


# The stack noises and a readout of visibility 1e-10, which scales the
# least-squares solution, and so every entry of the estimate, by 1e10.
HERMITIAN_NOISES = {**STACK_NOISES, "visibility-1e-10": simulate.NoiseModel(
    eps_dark_to_bright=0.5, eps_bright_to_dark=0.4999999999)}


@pytest.mark.parametrize("noise", HERMITIAN_NOISES.values(), ids=HERMITIAN_NOISES.keys())
def test_svd_solve_agrees_with_lstsq(settings, noise):
    """The map's one SVD solves each state as `np.linalg.lstsq` does, to
    1e-13 relative to the largest parameter (2.7e-15 measured), at every
    readout, the visibility of 1e-10 included; only the last bits move."""
    effs = subrun_plan_effects(settings, simulate.readout_rates(noise))
    a, offset, pinv = tg._checked_response(effs)
    rng = np.random.default_rng(31)
    for row in rng.random((50, len(offset))) - offset:
        expected = np.linalg.lstsq(a, row, rcond=None)[0]
        assert np.abs(pinv @ row - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("shots", [1, 10_000, 1_000_000])
@pytest.mark.parametrize("noise", HERMITIAN_NOISES.values(), ids=HERMITIAN_NOISES.keys())
def test_reconstruction_decomposes_an_exactly_hermitian_stack(settings, noise, shots,
                                                              monkeypatch):
    """`hermitian_eig` assumes, and does not test, a Hermitian input. The
    estimate that `_reconstruct` hands it, rho = |3><3| + sum_k x_k G_k with
    real x_k and Hermitian G_k summed in one order, is Hermitian bit for bit:
    each entry equals the conjugate of its mirror (signed zeros compare
    equal), so it needs no test of its own."""
    roster = simulate.default_state_roster()  # built and validated before the capture
    inputs = []
    original = linalg.hermitian_eig

    def capturing(m):
        inputs.append(np.array(m))
        return original(m)

    monkeypatch.setattr(linalg, "hermitian_eig", capturing)
    tg.run_tomography(roster, settings, noise, shots, 7)
    estimate = inputs[0]  # then the two stacks `fidelities` decomposes
    assert len(inputs) == 3 and estimate.shape == (len(roster), 3, 3)
    assert (estimate == linalg.adjoint(estimate)).all()


def test_each_stack_is_tested_for_hermiticity_once(settings, monkeypatch):
    """`_checked_eig` is the package's one Hermiticity test: on a warm
    roster, a `fidelities` call tests its state stack and its target stack
    once each, and a tomography run tests only those two."""
    roster = simulate.default_state_roster()
    noise = simulate.NoiseModel.paper()
    results = tg.run_tomography(roster, settings, noise, 10_000, 7)  # warm
    tested = []
    original = linalg.is_hermitian

    def counting(m):
        tested.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(linalg, "is_hermitian", counting)
    linalg.fidelities([r.rho for r in results], [s.rho for s in roster])
    assert tested == [(len(roster), 3, 3)] * 2
    tested.clear()
    tg.run_tomography(roster, settings, noise, 10_000, 7)
    assert tested == [(len(roster), 3, 3)] * 2


def test_run_tomography_refuses_a_repeated_label(settings):
    """Two states under one label would share their streams, so the run's
    `simulate.draw_roster` refuses the roster and names the label."""
    psi1, psi4 = (simulate.default_state_roster()[i] for i in (0, 3))
    with pytest.raises(ValueError, match="repeated state label: psi1"):
        tg.run_tomography([psi1, simulate.StateSpec("psi1", psi4.rho)], settings,
                          simulate.NoiseModel.paper(), 100, 7)


def test_run_tomography_refuses_a_shot_count_numpy_cannot_draw(settings):
    roster = simulate.default_state_roster()[:1]
    with pytest.raises(ValueError, match=f"draws at most {simulate.MAX_SHOTS} shots"):
        tg.run_tomography(roster, settings, simulate.NoiseModel.paper(), 2 ** 63, 7)


@pytest.mark.parametrize("shots", [2 ** 53 + 1, 2 ** 63 - 1])
def test_dark_frequencies_divide_as_python_past_2_53(settings, shots, monkeypatch):
    """The dark frequencies a run solves are Python's correctly rounded
    count / shots past 2^53 too. numpy's int64 division rounds both to
    floats first: at 2^53 + 1 shots, which round to 2^53, it misses some of
    these; at 2^63 - 1, which round to a power of two, it misses only where
    a count's own rounding does, which none of these 252 happens to."""
    roster = simulate.default_state_roster()
    noise = simulate.NoiseModel.paper()
    _, _, stack = simulate.draw_roster(roster, tg._subruns(settings, shots), settings,
                                       noise, 3)
    dark = [counts[:, 1].tolist() for counts in stack]
    solved = []
    monkeypatch.setattr(tg, "_reconstruct", lambda q, effs, targets: solved.append(q.tolist()))
    tg.run_tomography(roster, settings, noise, shots, 3)
    assert solved == [[[n / shots for n in row] for row in dark]]
    if shots == 2 ** 53 + 1:
        assert solved[0] != (np.array(dark) / shots).tolist()


def test_format_density_matrix():
    text = tg.format_density_matrix(np.eye(3, dtype=complex) / 3)
    assert len(text.strip().splitlines()) == 3
    assert "0.333333333333" in text


@pytest.mark.parametrize("noise", [
    simulate.NoiseModel.ideal(), simulate.NoiseModel.paper(),
    simulate.NoiseModel(mode="photon-count"),
    simulate.NoiseModel(mode="photon-count", lambda_dark=0.1,
                        lambda_bright=4.0, threshold=2),
    simulate.NoiseModel(eps_dark_to_bright=0.2, eps_bright_to_dark=0.3,
                        prep_depolarization=0.1),
], ids=["ideal", "paper", "photon-count", "photon-count-2", "flip-depolarized"])
def test_subrun_effects_form_a_povm(settings, noise):
    rates = simulate.readout_rates(noise)
    effs = _subrun_effects(settings, rates)
    drawn = _drawn_effects(settings, rates)
    assert not drawn[::3].any()  # each sub-run's leading pad
    assert np.array_equal(effs["D"], drawn[1::3])
    assert np.array_equal(effs["B"], drawn[2::3])
    assert list(effs) == ["D", "B"]
    assert effs["D"].shape == (3 * len(settings), 3, 3)
    assert np.allclose(sum(effs.values()), np.eye(3), rtol=0, atol=1e-12)
    for e in effs.values():
        assert np.linalg.eigvalsh(e).min() >= -1e-12


def test_ideal_subrun_k_projects_onto_rotated_basis_state(settings):
    dark = _drawn_effects(settings, IDEAL_RATES)[1::3]
    for i, s in enumerate(settings):
        for k, row in enumerate(compile_setting(s)):
            assert np.allclose(dark[3 * i + k], np.outer(row.conj(), row),
                               atol=1e-12)


def test_tomography_streams_never_share_a_key_with_ks_streams(monkeypatch):
    """`simulate --tomography` draws each state twice, for the Kochen-Specker
    plan and for the tomography sub-runs, each on the one stream its seed,
    label and plan name: the 12 states' 24 draws use 24 distinct names."""
    names = []
    original = simulate.draw

    def recording(laws, shots, stream_names):
        names.extend(stream_names)
        return original(laws, shots, stream_names)

    monkeypatch.setattr(simulate, "draw", recording)
    cli.run_simulation(cli.RunConfig(shots=100, with_tomography=True), build_model())
    assert len(names) == len(set(names)) == 24
