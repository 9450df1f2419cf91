import dataclasses

import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate, tomography as tg
from qutrit_ks.pulses import Pulse, compile_setting, r1_matrix, r2_matrix

from helpers import exact_probabilities, random_density_matrix

ROUND_TRIP_TOL = 1e-9  # reconstruction error of exact probabilities


@pytest.fixture(scope="module")
def settings():
    return tg.tomography_settings()


def _subrun_effects(settings, rates):
    """Both effects of every sub-run, three per setting; sub-run k swaps
    basis state k+1 onto |3>, the step rule of the simulated singles."""
    steps = np.array([simulate.SWAP[slot] @ compile_setting(s)
                      for s in settings for slot in (1, 2, 3)])
    return simulate.effects([steps], rates)


def _response(settings):
    """Map from the 9 Hermitian parameters to ideal dark probabilities."""
    dark = _subrun_effects(settings, tg.IDEAL_RATES)["D"]
    return np.einsum("gij,kji->kg", tg._BASIS9, dark).real


def test_settings_rank_nine(settings):
    a = tg._checked_response(tuple(settings))
    assert np.array_equal(a, _response(settings))
    assert np.linalg.matrix_rank(a, tol=tg.RANK_TOL) == 9
    assert len(settings) >= 5


def test_base_five_settings_are_rank_deficient():
    base = tg.tomography_settings()[:5]
    assert np.linalg.matrix_rank(_response(base), tol=tg.RANK_TOL) < 9


def test_two_pulse_settings_run_the_channel_2_pulse_first(settings):
    half = np.pi / 2
    for s, phi in zip(settings[5:], (0.0, half)):
        assert s.mapping == {}
        assert np.array_equal(compile_setting(s),
                              r1_matrix(half, phi) @ r2_matrix(half, 0.0))


def test_identity_setting_yields_diagonal(settings):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    probs = exact_probabilities(rho, settings)
    assert np.allclose(probs[:3], [0.5, 0.3, 0.2])


def test_exact_round_trip_100_states(settings):
    rng = np.random.default_rng(13)
    rhos = [random_density_matrix(rng) for _ in range(100)]
    b = np.array([exact_probabilities(rho, settings) for rho in rhos])
    for rho, res in zip(rhos, tg._reconstruct(b, settings, rhos)):
        assert linalg.frobenius_distance(res.rho, rho) < ROUND_TRIP_TOL
        assert res.residual < 1e-10


def test_reconstruction_is_always_physical(settings):
    """Even corrupted tables must come back as a valid density matrix."""
    rng = np.random.default_rng(17)
    b = np.array([np.concatenate([np.clip(rng.normal(1 / 3, 0.3, 3), 0, 1)
                                  for _ in settings]) for _ in range(20)])
    for res in tg._reconstruct(b, settings, [linalg.IDENTITY / 3] * len(b)):
        linalg.validate_density_matrix(res.rho)


def test_simulated_tomography_trivia(settings):
    rng = np.random.default_rng(19)
    ideal = simulate.NoiseModel.ideal()
    psi3 = simulate.StateSpec.pure("psi3", [0, 0, 1])
    [row] = tg._frequencies([psi3], settings, ideal, 2000, [rng])
    assert row[2] == 1.0  # T1, sub-run 3

    mixed = simulate.StateSpec.mixed("rho10", np.eye(3) / 3)
    [row] = tg._frequencies([mixed], settings, ideal, 40_000, [rng])
    assert np.allclose(row, 1 / 3, atol=0.02)


def test_simulated_tomography_half_probability(settings):
    rng = np.random.default_rng(23)
    psi1 = simulate.StateSpec.pure("psi1", [1, 0, 0])
    [row] = tg._frequencies([psi1], settings, simulate.NoiseModel.ideal(),
                            40_000, [rng])
    assert row[5] == pytest.approx(0.5, abs=0.02)  # T2, sub-run 3


def test_statistical_round_trip_ideal(settings):
    """Shot noise alone limits 10k-shot fidelity to ~0.994 typical; the
    reconstruction must stay within that statistical envelope."""
    psi7 = simulate.default_state_roster()[6]
    rngs = [np.random.default_rng(seed) for seed in range(5)]
    b = tg._frequencies([psi7] * 5, settings, simulate.NoiseModel.ideal(),
                        10_000, rngs)
    fids = [res.fidelity_to_target
            for res in tg._reconstruct(b, settings, [psi7.rho] * 5)]
    assert min(fids) >= 0.985
    assert np.mean(fids) >= 0.99


def test_paper_noise_fidelities(settings):
    states = simulate.default_state_roster()[:9]
    rngs = [simulate.derive_rng(101, state.label, "tomo") for state in states]
    b = tg._frequencies(states, settings, simulate.NoiseModel.paper(), 10_000, rngs)
    for res in tg._reconstruct(b, settings, [state.rho for state in states]):
        assert res.fidelity_to_target >= 0.98


def test_reconstruct_rejects_rank_deficient():
    base = tg.tomography_settings()[:5]
    with pytest.raises(ValueError, match="rank"):
        tg._reconstruct(np.full((1, 3 * len(base)), 1 / 3), base,
                        [linalg.IDENTITY / 3])


def test_reconstruct_builds_the_response_once_per_settings_list(settings):
    tg._checked_response.cache_clear()
    states = simulate.default_state_roster()
    for state in states:
        tg._reconstruct(exact_probabilities(state.rho, settings)[None], settings,
                        [state.rho])
    assert tg._checked_response.cache_info().misses == 1
    # a setting that keeps its id but starts with one more pulse is a new list
    last = settings[-1]
    turned = [*settings[:-1],
              dataclasses.replace(last, pulses=(Pulse(2, 0.3, 0.0), *last.pulses))]
    for state in states[:3]:
        [res] = tg._reconstruct(exact_probabilities(state.rho, turned)[None],
                                turned, [state.rho])
        assert res.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert tg._checked_response.cache_info().misses == 2


def test_equal_settings_lists_share_one_subrun_entry():
    """Settings hash by content, so two fresh `tomography_settings()` lists
    read one cached sub-run stack."""
    tg._subrun_dark.cache_clear()
    tg._checked_response.cache_clear()
    first, second = tg.tomography_settings(), tg.tomography_settings()
    assert first == second and first[0] is not second[0]
    rho = np.eye(3, dtype=complex) / 3
    assert np.array_equal(exact_probabilities(rho, first),
                          exact_probabilities(rho, second))
    info = tg._subrun_dark.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_tomography_run_builds_the_subrun_effects_once_per_rates(settings,
                                                                  monkeypatch):
    """Every state of a run reads one sub-run stack per readout rate pair:
    the noisy rates for the draws, the ideal rates for the response map."""
    built = []
    original = tg.effects

    def counting(steps, rates):
        built.append(rates)
        return original(steps, rates)

    monkeypatch.setattr(tg, "effects", counting)
    tg._subrun_dark.cache_clear()
    tg._checked_response.cache_clear()
    noise = simulate.NoiseModel.paper()
    for state in simulate.default_state_roster():
        tg.run_tomography([state], settings, noise, 10_000, 5)
        exact_probabilities(state.rho, settings)
    assert built == [simulate.readout_rates(noise), tg.IDEAL_RATES]


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


def _reference_tomography(state, settings, noise, shots, rng):
    """One state at a time, one scalar binomial draw and one clipped
    correction per sub-run: the tomography the stacked pass replaced, step
    for step."""
    confusion = analysis.confusion_for(noise)
    dark = _subrun_effects(settings, simulate.readout_rates(noise))["D"]
    p = np.einsum("ij,kji->k", simulate.prepare(state, noise), dark).real
    r_b, vis = confusion.eps_bright_to_dark, confusion.visibility
    b = np.array([min(max((int(rng.binomial(shots, pk)) / shots - r_b) / vis,
                          0.0), 1.0)
                  for pk in np.clip(p, 0.0, 1.0)])
    a = _response(settings)
    x = np.linalg.lstsq(np.vstack([a, tg.TRACE_ROW]), np.append(b, 1.0),
                        rcond=None)[0]
    rho = sum(c * g for c, g in zip(x, tg._BASIS9))
    w, u = _descending_eigh(rho)
    projected = bool(w.min() < 0.0)
    w = np.clip(w, 0.0, None)
    rho = (u * (w / w.sum())) @ linalg.adjoint(u)
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
        reference = _reference_tomography(
            state, settings, noise, shots,
            simulate.derive_rng(7, state.label, "tomography"))
        assert _bits(res) == _bits(alone) == _bits(reference), state.label


def test_run_tomography_refuses_a_repeated_label(settings):
    """Two states under one label would share one stream, so a run refuses
    the roster and names the label."""
    psi1, psi4 = (simulate.default_state_roster()[i] for i in (0, 3))
    with pytest.raises(ValueError, match="repeated state label: psi1"):
        tg.run_tomography([psi1, simulate.StateSpec("psi1", psi4.rho)], settings,
                          simulate.NoiseModel.paper(), 100, 7)


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
    assert np.array_equal(effs["D"], tg._subrun_dark(tuple(settings), rates))
    assert list(effs) == ["D", "B"]
    assert effs["D"].shape == (3 * len(settings), 3, 3)
    assert np.allclose(sum(effs.values()), np.eye(3), rtol=0, atol=1e-12)
    for e in effs.values():
        assert np.linalg.eigvalsh(e).min() >= -1e-12


def test_ideal_subrun_k_projects_onto_rotated_basis_state(settings):
    dark = tg._subrun_dark(tuple(settings), tg.IDEAL_RATES)
    for i, s in enumerate(settings):
        for k, row in enumerate(compile_setting(s)):
            assert np.allclose(dark[3 * i + k], np.outer(row.conj(), row),
                               atol=1e-12)
