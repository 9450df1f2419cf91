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


def test_settings_rank_nine(settings):
    a = tg.response_matrix(settings)
    assert np.linalg.matrix_rank(a, tol=tg.RANK_TOL) == 9
    assert len(settings) >= 5


def test_base_five_settings_are_rank_deficient():
    base = tg.tomography_settings()[:5]
    assert np.linalg.matrix_rank(tg.response_matrix(base), tol=tg.RANK_TOL) < 9


def test_two_pulse_settings_run_the_channel_2_pulse_first(settings):
    half = np.pi / 2
    for s, phi in zip(settings[5:], (0.0, half)):
        assert s.mapping == {}
        assert np.array_equal(compile_setting(s),
                              r1_matrix(half, phi) @ r2_matrix(half, 0.0))


def test_identity_setting_yields_diagonal(settings):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    probs = exact_probabilities(rho, settings)
    assert np.allclose(probs["T1"], [0.5, 0.3, 0.2])


def test_exact_round_trip_100_states(settings):
    rng = np.random.default_rng(13)
    for _ in range(100):
        rho = random_density_matrix(rng)
        res = tg.reconstruct(exact_probabilities(rho, settings), settings, rho)
        assert linalg.frobenius_distance(res.rho, rho) < ROUND_TRIP_TOL
        assert res.residual < 1e-10


def test_reconstruction_is_always_physical(settings):
    """Even corrupted tables must come back as a valid density matrix."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        tables = {s.id: np.clip(rng.normal(1 / 3, 0.3, 3), 0, 1)
                  for s in settings}
        res = tg.reconstruct(tables, settings)
        linalg.validate_density_matrix(res.rho)


def test_simulated_tomography_trivia(settings):
    rng = np.random.default_rng(19)
    psi3 = simulate.StateSpec.pure("psi3", [0, 0, 1])
    tables = tg.simulate_tomography(psi3, settings,
                                    simulate.NoiseModel.ideal(), 2000, rng)
    assert tables["T1"][2] == 1.0

    mixed = simulate.StateSpec.mixed("rho10", np.eye(3) / 3)
    tables = tg.simulate_tomography(mixed, settings,
                                    simulate.NoiseModel.ideal(), 40_000, rng)
    for sid in tables:
        assert np.allclose(tables[sid], 1 / 3, atol=0.02)


def test_simulated_tomography_half_probability(settings):
    rng = np.random.default_rng(23)
    psi1 = simulate.StateSpec.pure("psi1", [1, 0, 0])
    tables = tg.simulate_tomography(psi1, settings,
                                    simulate.NoiseModel.ideal(), 40_000, rng)
    assert tables["T2"][2] == pytest.approx(0.5, abs=0.02)


def test_statistical_round_trip_ideal(settings):
    """Shot noise alone limits 10k-shot fidelity to ~0.994 typical; the
    reconstruction must stay within that statistical envelope."""
    psi7 = simulate.default_state_roster()[6]
    fids = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        tables = tg.simulate_tomography(psi7, settings,
                                        simulate.NoiseModel.ideal(), 10_000, rng)
        res = tg.reconstruct(tables, settings, psi7.rho)
        fids.append(res.fidelity_to_target)
    assert min(fids) >= 0.985
    assert np.mean(fids) >= 0.99


def test_paper_noise_fidelities(settings):
    noise = simulate.NoiseModel.paper()
    for state in simulate.default_state_roster()[:9]:
        rng = simulate.derive_rng(101, state.label, "tomo")
        tables = tg.simulate_tomography(state, settings, noise, 10_000, rng)
        res = tg.reconstruct(tables, settings, state.rho)
        assert res.fidelity_to_target >= 0.98


def test_reconstruct_rejects_rank_deficient():
    base = tg.tomography_settings()[:5]
    tables = {s.id: np.full(3, 1 / 3) for s in base}
    with pytest.raises(ValueError, match="rank"):
        tg.reconstruct(tables, base)


def test_reconstruct_builds_the_response_once_per_settings_list(settings,
                                                                monkeypatch):
    calls = []
    original = tg.response_matrix

    def counting(settings_list):
        calls.append(len(settings_list))
        return original(settings_list)

    monkeypatch.setattr(tg, "response_matrix", counting)
    tg._checked_response.cache_clear()
    states = simulate.default_state_roster()
    for state in states:
        tg.reconstruct(exact_probabilities(state.rho, settings), settings)
    assert calls == [len(settings)]
    # a setting that keeps its id but starts with one more pulse is a new list
    last = settings[-1]
    turned = [*settings[:-1],
              dataclasses.replace(last, pulses=(Pulse(2, 0.3, 0.0), *last.pulses))]
    for state in states[:3]:
        res = tg.reconstruct(exact_probabilities(state.rho, turned), turned,
                             state.rho)
        assert res.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert calls == [len(settings)] * 2


def test_equal_settings_lists_share_one_subrun_entry():
    """Settings hash by content, so two fresh `tomography_settings()` lists
    read one cached sub-run stack."""
    tg._subrun_dark.cache_clear()
    tg._checked_response.cache_clear()
    first, second = tg.tomography_settings(), tg.tomography_settings()
    assert first == second and first[0] is not second[0]
    rho = np.eye(3, dtype=complex) / 3
    assert np.array_equal(exact_probabilities(rho, first)["T6"],
                          exact_probabilities(rho, second)["T6"])
    info = tg._subrun_dark.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_tomography_run_builds_the_subrun_effects_once_per_rates(settings,
                                                                  monkeypatch):
    """Every state of a run reads one sub-run stack per readout rate pair:
    the noisy rates for the draws, the ideal rates for the response map."""
    built = []
    original = tg.subrun_effects

    def counting(settings_list, rates):
        built.append(rates)
        return original(settings_list, rates)

    monkeypatch.setattr(tg, "subrun_effects", counting)
    tg._subrun_dark.cache_clear()
    tg._checked_response.cache_clear()
    noise = simulate.NoiseModel.paper()
    for state in simulate.default_state_roster():
        rng = simulate.derive_rng(5, state.label, "tomography")
        tables = tg.simulate_tomography(state, settings, noise, 10_000, rng)
        tg.reconstruct(tables, settings, state.rho)
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
    dark = tg.subrun_effects(settings, simulate.readout_rates(noise))["D"]
    p = np.einsum("ij,kji->k", simulate.prepare(state, noise), dark).real
    r_b, vis = confusion.eps_bright_to_dark, confusion.visibility
    b = np.array([min(max((int(rng.binomial(shots, pk)) / shots - r_b) / vis,
                          0.0), 1.0)
                  for pk in np.clip(p, 0.0, 1.0)])
    a = tg.response_matrix(settings)
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
    the stacked pass equals, bit for bit, each state's one-state calls and
    the per-state reference."""
    roster = simulate.default_state_roster()
    stacked = tg.run_tomography(roster, settings, noise, shots, 7)
    assert len(stacked) == len(roster)
    for state, res in zip(roster, stacked):
        def rng():
            return simulate.derive_rng(7, state.label, "tomography")
        alone = tg.reconstruct(tg.simulate_tomography(state, settings, noise,
                                                      shots, rng()),
                               settings, state.rho)
        reference = _reference_tomography(state, settings, noise, shots, rng())
        assert _bits(res) == _bits(alone) == _bits(reference), state.label


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
    effs = tg.subrun_effects(settings, simulate.readout_rates(noise))
    assert list(effs) == ["D", "B"]
    assert effs["D"].shape == (3 * len(settings), 3, 3)
    assert np.allclose(sum(effs.values()), np.eye(3), rtol=0, atol=1e-12)
    for e in effs.values():
        assert np.linalg.eigvalsh(e).min() >= -1e-12


def test_ideal_subrun_k_projects_onto_rotated_basis_state(settings):
    dark = tg.subrun_effects(settings, tg.IDEAL_RATES)["D"]
    for i, s in enumerate(settings):
        for k, row in enumerate(compile_setting(s)):
            assert np.allclose(dark[3 * i + k], np.outer(row.conj(), row),
                               atol=1e-12)
