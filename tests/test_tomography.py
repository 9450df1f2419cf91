import numpy as np
import pytest

from qutrit_ks import linalg, simulate, tomography as tg
from qutrit_ks.pulses import r2_matrix


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


def test_identity_setting_yields_diagonal(settings):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    probs = tg.exact_probabilities(rho, settings)
    assert np.allclose(probs["T1"], [0.5, 0.3, 0.2])


def test_exact_round_trip_100_states(settings):
    rng = np.random.default_rng(13)
    for _ in range(100):
        rho = linalg.random_density_matrix(rng)
        res = tg.reconstruct(tg.exact_probabilities(rho, settings), settings, rho)
        assert linalg.frobenius_distance(res.rho, rho) < tg.ROUND_TRIP_TOL
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
        tg.reconstruct(tg.exact_probabilities(state.rho, settings), settings)
    assert calls == [len(settings)]
    # a setting that keeps its id but turns its unitary is a new list
    turned = [*settings[:-1], tg.TomographySetting(
        settings[-1].id, settings[-1].unitary @ r2_matrix(0.3, 0.0))]
    for state in states[:3]:
        res = tg.reconstruct(tg.exact_probabilities(state.rho, turned), turned,
                             state.rho)
        assert res.fidelity_to_target == pytest.approx(1.0, abs=1e-9)
    assert calls == [len(settings)] * 2


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
        tg.exact_probabilities(state.rho, settings)
    assert built == [simulate.readout_rates(noise), tg.IDEAL_RATES]


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
        for k, row in enumerate(s.unitary):
            assert np.allclose(dark[3 * i + k], np.outer(row.conj(), row),
                               atol=1e-12)
