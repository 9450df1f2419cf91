import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate
from qutrit_ks.model import build_model, ray_unit
from qutrit_ks.pulses import compile_setting, pulse_matrix, settings_table, swap_pulse


@pytest.fixture(scope="module")
def model():
    return build_model()


@pytest.fixture(scope="module")
def settings():
    return settings_table()


@pytest.fixture(scope="module")
def by_id(settings):
    return {s.id: s for s in settings}


def test_default_roster(model):
    roster = simulate.default_state_roster()
    assert [s.label for s in roster] == [
        "psi1", "psi2", "psi3", "psi4", "psi5", "psi6",
        "psi7", "psi8", "psi9", "rho10", "rho11", "rho12"]
    by_label = {s.label: s for s in roster}
    assert np.allclose(by_label["psi1"].rho, np.diag([1, 0, 0]))
    assert np.allclose(by_label["psi4"].rho, np.full((3, 3), 1 / 3), atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(by_label["rho10"].rho), [1 / 3] * 3)
    for s in roster:
        linalg.validate_density_matrix(s.rho)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        simulate.NoiseModel(mode="nope")
    with pytest.raises(ValueError):
        simulate.NoiseModel(eps_dark_to_bright=1.5)
    with pytest.raises(ValueError):
        simulate.NoiseModel(threshold=0)
    paper = simulate.NoiseModel.paper()
    assert paper.eps_dark_to_bright == 0.010
    assert paper.eps_bright_to_dark == 0.021


def test_build_plan_structure(model, settings):
    plan = simulate.build_plan(model, settings, shots=10_000)
    singles = [p for p in plan if len(p.chain) == 1]
    pairs = [p for p in plan if len(p.chain) == 2]
    assert len(singles) == 13
    assert len(pairs) == 24
    assert {p.chain[0] for p in singles} == set(range(1, 14))
    assert {p.chain for p in pairs} == set(model.edges)
    assert sum(p.shots for p in plan) == 37 * 10_000
    # edge (1, 4) is co-mapped first in M3
    assert next(p for p in pairs if p.chain == (1, 4)).setting_id == "M3"


def test_detect_dark_state_ideal():
    rng = np.random.default_rng(0)
    rho = linalg.pure_state_dm([0, 0, 1])
    for _ in range(20):
        readout, collapsed, true = simulate.detect(
            rho, simulate.NoiseModel.ideal(), rng)
        assert readout == true == "dark"
        assert np.allclose(collapsed, simulate.DARK)


def test_detect_flip_rates():
    rng = np.random.default_rng(1)
    noise = simulate.NoiseModel.paper()
    n = 20_000
    dark = linalg.pure_state_dm([0, 0, 1])
    flips = sum(simulate.detect(dark, noise, rng)[0] == "bright"
                for _ in range(n))
    assert flips / n == pytest.approx(0.010, abs=0.004)
    bright = linalg.pure_state_dm([1, 0, 0])
    flips = sum(simulate.detect(bright, noise, rng)[0] == "dark"
                for _ in range(n))
    assert flips / n == pytest.approx(0.021, abs=0.005)


def test_detect_collapse_correctness():
    rng = np.random.default_rng(2)
    rho = linalg.pure_state_dm([1, 1, 1])
    for _ in range(50):
        _, collapsed, true = simulate.detect(rho, simulate.NoiseModel.ideal(), rng)
        if true == "dark":
            assert np.allclose(collapsed, simulate.DARK)
        else:
            assert abs(collapsed[2, 2]) < 1e-12
        linalg.validate_density_matrix(collapsed)


def test_photon_count_mode_dark_error():
    lam = -np.log(0.99)
    noise = simulate.NoiseModel(mode="photon-count", lambda_dark=lam)
    rng = np.random.default_rng(3)
    dark = linalg.pure_state_dm([0, 0, 1])
    n = 40_000
    bright_reads = sum(simulate.detect(dark, noise, rng)[0] == "bright"
                       for _ in range(n))
    assert bright_reads / n == pytest.approx(0.01, abs=0.003)
    # a bright state essentially never reads dark at Poisson mean 10
    bright = linalg.pure_state_dm([1, 0, 0])
    dark_reads = sum(simulate.detect(bright, noise, rng)[0] == "dark"
                     for _ in range(n))
    assert dark_reads / n < 5e-4


def test_run_single_trivial(by_id):
    rng = np.random.default_rng(4)
    psi3 = simulate.StateSpec.pure("psi3", [0, 0, 1])
    counts = simulate.run_single(psi3, by_id["M1"], 3,
                                 simulate.NoiseModel.ideal(), 1000, rng)
    assert counts == {"D": 1000, "B": 0}


def test_run_single_unmapped_ray_errors(by_id):
    rng = np.random.default_rng(5)
    psi1 = simulate.StateSpec.pure("psi1", [1, 0, 0])
    with pytest.raises(ValueError, match="not mapped"):
        simulate.run_single(psi1, by_id["M1"], 13,
                            simulate.NoiseModel.ideal(), 10, rng)


def test_run_single_matches_trace(by_id, model):
    """Dark fraction concentrates on Tr(rho V) for every mapped slot."""
    rng = np.random.default_rng(6)
    shots = 20_000
    roster = simulate.default_state_roster()[::3]
    for state in roster:
        for sid in ("M1", "M6", "M13"):
            setting = by_id[sid]
            for ray in setting.mapping.values():
                counts = simulate.run_single(state, setting, ray,
                                             simulate.NoiseModel.ideal(),
                                             shots, rng)
                p = float(np.trace(state.rho @ model.projectors[ray]).real)
                bound = 4 * np.sqrt(max(p * (1 - p), 1e-9) / shots) + 1e-3
                assert abs(counts["D"] / shots - p) < bound


def test_run_pair_ideal_dd_is_zero(by_id, model):
    rng = np.random.default_rng(7)
    state = simulate.StateSpec.mixed("rho10", np.eye(3) / 3)
    for edge in sorted(model.edges)[:8]:
        sid = next(s.id for s in settings_table()
                   if set(edge) <= set(s.mapping.values()))
        counts = simulate.run_pair(state, by_id[sid], *edge,
                                   simulate.NoiseModel.ideal(), 4000, rng)
        assert counts["DD"] == 0


def test_run_pair_aligned_state(by_id):
    # state prepared on v4, measured as first element of edge (4, 10) in M5
    state = simulate.StateSpec.pure("v4", ray_unit(4))
    rng = np.random.default_rng(8)
    counts = simulate.run_pair(state, by_id["M5"], 4, 10,
                               simulate.NoiseModel.ideal(), 2000, rng)
    assert counts["B"] == 0
    assert counts["DB"] == 2000


def test_run_pair_flip_dd_small(by_id):
    rng = np.random.default_rng(9)
    state = simulate.StateSpec.mixed("rho10", np.eye(3) / 3)
    counts = simulate.run_pair(state, by_id["M5"], 4, 10,
                               simulate.NoiseModel.paper(), 20_000, rng)
    assert 0 < counts["DD"] / 20_000 < 0.05


def test_roster_determinism(model, settings):
    plan = simulate.build_plan(model, settings, shots=500)
    roster = simulate.default_state_roster()[:3]
    noise = simulate.NoiseModel.paper()
    a = simulate.run_roster(roster, plan, settings, noise, 99)
    b = simulate.run_roster(roster, plan, settings, noise, 99)
    assert simulate.counts_to_csv(a) == simulate.counts_to_csv(b)
    c = simulate.run_roster(roster, plan, settings, noise, 100)
    assert simulate.counts_to_csv(a) != simulate.counts_to_csv(c)


def test_stream_independence_of_execution_order(model, settings, by_id):
    """A sub-experiment's counts depend only on its key, not on which other
    sub-experiments ran before it."""
    plan = simulate.build_plan(model, settings, shots=500)
    roster = simulate.default_state_roster()[:2]
    noise = simulate.NoiseModel.paper()
    full = simulate.run_roster(roster, plan, settings, noise, 7)
    solo = simulate.run_subexperiment(roster[1], plan[5], by_id, noise, 7)
    match = [t for t in full[roster[1].label]
             if t.subexperiment == plan[5]][0]
    assert match.counts == solo.counts


def test_counts_csv_shape(model, settings):
    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()[:1]
    tables = simulate.run_roster(roster, plan, settings,
                                 simulate.NoiseModel.ideal(), 1)
    csv = simulate.counts_to_csv(tables)
    lines = csv.strip().splitlines()
    assert lines[0] == "state,setting,chain,symbol,count,seed"
    # 13 singles x 2 symbols + 24 pairs x 3 symbols
    assert len(lines) - 1 == 13 * 2 + 24 * 3


def test_readout_rates():
    assert simulate.readout_rates(simulate.NoiseModel.ideal()) == (1.0, 0.0)
    assert simulate.readout_rates(simulate.NoiseModel.paper()) == \
        pytest.approx((0.99, 0.021), abs=1e-15)
    photon = simulate.NoiseModel(mode="photon-count",
                                 lambda_dark=-np.log(0.99), threshold=1)
    r_d, r_b = simulate.readout_rates(photon)
    assert r_d == pytest.approx(0.99, abs=1e-15)
    assert r_b == pytest.approx(np.exp(-10), rel=1e-12)
    # a higher threshold sums the Poisson terms below it
    lam = 2.5
    r_d, r_b = simulate.readout_rates(simulate.NoiseModel(
        mode="photon-count", lambda_dark=0.0, lambda_bright=lam, threshold=3))
    assert r_d == 1.0
    assert r_b == pytest.approx(np.exp(-lam) * (1 + lam + lam ** 2 / 2), rel=1e-12)


def test_outcome_law_ideal_matches_projectors(model, settings, by_id):
    """Under ideal readout every law is the Born rule of the mapped rays."""
    plan = simulate.build_plan(model, settings)
    noise = simulate.NoiseModel.ideal()
    for state in simulate.default_state_roster():
        for sub in plan:
            law = simulate.outcome_law(state, by_id[sub.setting_id], sub.chain,
                                       noise)
            p = float(np.trace(state.rho @ model.projectors[sub.chain[0]]).real)
            assert min(law.values()) >= 0.0
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
            if len(sub.chain) == 1:
                assert law["D"] == pytest.approx(p, abs=1e-12)
            else:
                # the first detection reads dark exactly on projecting onto v_i
                assert law["DB"] + law["DD"] == pytest.approx(p, abs=1e-12)
                assert law["B"] == pytest.approx(1.0 - p, abs=1e-12)
                # v_i and v_j are orthogonal: no shot is dark twice
                assert law["DD"] <= 1e-12


def _detect_pair_counts(state, setting, ray_i, ray_j, noise, shots, rng):
    """Sequential pair from one-shot `detect` calls: the reference process."""
    slot = {ray: basis for basis, ray in setting.mapping.items()}
    u = compile_setting(setting)
    rho = u @ state.rho @ u.conj().T
    if slot[ray_i] != 3:
        w1 = pulse_matrix(swap_pulse(slot[ray_i]))
        rho = w1 @ rho @ w1.conj().T
    w2 = pulse_matrix(swap_pulse(slot[ray_j] if slot[ray_j] != 3 else slot[ray_i]))
    counts = {"B": 0, "DB": 0, "DD": 0}
    for _ in range(shots):
        first, collapsed, _ = simulate.detect(rho, noise, rng)
        if first == "bright":
            counts["B"] += 1
            continue
        second, _, _ = simulate.detect(w2 @ collapsed @ w2.conj().T, noise, rng)
        counts["DD" if second == "dark" else "DB"] += 1
    return counts


@pytest.mark.parametrize("noise", [
    simulate.NoiseModel.paper(),
    simulate.NoiseModel(mode="photon-count", lambda_dark=0.1,
                        lambda_bright=4.0, threshold=2),
], ids=["flip", "photon-count"])
def test_pair_law_matches_detect_monte_carlo(by_id, noise):
    # edge (4, 10) in M5 puts v10 in |3>, the branch the first swap moves
    state = simulate.default_state_roster()[7]
    law = simulate.outcome_law(state, by_id["M5"], (4, 10), noise)
    shots = 20_000
    counts = _detect_pair_counts(state, by_id["M5"], 4, 10, noise, shots,
                                 np.random.default_rng(12))
    assert law["DD"] > 1e-3  # readout errors make double-dark shots
    for symbol, p in law.items():
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(counts[symbol] / shots - p) < 4 * sigma, symbol


def test_roster_counts_independent_of_shot_count(model, settings):
    shots = 10 ** 9
    plan = simulate.build_plan(model, settings, shots=shots)
    roster = simulate.default_state_roster()
    photon = simulate.NoiseModel(mode="photon-count", lambda_dark=-np.log(0.99))
    for noise in (simulate.NoiseModel.ideal(), simulate.NoiseModel.paper(),
                  photon):
        tables = simulate.run_roster(roster, plan, settings, noise, 21)
        for t in (t for ts in tables.values() for t in ts):
            assert t.shots == shots
            if noise.mode == "ideal" and len(t.subexperiment.chain) == 2:
                assert t.counts["DD"] == 0


def test_run_roster_compiles_each_setting_once(model, settings, by_id,
                                               monkeypatch):
    compiled = []

    def counting(setting):
        compiled.append(setting.id)
        return compile_setting(setting)

    plan = simulate.build_plan(model, settings, shots=1000)
    roster = simulate.default_state_roster()
    noise = simulate.NoiseModel.paper()
    monkeypatch.setattr(simulate, "compile_setting", counting)
    tables = simulate.run_roster(roster, plan, settings, noise, 5)
    assert sorted(compiled) == sorted(s.id for s in settings)
    # compiling per sub-experiment instead gives byte-identical counts
    per_sub = {state.label: [simulate.run_subexperiment(state, sub, by_id,
                                                        noise, 5)
                             for sub in plan]
               for state in roster}
    assert len(compiled) == len(settings) + len(roster) * len(plan)
    assert simulate.counts_to_csv(per_sub) == simulate.counts_to_csv(tables)
