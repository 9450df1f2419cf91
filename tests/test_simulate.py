import dataclasses
import hashlib

import numpy as np
import pytest

from qutrit_ks import linalg, simulate
from qutrit_ks.model import RAYS, build_model, ray_unit
from qutrit_ks.pulses import compile_setting, pulse_matrix, settings_table, swap_pulse
from qutrit_ks.simulate import BRIGHT, DARK, NoiseModel

NOISE_CONFIGS = {
    "ideal": NoiseModel.ideal(),
    "paper": NoiseModel.paper(),
    "photon-count": NoiseModel(mode="photon-count"),
    "photon-count-2": NoiseModel(mode="photon-count", lambda_dark=0.1,
                                 lambda_bright=4.0, threshold=2),
    "flip-depolarized": NoiseModel(eps_dark_to_bright=0.2, eps_bright_to_dark=0.3,
                                   prep_depolarization=0.1),
}


def _readout_dark(true_dark: np.ndarray, noise: NoiseModel,
                  rng: np.random.Generator) -> np.ndarray:
    """Vector of readout outcomes (True = dark) for a vector of true ones."""
    n = true_dark.size
    if noise.mode == "ideal":
        return true_dark.copy()
    if noise.mode == "flip":
        u = rng.random(n)
        flip = np.where(true_dark, u < noise.eps_dark_to_bright,
                        u < noise.eps_bright_to_dark)
        return true_dark ^ flip
    counts = np.where(true_dark,
                      rng.poisson(noise.lambda_dark, n),
                      rng.poisson(noise.lambda_bright, n))
    return counts < noise.threshold


def detect(rho: np.ndarray, noise: NoiseModel,
           rng: np.random.Generator) -> tuple[str, np.ndarray, str]:
    """One fluorescence detection: sample the true outcome with
    p_dark = <3|rho|3>, collapse accordingly, then apply readout noise.

    Returns (readout, collapsed state, true outcome), outcomes as
    "dark" / "bright".
    """
    rho = linalg.validate_density_matrix(rho)
    p_dark = float(rho[2, 2].real)
    true_dark = bool(rng.random() < p_dark)
    if true_dark:
        collapsed = DARK.copy()
    else:
        trb = float(np.trace(BRIGHT @ rho @ BRIGHT).real)
        if trb <= 0.0:
            raise ValueError("bright collapse requested for a dark-only state")
        collapsed = BRIGHT @ rho @ BRIGHT / trb
    read_dark = bool(_readout_dark(np.array([true_dark]), noise, rng)[0])
    return ("dark" if read_dark else "bright", collapsed,
            "dark" if true_dark else "bright")


def _conjugate(u, rho):
    return u @ rho @ u.conj().T


def _branch_law(state, setting, chain, noise):
    """Schroedinger-picture reference: follow rho through each true branch
    and fold in the readout rates."""
    def clip(p):
        return min(max(p, 0.0), 1.0)

    def read_dark(p_dark):
        return clip(p_dark * r_d + (1.0 - p_dark) * r_b)

    slot = {ray: basis for basis, ray in setting.mapping.items()}
    slots = [slot[ray] for ray in chain]
    rho = _conjugate(compile_setting(setting), simulate.prepare(state, noise))
    if slots[0] != 3:
        rho = _conjugate(pulse_matrix(swap_pulse(slots[0])), rho)
    r_d, r_b = simulate.readout_rates(noise)
    p1 = clip(float(rho[2, 2].real))
    q1 = read_dark(p1)
    if len(chain) == 1:
        return {"D": q1, "B": 1.0 - q1}
    w2 = pulse_matrix(swap_pulse(slots[0] if slots[1] == 3 else slots[1]))
    p2_given_dark = clip(float(_conjugate(w2, DARK)[2, 2].real))
    p2_given_bright = 0.0
    if p1 < 1.0:
        rho_bright = BRIGHT @ rho @ BRIGHT / (1.0 - p1)
        p2_given_bright = clip(float(_conjugate(w2, rho_bright)[2, 2].real))
    p_dd = (p1 * r_d * read_dark(p2_given_dark)
            + (1.0 - p1) * r_b * read_dark(p2_given_bright))
    return {"B": 1.0 - q1, "DB": clip(q1 - p_dd), "DD": p_dd}


def _law(state, setting, chain, noise):
    """The law of one sub-experiment: `expected_laws` of a one-state,
    one-entry plan."""
    sub = simulate.SubExperiment(setting.id, chain)
    return simulate.expected_laws([state], [sub], [setting], noise)[state.label][0]


def _projector(ray):
    return linalg.projector_from_ray(RAYS[ray])


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
    with pytest.raises(ValueError, match="sum to less than 1"):
        simulate.NoiseModel(eps_dark_to_bright=0.6, eps_bright_to_dark=0.5)
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
    rho = linalg.projector_from_ray([0, 0, 1])
    for _ in range(20):
        readout, collapsed, true = detect(
            rho, simulate.NoiseModel.ideal(), rng)
        assert readout == true == "dark"
        assert np.allclose(collapsed, simulate.DARK)


def test_detect_flip_rates():
    rng = np.random.default_rng(1)
    noise = simulate.NoiseModel.paper()
    n = 20_000
    flips = np.count_nonzero(~_readout_dark(np.ones(n, bool), noise, rng))
    assert flips / n == pytest.approx(0.010, abs=0.004)
    flips = np.count_nonzero(_readout_dark(np.zeros(n, bool), noise, rng))
    assert flips / n == pytest.approx(0.021, abs=0.005)


def test_detect_collapse_correctness():
    rng = np.random.default_rng(2)
    rho = linalg.projector_from_ray([1, 1, 1])
    for _ in range(50):
        _, collapsed, true = detect(rho, simulate.NoiseModel.ideal(), rng)
        if true == "dark":
            assert np.allclose(collapsed, simulate.DARK)
        else:
            assert abs(collapsed[2, 2]) < 1e-12
        linalg.validate_density_matrix(collapsed)


def test_photon_count_mode_dark_error():
    lam = -np.log(0.99)
    noise = simulate.NoiseModel(mode="photon-count", lambda_dark=lam)
    rng = np.random.default_rng(3)
    n = 40_000
    bright_reads = np.count_nonzero(~_readout_dark(np.ones(n, bool), noise, rng))
    assert bright_reads / n == pytest.approx(0.01, abs=0.003)
    # a bright state essentially never reads dark at Poisson mean 10
    dark_reads = np.count_nonzero(_readout_dark(np.zeros(n, bool), noise, rng))
    assert dark_reads / n < 5e-4


def test_run_single_trivial(settings):
    psi3 = simulate.StateSpec.pure("psi3", [0, 0, 1])
    sub = simulate.SubExperiment("M1", (3,), 1000)
    [table] = simulate.run_roster([psi3], [sub], settings,
                                  simulate.NoiseModel.ideal(), 4)["psi3"]
    assert table.counts == {"D": 1000, "B": 0}
    assert table.seed_key == "4/psi3/single:03:M1"


def test_run_single_unmapped_ray_errors(by_id):
    psi1 = simulate.StateSpec.pure("psi1", [1, 0, 0])
    with pytest.raises(ValueError, match="not mapped"):
        _law(psi1, by_id["M1"], (13,), simulate.NoiseModel.ideal())


def test_run_single_matches_trace(settings, by_id):
    """The dark probability is Tr(rho V) for every mapped slot."""
    states = simulate.default_state_roster()[::3]
    plan = [simulate.SubExperiment(sid, (ray,))
            for sid in ("M1", "M6", "M13") for ray in by_id[sid].mapping.values()]
    laws = simulate.expected_laws(states, plan, settings, simulate.NoiseModel.ideal())
    for state in states:
        for sub, law in zip(plan, laws[state.label]):
            p = float(np.trace(state.rho @ _projector(sub.chain[0])).real)
            assert law["D"] == pytest.approx(p, abs=1e-12)
            assert law["B"] == pytest.approx(1.0 - p, abs=1e-12)


def test_run_pair_ideal_dd_is_zero(settings, model):
    state = simulate.StateSpec.mixed("rho10", np.eye(3) / 3)
    plan = [simulate.SubExperiment(next(s.id for s in settings
                                        if set(edge) <= set(s.mapping.values())),
                                   edge, 4000)
            for edge in sorted(model.edges)[:8]]
    tables = simulate.run_roster([state], plan, settings,
                                 simulate.NoiseModel.ideal(), 7)["rho10"]
    assert [t.counts["DD"] for t in tables] == [0] * len(plan)


def test_run_pair_aligned_state(by_id):
    # state prepared on v4, measured as first element of edge (4, 10) in M5
    state = simulate.StateSpec.pure("v4", ray_unit(4))
    law = _law(state, by_id["M5"], (4, 10), simulate.NoiseModel.ideal())
    assert law == pytest.approx({"B": 0.0, "DB": 1.0, "DD": 0.0}, abs=1e-12)


def test_run_pair_flip_dd_small(by_id):
    state = simulate.StateSpec.mixed("rho10", np.eye(3) / 3)
    law = _law(state, by_id["M5"], (4, 10), simulate.NoiseModel.paper())
    assert 0 < law["DD"] < 0.05


def test_roster_determinism(model, settings):
    plan = simulate.build_plan(model, settings, shots=500)
    roster = simulate.default_state_roster()[:3]
    noise = simulate.NoiseModel.paper()
    a = simulate.run_roster(roster, plan, settings, noise, 99)
    b = simulate.run_roster(roster, plan, settings, noise, 99)
    assert simulate.counts_to_csv(a) == simulate.counts_to_csv(b)
    c = simulate.run_roster(roster, plan, settings, noise, 100)
    assert simulate.counts_to_csv(a) != simulate.counts_to_csv(c)


def test_stream_independence_of_execution_order(model, settings):
    """A sub-experiment's counts depend only on its key, not on which other
    sub-experiments ran before it: each law drawn alone, on a fresh
    `derive_rng` stream of its key, reproduces the roster for all 12 x 37
    entries."""
    plan = simulate.build_plan(model, settings, shots=500)
    roster = simulate.default_state_roster()
    for name in ("ideal", "paper", "photon-count"):
        noise = NOISE_CONFIGS[name]
        full = simulate.run_roster(roster, plan, settings, noise, 7)
        laws = simulate.expected_laws(roster, plan, settings, noise)
        for state in roster:
            solo = []
            for sub, law in zip(plan, laws[state.label]):
                rng = simulate.derive_rng(7, state.label, sub.key)
                counts = rng.multinomial(sub.shots, list(law.values())).tolist()
                solo.append((sub, dict(zip(law, counts)), f"7/{state.label}/{sub.key}"))
            assert [(t.subexperiment, t.counts, t.seed_key)
                    for t in full[state.label]] == solo, (name, state.label)


def test_derive_rng_is_keyed_philox(settings):
    """The stream of (seed, labels) is Philox at counter 0 under the first 16
    bytes of sha256("seed/label/..."), as two little-endian uint64 words."""
    name = "42/psi7/pair:04-10:M5"
    key = np.frombuffer(hashlib.sha256(name.encode()).digest()[:16], "<u8")
    ref = np.random.Philox(key=key)
    rng = simulate.derive_rng(42, "psi7", "pair:04-10:M5")
    philox = rng.bit_generator.state["state"]
    assert philox["key"].tolist() == key.tolist()
    assert philox["counter"].tolist() == [0, 0, 0, 0]
    assert rng.random(8).tolist() == np.random.Generator(ref).random(8).tolist()
    # the roster's draw for that key is a draw from the same stream
    state = simulate.default_state_roster()[6]
    sub = simulate.SubExperiment("M5", (4, 10), 10_000)
    table = simulate.run_roster([state], [sub], settings, NOISE_CONFIGS["paper"],
                                42)["psi7"][0]
    law = simulate.expected_laws([state], [sub], settings,
                                 NOISE_CONFIGS["paper"])["psi7"][0]
    expected = np.random.Generator(np.random.Philox(key=key)).multinomial(
        10_000, list(law.values()))
    assert table.seed_key == name
    assert list(table.counts.values()) == expected.tolist()


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


def test_outcome_law_ideal_matches_projectors(model, settings):
    """Under ideal readout every law is the Born rule of the mapped rays."""
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()
    laws = simulate.expected_laws(roster, plan, settings, simulate.NoiseModel.ideal())
    for state in roster:
        for sub, law in zip(plan, laws[state.label]):
            p = float(np.trace(state.rho @ _projector(sub.chain[0])).real)
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
    """Sequential pair from the one-shot `detect` process, vectorized over
    shots: the reference process. Each shot samples its true first outcome,
    collapses onto |3> or its complement, is read out, then the second
    detection samples from the collapsed state; a bright first readout ends
    the shot."""
    slot = {ray: basis for basis, ray in setting.mapping.items()}
    u = compile_setting(setting)
    rho = u @ state.rho @ u.conj().T
    if slot[ray_i] != 3:
        w1 = pulse_matrix(swap_pulse(slot[ray_i]))
        rho = w1 @ rho @ w1.conj().T
    w2 = pulse_matrix(swap_pulse(slot[ray_j] if slot[ray_j] != 3 else slot[ray_i]))
    p_dark = float(rho[2, 2].real)
    collapsed = {True: DARK, False: BRIGHT @ rho @ BRIGHT / (1.0 - p_dark)}
    p2 = {k: float((w2 @ c @ w2.conj().T)[2, 2].real) for k, c in collapsed.items()}
    true1 = rng.random(shots) < p_dark
    read1 = _readout_dark(true1, noise, rng)
    true2 = rng.random(shots) < np.where(true1, p2[True], p2[False])
    read2 = _readout_dark(true2, noise, rng)
    return {"B": int(np.count_nonzero(~read1)),
            "DB": int(np.count_nonzero(read1 & ~read2)),
            "DD": int(np.count_nonzero(read1 & read2))}


@pytest.mark.parametrize("noise", [
    simulate.NoiseModel.paper(),
    simulate.NoiseModel(mode="photon-count", lambda_dark=0.1,
                        lambda_bright=4.0, threshold=2),
], ids=["flip", "photon-count"])
def test_pair_law_matches_detect_monte_carlo(by_id, noise):
    # edge (4, 10) in M5 puts v10 in |3>, the branch the first swap moves
    state = simulate.default_state_roster()[7]
    law = _law(state, by_id["M5"], (4, 10), noise)
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


def test_run_roster_compiles_each_setting_once(model, settings, monkeypatch):
    compiled = []

    def counting(setting):
        compiled.append(setting.id)
        return compile_setting(setting)

    plan = simulate.build_plan(model, settings, shots=1000)
    roster = simulate.default_state_roster()
    noise = simulate.NoiseModel.paper()
    monkeypatch.setattr(simulate, "compile_setting", counting)
    simulate._plan_effects.cache_clear()
    tables = simulate.run_roster(roster, plan, settings, noise, 5)
    assert sorted(compiled) == sorted(s.id for s in settings)
    # equal content in fresh objects: the same plan, settings and rates
    fresh = settings_table()
    again = simulate.run_roster(roster, simulate.build_plan(model, fresh, 1000),
                                fresh, noise, 5)
    assert len(compiled) == len(settings)
    assert simulate.counts_to_csv(again) == simulate.counts_to_csv(tables)


def test_plan_effects_keyed_on_setting_content(model, settings, by_id):
    """A setting that keeps its id but changes one pulse angle gets its own
    effects: its laws follow the branch reference of the setting it is
    given, and a run after the original plan draws what a fresh cache does."""
    m5 = by_id["M5"]
    first, second = m5.pulses
    tilted = dataclasses.replace(
        m5, pulses=(first, dataclasses.replace(second, theta=second.theta + 0.1)))
    altered = [tilted if s.id == "M5" else s for s in settings]
    plan = simulate.build_plan(model, settings, shots=10 ** 9)
    state = simulate.default_state_roster()[6]
    noise = simulate.NoiseModel.paper()
    laws = simulate.expected_laws([state], plan, settings, noise)[state.label]
    tilted_laws = simulate.expected_laws([state], plan, altered, noise)[state.label]
    for sub, law, tilted_law in zip(plan, laws, tilted_laws):
        if sub.setting_id == "M5":
            assert tilted_law != pytest.approx(law)
            assert tilted_law == pytest.approx(
                _branch_law(state, tilted, sub.chain, noise), abs=1e-12)
        else:
            assert tilted_law == law
    tables = simulate.run_roster([state], plan, altered, noise, 3)
    simulate._plan_effects.cache_clear()
    fresh = simulate.run_roster([state], plan, altered, noise, 3)
    assert simulate.counts_to_csv(tables) == simulate.counts_to_csv(fresh)


def _plan_effects(plan, settings, noise):
    """The cached effects `expected_laws` reads for this plan and noise."""
    return simulate._plan_effects(
        tuple(settings), tuple((sub.setting_id, sub.chain) for sub in plan),
        simulate.readout_rates(noise))


def test_plan_effects_share_an_entry_across_mapping_orders(model, settings):
    """Settings equal in content are equal and hash the same whatever the
    insertion order of their mappings, so they read one cached entry."""
    reordered = [dataclasses.replace(s, mapping=dict(reversed(s.mapping.items())))
                 for s in settings]
    assert [list(s.mapping) for s in reordered] != [list(s.mapping) for s in settings]
    assert reordered == settings
    assert [hash(s) for s in reordered] == [hash(s) for s in settings]
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()
    noise = simulate.NoiseModel.paper()
    simulate._plan_effects.cache_clear()
    laws = simulate.expected_laws(roster, plan, settings, noise)
    assert simulate.expected_laws(roster, plan, reordered, noise) == laws
    info = simulate._plan_effects.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_cached_plan_effects_are_read_only(model, settings):
    plan = simulate.build_plan(model, settings, shots=1000)
    noise = simulate.NoiseModel.paper()
    symbols, stack = _plan_effects(plan, settings, noise)
    assert _plan_effects(plan, settings_table(), noise)[1] is stack
    assert stack.shape == (13 * 2 + 24 * 3, 3, 3)
    assert [len(s) for s in symbols] == [len(sub.chain) + 1 for sub in plan]
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 0.0


def test_expected_laws_do_not_depend_on_the_rest_of_the_call(model, settings):
    """A law's bits are the same whether its state and entry are computed
    alone or among all states and entries, so a one-state run draws the
    counts of the full roster."""
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()
    for noise in NOISE_CONFIGS.values():
        full = simulate.expected_laws(roster, plan, settings, noise)
        for state in roster[::4]:
            alone = [simulate.expected_laws([state], [sub], settings, noise)[state.label][0]
                     for sub in plan]
            assert alone == full[state.label]
            assert simulate.expected_laws(roster[::-1], plan[::-1], settings,
                                          noise)[state.label] == full[state.label][::-1]


def test_run_roster_draws_once_per_state_and_entry(model, settings, monkeypatch):
    draws = []
    original = simulate.run_subexperiment

    def counting(law, sub, seed_key, rng):
        draws.append(seed_key)
        return original(law, sub, seed_key, rng)

    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()
    monkeypatch.setattr(simulate, "run_subexperiment", counting)
    simulate.run_roster(roster, plan, settings, simulate.NoiseModel.paper(), 2)
    assert draws == [f"2/{state.label}/{sub.key}" for state in roster for sub in plan]


@pytest.mark.parametrize("noise", NOISE_CONFIGS.values(), ids=NOISE_CONFIGS)
def test_outcome_law_matches_branch_reference(model, settings, by_id, noise):
    """The Heisenberg-picture effects reproduce the Schroedinger-picture
    branch computation for every state and plan entry, in draw order."""
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()
    laws = simulate.expected_laws(roster, plan, settings, noise)
    for state in roster:
        for sub, law in zip(plan, laws[state.label]):
            ref = _branch_law(state, by_id[sub.setting_id], sub.chain, noise)
            assert list(law) == list(ref)
            assert law == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("noise", NOISE_CONFIGS.values(), ids=NOISE_CONFIGS)
def test_plan_effects_form_a_povm(model, settings, noise):
    """The effects `run_roster` compiles for each plan entry sum to the
    identity and are positive."""
    symbols, stack = _plan_effects(simulate.build_plan(model, settings),
                                   settings, noise)
    start = 0
    for syms in symbols:
        effs = stack[start:start + len(syms)]
        start += len(syms)
        assert np.allclose(effs.sum(axis=0), np.eye(3), rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(effs).min() >= -1e-12
    assert start == len(stack)

