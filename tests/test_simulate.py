import dataclasses
import functools
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate
from qutrit_ks.model import CHI4, RAYS, build_model, ray_unit
from qutrit_ks.pulses import compile_setting, pulse_matrix, settings_table, swap_pulse
from qutrit_ks.simulate import BRIGHT, DARK, NoiseModel

from helpers import (derive_rng, effect_stack, expected_laws, law_rows,
                     random_density_matrix)

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
    return expected_laws([state], [sub], [setting], noise)[state.label][0]


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


@pytest.mark.parametrize("rates", [
    {"lambda_bright": -1.0}, {"lambda_dark": -0.5},
    {"lambda_bright": float("nan")}, {"lambda_bright": float("inf")},
])
def test_photon_count_model_rejects_bad_photon_rates(rates):
    with pytest.raises(ValueError, match="finite and non-negative"):
        simulate.NoiseModel(mode="photon-count", **rates)


@pytest.mark.parametrize("rates", [
    {"lambda_dark": 10.0},  # r_d = r_b
    {"lambda_dark": 12.0},  # r_d < r_b
    {"lambda_dark": 0.0, "lambda_bright": 0.0},  # both always dark
])
def test_photon_count_model_rejects_readout_that_cannot_tell_dark(rates):
    """Caught when the model is built, not at its first correction."""
    with pytest.raises(ValueError, match="r_d > r_b"):
        simulate.NoiseModel(mode="photon-count", **rates)
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


@pytest.mark.parametrize("shots, error", [(2.5, TypeError), ("10", TypeError),
                                          (0, ValueError), (-5, ValueError)])
def test_build_plan_rejects_a_shot_count_below_one_or_not_an_integer(
        model, settings, shots, error):
    """A fractional count would draw a fractional table, zero would leave
    empty tables for `analysis` to trip on, and a negative one would fail
    inside numpy: each is refused when the plan is built."""
    with pytest.raises(error):
        simulate.build_plan(model, settings, shots)
    with pytest.raises(error):
        simulate.SubExperiment("M1", (1,), shots)


def test_sub_experiment_takes_numpy_integer_shots_as_int(model, settings):
    plan = simulate.build_plan(model, settings, np.int64(7))
    assert {type(sub.shots) for sub in plan} == {int}
    assert all(sub.shots == 7 for sub in plan)
    assert simulate.SubExperiment("M1", (1,), np.uint8(1)).shots == 1


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
    laws = expected_laws(states, plan, settings, simulate.NoiseModel.ideal())
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
        laws = expected_laws(roster, plan, settings, noise)
        for state in roster:
            solo = []
            for sub, law in zip(plan, laws[state.label]):
                rng = derive_rng(7, state.label, sub.key)
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
    rng = derive_rng(42, "psi7", "pair:04-10:M5")
    philox = rng.bit_generator.state["state"]
    assert philox["key"].tolist() == key.tolist()
    assert philox["counter"].tolist() == [0, 0, 0, 0]
    assert rng.random(8).tolist() == np.random.Generator(ref).random(8).tolist()
    # the roster's draw for that key is a draw from the same stream
    state = simulate.default_state_roster()[6]
    sub = simulate.SubExperiment("M5", (4, 10), 10_000)
    table = simulate.run_roster([state], [sub], settings, NOISE_CONFIGS["paper"],
                                42)["psi7"][0]
    law = expected_laws([state], [sub], settings, NOISE_CONFIGS["paper"])["psi7"][0]
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
    laws = expected_laws(roster, plan, settings, simulate.NoiseModel.ideal())
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
            assert sum(t.counts.values()) == shots
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
    laws = expected_laws([state], plan, settings, noise)[state.label]
    tilted_laws = expected_laws([state], plan, altered, noise)[state.label]
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
    laws = expected_laws(roster, plan, settings, noise)
    assert expected_laws(roster, plan, reordered, noise) == laws
    info = simulate._plan_effects.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_cached_plan_effects_are_read_only(model, settings, by_id):
    plan = simulate.build_plan(model, settings, shots=1000)
    noise = simulate.NoiseModel.paper()
    effs = _plan_effects(plan, settings, noise)
    assert _plan_effects(plan, settings_table(), noise) is effs
    assert [len(s) for s in effs.symbols] == [len(sub.chain) + 1 for sub in plan]
    for plane in (effs.re, effs.im):
        assert plane.shape == (9, 13 * 2 + 24 * 3) and plane.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            plane[0, 0] = 0.0
    # element ij of each effect in row 3i + j, entry after entry
    expected = [e for sub in plan for e in simulate.effects(
        simulate._steps(by_id[sub.setting_id], sub.chain,
                        compile_setting(by_id[sub.setting_id])),
        simulate.readout_rates(noise)).values()]
    assert np.array_equal(effect_stack(effs), np.array(expected))


def test_expected_laws_do_not_depend_on_the_rest_of_the_call(model, settings):
    """A law's bits are the same whether its state and entry are computed
    alone or among all states and entries, so a one-state run draws the
    counts of the full roster."""
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()

    def computed(states, entries, noise):
        # a cleared cache forms every row afresh, never reading a kept one
        simulate._plan_effects.cache_clear()
        return expected_laws(states, entries, settings, noise)

    for noise in NOISE_CONFIGS.values():
        full = computed(roster, plan, noise)
        for state in roster[::4]:
            alone = [computed([state], [sub], noise)[state.label][0] for sub in plan]
            assert alone == full[state.label]
            assert computed(roster[::-1], plan[::-1], noise)[state.label] == \
                full[state.label][::-1]


def test_run_roster_draws_once_per_state_and_entry(model, settings, monkeypatch):
    draws = []
    original = simulate.run_subexperiment

    def counting(symbols, law, sub, seed_key, rng):
        draws.append(seed_key)
        return original(symbols, law, sub, seed_key, rng)

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
    laws = expected_laws(roster, plan, settings, noise)
    for state in roster:
        for sub, law in zip(plan, laws[state.label]):
            ref = _branch_law(state, by_id[sub.setting_id], sub.chain, noise)
            assert list(law) == list(ref)
            assert law == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("noise", NOISE_CONFIGS.values(), ids=NOISE_CONFIGS)
def test_plan_effects_form_a_povm(model, settings, noise):
    """The effects `run_roster` compiles for each plan entry sum to the
    identity and are positive."""
    plan_effs = _plan_effects(simulate.build_plan(model, settings), settings, noise)
    symbols, stack = plan_effs.symbols, effect_stack(plan_effs)
    start = 0
    for syms in symbols:
        effs = stack[start:start + len(syms)]
        start += len(syms)
        assert np.allclose(effs.sum(axis=0), np.eye(3), rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(effs).min() >= -1e-12
    assert start == len(stack)


DRAW_SHOTS = (1, 7, 2000, 10 ** 6, 2 ** 62, 2 ** 63 - 1)


def _assert_draws_are_multinomial(symbols, law):
    """On three keyed streams and at every shot count of `DRAW_SHOTS`,
    `run_subexperiment` gives, as Python ints, the counts of numpy's
    `multinomial` on a fresh `derive_rng` stream of the same key."""
    stream = simulate._KeyedStream()
    chain = (1,) if len(law) == 2 else (1, 2)
    for shots in DRAW_SHOTS:
        for seed in range(3):
            sub = simulate.SubExperiment("M1", chain, shots)
            key = f"{seed}/psi1/{sub.key}"
            table = simulate.run_subexperiment(symbols, law, sub, key, stream)
            expected = derive_rng(seed, "psi1", sub.key).multinomial(shots, law)
            assert table.counts == dict(zip(symbols, expected.tolist())), (shots, seed)
            assert all(type(c) is int for c in table.counts.values())
            assert table.seed_key == key


@pytest.mark.parametrize("p_dark", [0.0, 5e-324, 0.021, 0.5, 0.99, 1 - 2 ** -53, 1.0])
def test_two_outcome_draw_is_the_multinomial_draw(p_dark):
    """A two-outcome law is drawn as `binomial(shots, P(D))`, the first
    binomial step of numpy's `multinomial`, so on the same keyed stream it
    gives the same counts at every law and shot count."""
    _assert_draws_are_multinomial(("D", "B"), [p_dark, 1.0 - p_dark])


@pytest.mark.parametrize("law", [
    [0.3, 0.7000000000000001, 0.0],  # P(DB) / (1 - P(B)) rounds above 1
    [0.0, 0.4, 0.6],
    [5e-324, 0.4, 0.6],
    [1 - 2 ** -53, 2 ** -54, 2 ** -54],
    [1 - 2 ** -53, 2 ** -53, 0.0],
    [1.0, 0.0, 0.0],
    [0.3, 0.0, 0.7],
    [0.021, 0.5, 0.479],
])
def test_pair_draw_is_the_multinomial_draw(law):
    """A pair's law is drawn as numpy's `multinomial` draws it, in two
    binomial steps, the second at P(DB) / (1 - P(B)) clamped to 1, so on the
    same keyed stream it gives the same counts at every law and shot count,
    including laws whose ratio rounds above 1."""
    _assert_draws_are_multinomial(("B", "DB", "DD"), law)


def test_rekey_reproduces_derive_rng_streams():
    """A stream re-keyed by `_KeyedStream.rekey`, whatever it drew before, is
    the `derive_rng` stream of the name: counter 0, empty buffer, the key
    words of sha256 read little-endian (top bit set included), and equal 2-
    and 3-outcome multinomial draws."""
    stream = simulate._KeyedStream()
    rng = stream.rng
    top_bit = 0
    for n in range(1000):
        parts = (f"psi{n % 12 + 1}", f"pair:{n % 13 + 1:02d}-10:M{n % 16 + 1}")
        name = "/".join([str(n), *parts])
        key = np.frombuffer(hashlib.sha256(name.encode()).digest()[:16], "<u8")
        top_bit += int(key.max() >= 2 ** 63)
        rng.integers(2 ** 32, dtype=np.uint32)  # leave a half-used word behind
        assert rng.bit_generator.state["has_uint32"] == 1
        stream.rekey(name)
        state = rng.bit_generator.state
        assert [int(w) for w in state["state"]["key"]] == key.tolist()
        assert [int(w) for w in state["state"]["counter"]] == [0, 0, 0, 0]
        assert (state["buffer_pos"], state["has_uint32"]) == (4, 0)
        fresh = derive_rng(n, *parts)
        assert fresh.bit_generator.state["state"]["key"].tolist() == key.tolist()
        for law in ([0.3, 0.7], [0.2, 0.5, 0.3]):
            assert rng.multinomial(n + 1, law).tolist() == \
                fresh.multinomial(n + 1, law).tolist()
    assert top_bit > 500


def test_default_roster_is_built_once_and_read_only(monkeypatch):
    first, second = simulate.default_state_roster(), simulate.default_state_roster()
    assert first is not second
    assert [s.label for s in first] == [s.label for s in second]
    assert all(np.array_equal(a.rho, b.rho) for a, b in zip(first, second))
    second.pop()
    assert len(simulate.default_state_roster()) == 12
    for spec in first:
        with pytest.raises(ValueError, match="read-only"):
            spec.rho[0, 0] = 0.5
    # Once built, a roster costs no validation; building it validates each
    # state once.
    calls = []
    original = linalg.validate_density_matrix
    monkeypatch.setattr(linalg, "validate_density_matrix",
                        lambda rho: calls.append(1) or original(rho))
    simulate.default_state_roster()
    assert calls == []
    simulate._default_states.__wrapped__()
    assert len(calls) == 12


def test_run_roster_draws_from_a_pooled_generator(model, settings, monkeypatch):
    """A run takes an idle generator from the module pool and returns it, so
    only a call that finds the pool empty constructs a Philox bit generator,
    however many states and entries it draws; `derive_rng` builds a fresh
    one on every call."""
    built = []
    original = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    monkeypatch.setattr(simulate, "_IDLE_STREAMS", [])
    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()
    for states in (roster[:1], roster, roster[:1]):
        simulate.run_roster(states, plan, settings, simulate.NoiseModel.paper(), 3)
    assert len(built) == 1 and len(simulate._IDLE_STREAMS) == 1
    derive_rng(3)
    derive_rng(3)
    assert len(built) == 3 and len(simulate._IDLE_STREAMS) == 1


def _one_state_tables(model, settings, seeds, noise=NOISE_CONFIGS["paper"]):
    plan = simulate.build_plan(model, settings, shots=2000)
    state = simulate.default_state_roster()[6]
    return [[(t.seed_key, t.counts) for t in
             simulate.run_roster([state], plan, settings, noise, seed)[state.label]]
            for seed in seeds]


def _in_two_threads(work, inputs):
    """`work` of each of two inputs, run in two threads at once with a thread
    switch forced every microsecond."""
    results = [None, None]

    def run(i):
        results[i] = work(inputs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_concurrent_runs_never_share_a_generator(model, settings):
    """Two threads that run one-state rosters over 50 seeds each get exactly
    the serial tables. A thread switch is forced every microsecond, so a
    generator shared between live calls would be re-keyed between another
    call's re-key and draw."""
    seeds = (range(50), range(50, 100))
    serial = [_one_state_tables(model, settings, s) for s in seeds]
    assert _in_two_threads(lambda s: _one_state_tables(model, settings, s), seeds) == serial


def test_nested_run_leaves_the_outer_counts_unchanged(model, settings, monkeypatch):
    """A `run_roster` called from inside a draw (a wrapped
    `run_subexperiment`) takes another generator from the pool, so the outer
    run keeps one generator throughout and its counts do not move."""
    expected = _one_state_tables(model, settings, [4])
    original = simulate.run_subexperiment
    streams, depth = ([], []), []

    def nested(symbols, law, sub, seed_key, stream):
        streams[len(depth)].append(stream)
        if not depth:
            depth.append(1)
            _one_state_tables(model, settings, [len(streams[0])], NOISE_CONFIGS["ideal"])
            depth.pop()
        return original(symbols, law, sub, seed_key, stream)

    monkeypatch.setattr(simulate, "run_subexperiment", nested)
    assert _one_state_tables(model, settings, [4]) == expected
    outer, inner = ({id(s) for s in d} for d in streams)
    assert (len(streams[0]), len(streams[1])) == (37, 37 * 37)
    assert len(outer) == 1 and not outer & inner


def test_derived_generators_drawn_in_alternation_match_each_alone():
    """Two `derive_rng` generators are independent objects: drawing from them
    in alternation gives the same draws as drawing from each alone."""
    keys = (("psi1", "tomography"), ("rho10", "tomography"))
    alone = [derive_rng(5, *k).binomial(1000, [0.1, 0.5, 0.9] * 4).tolist()
             for k in keys]
    a, b = (derive_rng(5, *k) for k in keys)
    mixed = [[], []]
    for _ in range(4):
        for i, rng in enumerate((a, b)):
            mixed[i] += rng.binomial(1000, [0.1, 0.5, 0.9]).tolist()
    assert mixed == alone


def test_subexperiment_key_is_formatted_once(model, settings, monkeypatch):
    formatted = []
    original = simulate.SubExperiment.key

    def counting(sub):
        formatted.append(sub)
        return original.func(sub)

    key = functools.cached_property(counting)
    key.__set_name__(simulate.SubExperiment, "key")
    monkeypatch.setattr(simulate.SubExperiment, "key", key)
    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()
    for seed in (1, 2):
        tables = simulate.run_roster(roster, plan, settings, NOISE_CONFIGS["paper"], seed)
    assert formatted == plan
    assert [t.seed_key for t in tables["psi1"]] == [f"2/psi1/{sub.key}" for sub in plan]
    assert plan[13].key == "pair:01-02:M1"


def test_repeated_state_label_is_refused(model, settings):
    """Two states under one label would draw on the same keyed streams and
    one state's tables would be lost, so a run refuses the roster."""
    psi1, psi4 = (simulate.default_state_roster()[i] for i in (0, 3))
    plan = simulate.build_plan(model, settings, shots=100)
    with pytest.raises(ValueError, match="repeated state label: psi1"):
        simulate.run_roster([psi1, simulate.StateSpec("psi1", psi4.rho)], plan,
                            settings, NOISE_CONFIGS["paper"], 1)


def _rows(states, plan, settings, noise):
    return law_rows(states, plan, settings, noise)[1]


def test_law_rows_are_kept_read_only_tuples(model, settings):
    """A row is formed once per (plan, readout, prepared rho) and kept as
    tuples, so a later call hands out the same row and nobody can alter it."""
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()
    noise = NOISE_CONFIGS["paper"]
    simulate._plan_effects.cache_clear()
    first = _rows(roster, plan, settings, noise)
    again = _rows(roster[:1], plan, settings, noise)
    assert again[0] is first[0]
    for row in first:
        assert type(row) is tuple and len(row) == len(plan)
        assert all(type(law) is tuple for law in row)
        assert all(type(p) is float for law in row for p in law)
    info = _plan_effects(plan, settings, noise).law_row.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(roster), 1, len(roster))


def test_law_rows_are_keyed_by_the_prepared_state(model, settings):
    """Rows are kept by the prepared rho, never by label: two states under
    one label, and one state under two depolarizations with the same
    readout rates, each get the rows a fresh computation gives them."""
    plan = simulate.build_plan(model, settings)
    psi1, psi4 = (simulate.default_state_roster()[i] for i in (0, 3))
    paper = NOISE_CONFIGS["paper"]
    depolarized = dataclasses.replace(paper, prep_depolarization=0.1)
    cases = [([psi1], paper), ([simulate.StateSpec("psi1", psi4.rho)], paper),
             ([psi4], paper), ([psi4], depolarized)]
    simulate._plan_effects.cache_clear()
    kept = [_rows(states, plan, settings, noise) for states, noise in cases]
    info = _plan_effects(plan, settings, paper).law_row.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 3)
    fresh = []
    for states, noise in cases:
        simulate._plan_effects.cache_clear()
        fresh.append(_rows(states, plan, settings, noise))
    assert kept == fresh
    assert kept[0] != kept[1] == kept[2] != kept[3]


def _random_states(n, seed):
    rng = np.random.default_rng(seed)
    return [simulate.StateSpec.mixed(f"r{i}", random_density_matrix(rng))
            for i in range(n)]


def test_law_rows_kept_stay_within_the_cap(model, settings):
    """However many distinct states a process draws, one plan and readout
    keep at most `_MEMO_ROWS` rows, whether the states come one per call or
    all in one call, and every row returned is the one formed afresh."""
    plan = simulate.build_plan(model, settings, shots=100)
    noise = NOISE_CONFIGS["paper"]
    states = _random_states(500, 3)
    simulate._plan_effects.cache_clear()
    kept = _plan_effects(plan, settings, noise).law_row
    assert kept.cache_info().maxsize == simulate._MEMO_ROWS
    rows = []
    for state in states:
        simulate.run_roster([state], plan, settings, noise, 1)
        rows += _rows([state], plan, settings, noise)
        assert kept.cache_info().currsize <= simulate._MEMO_ROWS
    simulate.run_roster(states, plan, settings, noise, 1)
    assert kept.cache_info().currsize <= simulate._MEMO_ROWS
    assert _rows(states, plan, settings, noise) == rows
    simulate._plan_effects.cache_clear()
    assert [_rows([state], plan, settings, noise)[0] for state in states[::50]] == rows[::50]


def test_no_field_of_cached_plan_effects_can_be_mutated(model, settings):
    """A cached `PlanEffects` is shared by every run of its plan, so a
    caller can neither rebind a field nor change what one holds: the planes
    are read-only, every other field is made of tuples, strings and slices
    all the way down, and so is every row `law_row` hands out."""
    key = simulate.default_state_roster()[0].rho.tobytes()

    def frozen(value):
        if isinstance(value, np.ndarray):
            return not value.flags.writeable
        if isinstance(value, tuple):
            return all(frozen(v) for v in value)
        if callable(value):  # `law_row`: what it hands out
            return frozen(value(key))
        return isinstance(value, (str, float, slice))

    plan = simulate.build_plan(model, settings, shots=1000)
    effs = _plan_effects(plan, settings, NOISE_CONFIGS["paper"])
    for name, value in zip(effs._fields, effs):
        with pytest.raises(AttributeError):
            setattr(effs, name, value)
        assert frozen(value), name


def test_concurrent_runs_that_overflow_the_kept_rows(model, settings):
    """Two threads whose distinct states overflow the kept rows many times
    over, with a thread switch forced every microsecond, get exactly the
    serial tables: the shared LRU hands each thread the rows it would form."""
    plan = simulate.build_plan(model, settings, shots=2000)
    noise = NOISE_CONFIGS["paper"]
    work_lists = (_random_states(60, 5), _random_states(60, 6))

    def tables(states):
        return [[(t.seed_key, t.counts) for t in
                 simulate.run_roster([state], plan, settings, noise, 1)[state.label]]
                for state in states]

    serial = [tables(states) for states in work_lists]
    assert _in_two_threads(tables, work_lists) == serial


def _sweep(model, settings, plan, noises):
    """36 one-state runs, each with its four estimates, as a pull gate
    repeats them over seeds."""
    for noise in noises:
        corrections = (simulate.readout_rates(NoiseModel.ideal()),
                       simulate.readout_rates(noise))
        for state in simulate.default_state_roster():
            [tables] = simulate.run_roster([state], plan, settings, noise, 1).values()
            freqs = analysis.frequencies(tables)
            for ineq in (model.chi13, CHI4):
                for rates in corrections:
                    analysis.estimate(ineq, freqs, rates)


def test_one_state_runs_stay_small_in_memory(model, settings):
    """Warm one-state runs and their estimates allocate at most 64 KiB at
    their peak over three sweeps, and 500 distinct states leave at most
    256 KiB held: the kept law rows are bounded. A faster run lets a
    benchmark keep more per-operation records, so the run's own memory must
    stay small for peak RSS to hold."""
    plan = simulate.build_plan(model, settings, shots=2000)
    noises = [NOISE_CONFIGS[name] for name in ("ideal", "paper", "photon-count")]
    states = _random_states(500, 7)
    _sweep(model, settings, plan, noises)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for _ in range(3):
            _sweep(model, settings, plan, noises)
        peak = tracemalloc.get_traced_memory()[1]
        start = tracemalloc.get_traced_memory()[0]
        for state in states:
            simulate.run_roster([state], plan, settings, noises[1], 1)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024
    assert held <= 256 * 1024
