import dataclasses
import functools
import hashlib
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qutrit_ks import analysis, linalg, simulate
from qutrit_ks.model import CHI4, RAYS, build_model, ray_unit
from qutrit_ks.pulses import compile_setting, pulse_matrix, settings_table, swap_pulse
from qutrit_ks.simulate import DARK, NoiseModel

from helpers import (IDEAL_RATES, derive_rng, effect_stack, expected_laws, law_rows,
                     random_density_matrix, stream_name)

BRIGHT = linalg.IDENTITY - DARK  # the complement of the detected |3>

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


def _first_match_plan(model, settings, shots):
    """The plan by a search of the settings per ray and per edge, in order:
    each single at the first setting that maps its ray, each edge's pair at
    the first setting that maps both rays, every ray checked before any edge."""
    plan = []
    for ray in RAYS:
        sid = next((s.id for s in settings if ray in s.mapping.values()), None)
        if sid is None:
            raise ValueError(f"no setting maps ray v{ray}")
        plan.append(simulate.SubExperiment(sid, (ray,), shots))
    for edge in sorted(model.edges):
        sid = next((s.id for s in settings if set(edge) <= set(s.mapping.values())), None)
        if sid is None:
            raise ValueError(f"no setting covers edge {edge}")
        plan.append(simulate.SubExperiment(sid, edge, shots))
    return plan


def _plan_or_refusal(build, model, settings):
    try:
        return build(model, settings, 10)
    except ValueError as exc:
        return str(exc)


def test_build_plan_is_the_first_match_search(model, settings):
    """`build_plan`'s one pass over the settings gives the plan, or the
    refusal, of the first-match search on the table, reversed, trimmed at
    either end, without the settings that map v10 (a missing ray, found
    before the edges it also leaves uncovered) and without M5 (a missing edge)."""
    tables = {"table": settings, "reversed": settings[::-1],
              "missing ray": [s for s in settings if 10 not in s.mapping.values()],
              "missing edge": [s for s in settings if s.id != "M5"]}
    for k in range(len(settings)):
        tables[f"first {k}"], tables[f"from {k}"] = settings[:k], settings[k:]
    for name, table in tables.items():
        expected = _plan_or_refusal(_first_match_plan, model, table)
        assert _plan_or_refusal(simulate.build_plan, model, table) == expected, name
    assert _plan_or_refusal(simulate.build_plan, model, tables["missing ray"]) == \
        "no setting maps ray v10"
    assert _plan_or_refusal(simulate.build_plan, model, tables["missing edge"]) == \
        "no setting covers edge (4, 10)"


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


def test_build_plan_refuses_a_shot_count_numpy_cannot_draw(model, settings):
    """numpy draws counts as int64, so one shot more than its largest value
    is refused, with the bound, when the plan is built, not by numpy's bare
    `OverflowError` during the draw; the largest value itself is kept."""
    bound = f"a sub-experiment draws at most {simulate.MAX_SHOTS} shots, got {2 ** 63}"
    with pytest.raises(ValueError, match=bound):
        simulate.build_plan(model, settings, 2 ** 63)
    with pytest.raises(ValueError, match=bound):
        simulate.SubExperiment("M1", (1,), np.uint64(2 ** 63))
    assert simulate.MAX_SHOTS == np.iinfo(np.int64).max
    assert simulate.SubExperiment("M1", (1,), simulate.MAX_SHOTS).shots == 2 ** 63 - 1


@pytest.mark.parametrize("chain", [(1, 2, 3), (1, 1), ()])
def test_sub_experiment_refuses_a_chain_the_draw_cannot_measure(chain):
    """The draw reads a chain's first two rays and collapses between them,
    so three rays would be drawn as the pair of the first two, a repeated
    ray would read dark then bright, and no ray has no law: each is refused,
    naming the chain, when the sub-experiment is made."""
    with pytest.raises(ValueError, match=f"two distinct rays, got chain {re.escape(str(chain))}$"):
        simulate.SubExperiment("M1", chain)


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
    assert table.seed_key == stream_name(4, "psi3", [sub])


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
    state = simulate.StateSpec("rho10", np.eye(3) / 3)
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
    state = simulate.StateSpec("rho10", np.eye(3) / 3)
    law = _law(state, by_id["M5"], (4, 10), simulate.NoiseModel.paper())
    assert 0 < law["DD"] < 0.05


def test_roster_determinism(model, settings):
    plan = simulate.build_plan(model, settings, shots=500)
    roster = simulate.default_state_roster()[:3]
    noise = simulate.NoiseModel.paper()
    a = simulate.draw_roster(roster, plan, settings, noise, 99)
    b = simulate.draw_roster(roster, plan, settings, noise, 99)
    assert simulate.counts_to_csv(*a) == simulate.counts_to_csv(*b)
    c = simulate.draw_roster(roster, plan, settings, noise, 100)
    assert simulate.counts_to_csv(*a) != simulate.counts_to_csv(*c)


def _draws(run):
    """`draw_roster`'s names and count stack as comparable values: each
    state's stream name and counts, by label."""
    _, names, counts = run
    return {label: (name, c) for (label, name), c in zip(names.items(), counts.tolist())}


def test_stream_independence_of_execution_order(model, settings):
    """A state's tables depend only on (seed, state, plan), never on the rest
    of the roster: the full roster, the reversed roster and each one-state
    roster give each state the same stream name and count array, and the
    same tables, and they are `multinomial` draws of its laws, entry after
    entry, on a fresh `derive_rng` stream of its name, for all 12 x 37
    entries."""
    plan = simulate.build_plan(model, settings, shots=500)
    roster = simulate.default_state_roster()
    for name in ("ideal", "paper", "photon-count"):
        noise = NOISE_CONFIGS[name]
        run = simulate.draw_roster(roster, plan, settings, noise, 7)
        effs, _, counts = run
        assert effs is simulate.plan_effects(plan, settings, simulate.readout_rates(noise))
        assert counts.shape == (len(roster), len(plan), 3)
        assert counts.dtype == np.int64
        draws = _draws(run)
        reversed_run = simulate.draw_roster(roster[::-1], plan, settings, noise, 7)
        assert list(reversed_run[1]) == [s.label for s in roster[::-1]]
        assert _draws(reversed_run) == draws
        full = simulate.run_roster(roster, plan, settings, noise, 7)
        assert simulate.run_roster(roster[::-1], plan, settings, noise, 7) == full
        laws = expected_laws(roster, plan, settings, noise)
        for state in roster:
            alone = simulate.draw_roster([state], plan, settings, noise, 7)
            assert _draws(alone) == {state.label: draws[state.label]}
            assert simulate.run_roster([state], plan, settings, noise, 7) == \
                {state.label: full[state.label]}
            assert [list(t.counts.values()) for t in full[state.label]] == \
                [row[-len(t.counts):] for t, row in zip(full[state.label],
                                                        draws[state.label][1])]
            key = stream_name(7, state.label, plan)
            rng = derive_rng(key)
            solo = [(sub, dict(zip(law, rng.multinomial(sub.shots, list(law.values())).tolist())),
                     key) for sub, law in zip(plan, laws[state.label])]
            assert [(t.subexperiment, t.counts, t.seed_key)
                    for t in full[state.label]] == solo, (name, state.label)


def test_derive_rng_is_keyed_philox(settings):
    """The stream of a name is Philox at counter 0 under the first 16 bytes
    of sha256(name), as two little-endian uint64 words, and a state's run
    draws on the stream its seed, label and plan name."""
    sub = simulate.SubExperiment("M5", (4, 10), 10_000)
    name = stream_name(42, "psi7", [sub])
    assert name == "42/psi7/" + hashlib.sha256(b"pair:04-10:M5").hexdigest()[:16]
    key = np.frombuffer(hashlib.sha256(name.encode()).digest()[:16], "<u8")
    philox = derive_rng(name).bit_generator.state["state"]
    assert philox["key"].tolist() == key.tolist()
    assert philox["counter"].tolist() == [0, 0, 0, 0]
    state = simulate.default_state_roster()[6]
    table = simulate.run_roster([state], [sub], settings, NOISE_CONFIGS["paper"],
                                42)["psi7"][0]
    law = expected_laws([state], [sub], settings, NOISE_CONFIGS["paper"])["psi7"][0]
    expected = np.random.Generator(np.random.Philox(key=key)).multinomial(
        10_000, list(law.values()))
    assert table.seed_key == name
    assert list(table.counts.values()) == expected.tolist()


def test_a_stacked_draw_keeps_each_names_stream(model, settings):
    """`draw` re-keys its one generator for each law of a stack: every law's
    counts, one row of the (S, n, 3) int64 stack it returns, equal a fresh
    `Philox(key=...)` draw of its name alone, whatever the names before it,
    a repeated name included."""
    plan = simulate.build_plan(model, settings, 1)
    effs = simulate.plan_effects(plan, settings, simulate.readout_rates(NOISE_CONFIGS["paper"]))
    psi7, rho12 = (simulate.default_state_roster()[i].rho for i in (6, 11))
    laws = simulate._laws(effs, np.array([psi7, rho12, psi7, psi7]))
    shots = [1000 + 37 * k for k in range(len(plan))]
    names = ["1/psi1/p", "1/psi2/p", "2/psi1/p", "1/psi1/p"]
    counts = simulate.draw(laws, shots, names)
    assert (type(counts), counts.shape, counts.dtype) == (np.ndarray, laws.shape, np.int64)
    assert [(c.shape, c.dtype) for c in counts] == [(laws.shape[1:], np.int64)] * len(names)
    for name, law, drawn in zip(names, laws, counts):
        key = np.frombuffer(hashlib.sha256(name.encode()).digest()[:16], "<u8")
        fresh = np.random.Generator(np.random.Philox(key=key)).multinomial(shots, law)
        assert drawn.tolist() == fresh.tolist(), name
    assert counts[0].tolist() == counts[3].tolist() != counts[2].tolist()


def test_counts_csv_shape(model, settings):
    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()[:1]
    run = simulate.draw_roster(roster, plan, settings, simulate.NoiseModel.ideal(), 1)
    csv = simulate.counts_to_csv(*run)
    lines = csv.strip().splitlines()
    assert lines[0] == "state,setting,chain,symbol,count,seed"
    # 13 singles x 2 symbols + 24 pairs x 3 symbols
    assert len(lines) - 1 == 13 * 2 + 24 * 3


def test_counts_csv_is_each_states_rows_in_roster_order(model, settings):
    """`counts_to_csv` of a roster is the header, then each one-state run's
    rows, in roster order: the writer reads state s from row s of the count
    stack. A reversed roster only reorders those blocks."""
    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()
    noise = NOISE_CONFIGS["paper"]
    header = "state,setting,chain,symbol,count,seed\n"
    blocks = []
    for state in roster:
        text = simulate.counts_to_csv(*simulate.draw_roster([state], plan, settings, noise, 5))
        assert text.startswith(header)
        blocks.append(text[len(header):])
    assert len(set(blocks)) == len(roster)
    for order, expected in ((roster, blocks), (roster[::-1], blocks[::-1])):
        run = simulate.draw_roster(order, plan, settings, noise, 5)
        assert simulate.counts_to_csv(*run) == header + "".join(expected)


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
    run = simulate.draw_roster(roster, plan, settings, noise, 5)
    assert sorted(compiled) == sorted(s.id for s in settings)
    # equal content in fresh objects: the same plan, settings and rates
    fresh = settings_table()
    again = simulate.draw_roster(roster, simulate.build_plan(model, fresh, 1000),
                                 fresh, noise, 5)
    assert len(compiled) == len(settings)
    assert simulate.counts_to_csv(*again) == simulate.counts_to_csv(*run)


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
    run = simulate.draw_roster([state], plan, altered, noise, 3)
    simulate._plan_effects.cache_clear()
    fresh = simulate.draw_roster([state], plan, altered, noise, 3)
    assert simulate.counts_to_csv(*run) == simulate.counts_to_csv(*fresh)


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
        assert plane.shape == (9, 3 * len(plan)) and plane.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            plane[0, 0] = 0.0
    # element ij of each effect in row 3i + j, three per entry, a single's first 0
    expected = []
    for sub in plan:
        effs_of_sub = simulate.effects(
            simulate._projectors(by_id[sub.setting_id], sub.chain,
                                 compile_setting(by_id[sub.setting_id])),
            simulate.readout_rates(noise)).values()
        expected += [np.zeros((3, 3))] * (3 - len(effs_of_sub)) + [*effs_of_sub]
    assert np.array_equal(effect_stack(effs), np.array(expected))


def _ray_projector(ray: int) -> np.ndarray:
    """The rational projector v v^T / (v . v) of integer ray v, as `Fraction`s."""
    v = RAYS[ray]
    norm = sum(x * x for x in v)
    return np.array([[Fraction(a * b, norm) for b in v] for a in v], dtype=object)


@pytest.mark.parametrize("noise", ["ideal", "paper", "flip-depolarized", "photon-count"])
def test_drawn_effects_are_the_exact_effects_of_the_rays(model, settings, noise):
    """Every plan entry's drawn effects equal, to 1e-15, `effects` of its
    rays' rational projectors at the float rates' exact values: the compiled
    unitary and slot swaps detect the very rays the plan names, and the
    simulator and the exact map share one effect builder."""
    plan = simulate.build_plan(model, settings)
    rates = simulate.readout_rates(NOISE_CONFIGS[noise])
    drawn = effect_stack(simulate.plan_effects(plan, settings, rates))
    exact = []
    for sub in plan:
        effs = simulate.effects([_ray_projector(r) for r in sub.chain],
                                (Fraction(rates[0]), Fraction(rates[1])))
        exact += [np.zeros((3, 3))] * (3 - len(effs)) + [e.astype(float) for e in effs.values()]
    assert len(plan) == 37
    assert np.abs(drawn - np.array(exact)).max() <= 1e-15


def test_expected_laws_do_not_depend_on_the_rest_of_the_call(model, settings):
    """A law's bits are the same whether its state and entry are computed
    alone or among all states and entries, so a one-state run draws the
    counts of the full roster."""
    plan = simulate.build_plan(model, settings)
    roster = simulate.default_state_roster()

    def computed(states, entries, noise):
        return expected_laws(states, entries, settings, noise)

    for noise in NOISE_CONFIGS.values():
        full = computed(roster, plan, noise)
        for state in roster[::4]:
            alone = [computed([state], [sub], noise)[state.label][0] for sub in plan]
            assert alone == full[state.label]
            assert computed(roster[::-1], plan[::-1], noise)[state.label] == \
                full[state.label][::-1]


def test_run_roster_draws_once_per_state_and_entry(model, settings, monkeypatch):
    """Each (state, entry) is drawn once: a run builds exactly one Philox
    generator, re-keyed for each later state, and draws all of a state's
    entries in one `multinomial` call over its (entries, 3) law row."""
    built, draws = [], []
    philox = np.random.Philox

    class Counting(np.random.Generator):
        def multinomial(self, n, pvals, size=None):
            draws.append(np.shape(pvals))
            return super().multinomial(n, pvals, size)

    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or philox(*a, **k))
    monkeypatch.setattr(np.random, "Generator", Counting)
    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()
    tables = simulate.run_roster(roster, plan, settings, simulate.NoiseModel.paper(), 2)
    assert len(built) == 1
    assert draws == [(len(plan), 3)] * len(roster)
    assert [[t.subexperiment for t in ts] for ts in tables.values()] == [plan] * len(roster)


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
    stack = effect_stack(plan_effs)  # three per entry, a single's zero pad among them
    assert len(stack) == 3 * len(plan_effs.symbols)
    for effs in stack.reshape(-1, 3, 3, 3):
        assert np.allclose(effs.sum(axis=0), np.eye(3), rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(effs).min() >= -1e-12


@pytest.mark.parametrize("noise", NOISE_CONFIGS.values(), ids=NOISE_CONFIGS)
def test_a_single_leads_with_a_zero_pad(model, settings, noise):
    """Each single's first column is a zero effect in both planes, so every
    state's law row of a single reads (0, P(D), P(B)), which the one draw
    takes as it is."""
    plan = simulate.build_plan(model, settings)
    effs = _plan_effects(plan, settings, noise)
    singles = [3 * k for k, sub in enumerate(plan) if len(sub.chain) == 1]
    assert len(singles) == 13
    for plane in (effs.re, effs.im):
        assert not plane[:, singles].any()
    roster = simulate.default_state_roster()
    laws = expected_laws(roster, plan, settings, noise)
    for state in roster:
        row = simulate._laws(effs, simulate.prepare(state, noise)).tolist()
        for sub, law, drawn in zip(plan, laws[state.label], row):
            if len(sub.chain) == 1:
                assert drawn == [0.0, law["D"], law["B"]]


@pytest.mark.parametrize("name", ["ideal", "paper", "photon-count", "flip-depolarized"])
def test_stacked_laws_keep_each_states_bits(model, settings, name):
    """`_laws` of the roster's (12, 3, 3) stack of prepared states gives
    each state, `float.hex` for `float.hex`, the law of a call on its matrix
    alone: the stack adds the same nine rows in the same order."""
    noise = NOISE_CONFIGS[name]
    plan = simulate.build_plan(model, settings)
    effs = _plan_effects(plan, settings, noise)
    rhos = [simulate.prepare(state, noise) for state in simulate.default_state_roster()]
    stacked = simulate._laws(effs, np.array(rhos))
    assert stacked.shape == (len(rhos), len(plan), 3)

    def bits(law):
        return [float.hex(p) for p in law.ravel().tolist()]
    for rho, law in zip(rhos, stacked):
        assert bits(law) == bits(simulate._laws(effs, rho))


DRAW_SHOTS = (1, 7, 2000, 10 ** 6, 2 ** 62, 2 ** 63 - 1)


def _assert_draws_are_multinomial(monkeypatch, settings, law):
    """`run_roster` of a plan of one entry per shot count of `DRAW_SHOTS`,
    each entry's law stubbed to `law`, on three seeds: each table holds
    Python-int counts of its own symbols alone (a single has no third count),
    summing to its shots, and the tables are numpy's `multinomial` draws of
    `law`, entry after entry, on a fresh `derive_rng` stream of the state's
    name."""
    chain = (1,) if len(law) == 2 else (1, 2)
    plan = [simulate.SubExperiment("M1", chain, shots) for shots in DRAW_SHOTS]
    effs = simulate.plan_effects(plan, settings, IDEAL_RATES)
    padded = [0.0] * (3 - len(law)) + list(law)
    monkeypatch.setattr(simulate, "_laws",  # one (n, 3) law per state of the stack
                        lambda effs, rho: np.array([[padded] * len(plan)] * len(rho)))
    state = simulate.default_state_roster()[0]
    for seed in range(3):
        [tables] = simulate.run_roster([state], plan, settings, NoiseModel.ideal(),
                                       seed).values()
        rng = derive_rng(stream_name(seed, state.label, plan))
        for sub, syms, table in zip(plan, effs.symbols, tables):
            expected = rng.multinomial(sub.shots, law).tolist()
            assert table.counts == dict(zip(syms, expected)), (sub.shots, seed)
            assert list(table.counts) == list(syms)
            assert all(type(c) is int for c in table.counts.values())
            assert sum(table.counts.values()) == sub.shots


@pytest.mark.parametrize("p_dark", [0.0, 5e-324, 0.021, 0.5, 0.99, 1 - 2 ** -53, 1.0])
def test_two_outcome_draw_is_the_multinomial_draw(monkeypatch, settings, p_dark):
    """A single's law, padded with a leading 0 in the state's one draw,
    gives the counts of numpy's two-outcome `multinomial` at every law and
    shot count: the padded step, at probability 0, draws nothing."""
    _assert_draws_are_multinomial(monkeypatch, settings, [p_dark, 1.0 - p_dark])


def test_a_single_draws_its_remainder_on_b(monkeypatch, settings):
    """The leading pad puts a single's remainder on B even where
    P(B) / (1 - P(D)) rounds below 1, as here, where a trailing pad would
    get counts (440 of 2^62 shots on one stream)."""
    _assert_draws_are_multinomial(monkeypatch, settings, [0.1, np.nextafter(0.9, 0.0)])


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
def test_pair_draw_is_the_multinomial_draw(monkeypatch, settings, law):
    """A pair's law gives numpy's three-outcome `multinomial` counts at
    every law and shot count, including laws whose P(DB) / (1 - P(B))
    rounds above 1, where numpy gives DB all the rest."""
    _assert_draws_are_multinomial(monkeypatch, settings, law)


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


def test_state_keeps_its_checked_matrix():
    """A state keeps a read-only copy of the matrix it checked, so a later
    write to the caller's array cannot change it."""
    rho = np.eye(3, dtype=complex) / 3
    state = simulate.StateSpec("rho10", rho)
    rho[0, 0] = 1.0
    assert np.array_equal(state.rho, np.eye(3) / 3)
    with pytest.raises(ValueError, match="read-only"):
        state.rho[0, 0] = 1.0


def test_state_constructor_checks_the_matrix():
    with pytest.raises(ValueError, match="trace differs from 1"):
        simulate.StateSpec("bad", np.eye(3))
    with pytest.raises(ValueError, match="^density matrix must be 3x3$"):
        simulate.StateSpec("x", np.eye(2) / 2)


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


def test_subexperiment_key_is_formatted_once(model, settings, monkeypatch):
    """A sub-experiment formats its key once, on first use. A run formats
    none: its plan's stream id, hashed from the same keys, is formed once per
    cached plan, and the stream names are those of the sub-experiments' keys."""
    formatted, hashed = [], []
    original = simulate.SubExperiment.key
    entry_key = simulate._entry_key

    def counting(sub):
        formatted.append(sub)
        return original.func(sub)

    key = functools.cached_property(counting)
    key.__set_name__(simulate.SubExperiment, "key")
    monkeypatch.setattr(simulate.SubExperiment, "key", key)
    monkeypatch.setattr(simulate, "_entry_key",
                        lambda *args: hashed.append(args) or entry_key(*args))
    plan = simulate.build_plan(model, settings, shots=100)
    roster = simulate.default_state_roster()
    simulate._plan_effects.cache_clear()
    for seed in (1, 2):
        tables = simulate.run_roster(roster, plan, settings, NOISE_CONFIGS["paper"], seed)
    assert formatted == []
    assert hashed == [(sub.setting_id, sub.chain) for sub in plan]
    assert {t.seed_key for t in tables["psi1"]} == {stream_name(2, "psi1", plan)}
    assert formatted == plan
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


def test_laws_follow_the_prepared_state(model, settings):
    """A law is formed from the prepared rho, never from the label: two
    states under one label, and one state under two depolarizations with
    the same readout rates, each get the law a fresh cache gives them."""
    plan = simulate.build_plan(model, settings)
    psi1, psi4 = (simulate.default_state_roster()[i] for i in (0, 3))
    paper = NOISE_CONFIGS["paper"]
    depolarized = dataclasses.replace(paper, prep_depolarization=0.1)
    cases = [([psi1], paper), ([simulate.StateSpec("psi1", psi4.rho)], paper),
             ([psi4], paper), ([psi4], depolarized)]
    warm = [_rows(states, plan, settings, noise) for states, noise in cases]
    fresh = []
    for states, noise in cases:
        simulate._plan_effects.cache_clear()
        fresh.append(_rows(states, plan, settings, noise))
    assert warm == fresh
    assert warm[0] != warm[1] == warm[2] != warm[3]


def _random_states(n, seed):
    rng = np.random.default_rng(seed)
    return [simulate.StateSpec(f"r{i}", random_density_matrix(rng))
            for i in range(n)]


def test_no_field_of_cached_plan_effects_can_be_mutated(model, settings):
    """A cached `PlanEffects` is shared by every run of its plan, so a
    caller can neither rebind a field nor change what one holds: the planes
    are read-only, and every other field is made of tuples, strings and ints
    (the rays of each entry's chain) all the way down."""
    def frozen(value):
        if isinstance(value, np.ndarray):
            return not value.flags.writeable
        if isinstance(value, tuple):
            return all(frozen(v) for v in value)
        return isinstance(value, (str, int))

    plan = simulate.build_plan(model, settings, shots=1000)
    effs = _plan_effects(plan, settings, NOISE_CONFIGS["paper"])
    for name, value in zip(effs._fields, effs):
        with pytest.raises(AttributeError):
            setattr(effs, name, value)
        assert frozen(value), name


def _sweep(model, settings, plan, noises):
    """36 one-state runs, each with its four estimates, as a pull gate
    repeats them over seeds."""
    for noise in noises:
        corrections = (simulate.readout_rates(NoiseModel.ideal()),
                       simulate.readout_rates(noise))
        for state in simulate.default_state_roster():
            [counts] = simulate.draw_roster([state], plan, settings, noise, 1)[2]
            freqs = analysis.frequencies(plan, counts)
            for ineq in (model.chi13, CHI4):
                for rates in corrections:
                    analysis.estimate(ineq, freqs, rates)


def test_one_state_runs_stay_small_in_memory(model, settings):
    """Warm one-state runs and their estimates allocate at most 64 KiB at
    their peak over three sweeps, and 500 distinct states leave at most
    256 KiB held: a run keeps nothing per state. A faster run lets a
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
