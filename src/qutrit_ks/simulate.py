"""Simulation of the sequential fluorescence-detection runs.

The physics of one shot is exact 3x3 quantum mechanics: prepare a density
matrix, apply the compiled setting unitary, swap the interrogated slot onto
the dark state |3>, and detect. Collapse always follows the TRUE projection
outcome; readout errors affect only the recorded symbol and the decision to
continue a sequential pair, exactly as the physical apparatus behaves.

Shots are i.i.d., so the counts of one sub-experiment follow an exact
multinomial law. `outcome_law` computes it once from the true branch
probabilities and the closed-form readout rates of `readout_rates`, and each
sub-experiment makes a single binomial or multinomial draw from its own
`derive_rng` stream. Time and memory therefore do not grow with the shot
count. The one-shot `detect` below is the reference process: the counts
match it in distribution, not sample for sample.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import KSModel, ray_unit
from .pulses import MeasurementSetting, compile_setting, pulse_matrix, swap_pulse

DARK = np.diag([0.0, 0.0, 1.0]).astype(complex)  # |3><3|
BRIGHT = linalg.IDENTITY - DARK


@dataclass(frozen=True)
class StateSpec:
    label: str
    kind: str  # "pure" | "mixed"
    rho: np.ndarray

    @staticmethod
    def pure(label: str, amplitudes) -> "StateSpec":
        return StateSpec(label, "pure", linalg.pure_state_dm(amplitudes))

    @staticmethod
    def mixed(label: str, rho) -> "StateSpec":
        return StateSpec(label, "mixed", linalg.validate_density_matrix(np.asarray(rho, dtype=complex)))


def default_state_roster() -> list[StateSpec]:
    """Twelve initial states: basis states, ray-aligned and generic
    superpositions, and three mixed states."""
    s2 = math.sqrt(2)
    psi7 = np.array([1, 1, s2]) / 2
    roster = [
        StateSpec.pure("psi1", [1, 0, 0]),
        StateSpec.pure("psi2", [0, 1, 0]),
        StateSpec.pure("psi3", [0, 0, 1]),
        StateSpec.pure("psi4", ray_unit(13)),
        StateSpec.pure("psi5", ray_unit(10)),
        StateSpec.pure("psi6", ray_unit(4)),
        StateSpec.pure("psi7", psi7),
        StateSpec.pure("psi8", np.array([1, np.exp(1j * math.pi / 4), 1]) / math.sqrt(3)),
        StateSpec.pure("psi9", np.array([s2, 1j, 1]) / 2),
        StateSpec.mixed("rho10", linalg.IDENTITY / 3),
        StateSpec.mixed("rho11", np.diag([0.5, 0.5, 0.0])),
        StateSpec.mixed("rho12", 0.8 * np.outer(psi7, psi7.conj()) + 0.2 * np.eye(3) / 3),
    ]
    for spec in roster:
        linalg.validate_density_matrix(spec.rho)
    return roster


@dataclass(frozen=True)
class NoiseModel:
    mode: str = "flip"  # "ideal" | "flip" | "photon-count"
    eps_dark_to_bright: float = 0.010
    eps_bright_to_dark: float = 0.021
    lambda_bright: float = 10.0
    lambda_dark: float = 0.0
    threshold: int = 1
    prep_depolarization: float = 0.0

    def __post_init__(self):
        if self.mode not in ("ideal", "flip", "photon-count"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        for p in (self.eps_dark_to_bright, self.eps_bright_to_dark,
                  self.prep_depolarization):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.threshold < 1:
            raise ValueError("photon threshold must be >= 1")

    @staticmethod
    def ideal() -> "NoiseModel":
        return NoiseModel(mode="ideal", eps_dark_to_bright=0.0, eps_bright_to_dark=0.0)

    @staticmethod
    def paper() -> "NoiseModel":
        return NoiseModel(mode="flip")


@dataclass(frozen=True)
class SubExperiment:
    setting_id: str
    chain: tuple[int, ...]  # 1 ray (single) or 2 rays (sequential pair)
    shots: int = 10_000

    @property
    def key(self) -> str:
        return f"{'single' if len(self.chain) == 1 else 'pair'}:" \
               f"{'-'.join(f'{r:02d}' for r in self.chain)}:{self.setting_id}"


@dataclass
class CountTable:
    subexperiment: SubExperiment
    state_label: str
    counts: dict[str, int]
    seed_key: str

    @property
    def shots(self) -> int:
        return sum(self.counts.values())


def build_plan(model: KSModel, settings: list[MeasurementSetting],
               shots: int = 10_000) -> list[SubExperiment]:
    """Deterministic plan: one single per observable at its first covering
    setting, plus one sequential pair per graph edge.

    Returns 13 + 24 = 37 sub-experiments; total realizations = 37 * shots.
    """
    by_id = {s.id: s for s in settings}
    order = [s.id for s in settings]

    plan: list[SubExperiment] = []
    for ray in range(1, 14):
        sid = next((i for i in order if ray in by_id[i].mapping.values()), None)
        if sid is None:
            raise ValueError(f"no setting maps ray v{ray}")
        plan.append(SubExperiment(sid, (ray,), shots))
    for edge in sorted(model.edges):
        sid = next(
            (i for i in order
             if set(edge) <= set(by_id[i].mapping.values())), None)
        if sid is None:
            raise ValueError(f"no setting covers edge {edge}")
        plan.append(SubExperiment(sid, edge, shots))
    return plan


def derive_rng(master_seed: int, *parts: str) -> np.random.Generator:
    """Independent stream keyed by (seed, labels); order-independent across
    parallel execution because the key, not the call sequence, decides it."""
    digest = hashlib.sha256(
        ("/".join([str(master_seed), *parts])).encode()).digest()
    words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence(words))


def _prepare(state: StateSpec, noise: NoiseModel) -> np.ndarray:
    rho = state.rho
    p = noise.prep_depolarization
    if p > 0.0:
        rho = (1 - p) * rho + p * linalg.IDENTITY / 3
    return rho


def _slot_of(setting: MeasurementSetting, ray: int) -> int:
    for basis, r in setting.mapping.items():
        if r == ray:
            return basis
    raise ValueError(f"ray v{ray} is not mapped in setting {setting.id}")


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


def readout_rates(noise: NoiseModel) -> tuple[float, float]:
    """Closed-form readout rates (r_d, r_b) of `_readout_dark`:
    r_d = P(read dark | dark) and r_b = P(read dark | bright)."""
    if noise.mode == "ideal":
        return 1.0, 0.0
    if noise.mode == "flip":
        return 1.0 - noise.eps_dark_to_bright, noise.eps_bright_to_dark
    return (_poisson_below(noise.threshold, noise.lambda_dark),
            _poisson_below(noise.threshold, noise.lambda_bright))


def _poisson_below(threshold: int, lam: float) -> float:
    """P(N < threshold) for N ~ Poisson(lam)."""
    if lam == 0.0:
        return 1.0
    log_lam = math.log(lam)
    return _clip01(math.fsum(math.exp(k * log_lam - lam - math.lgamma(k + 1))
                             for k in range(threshold)))


def read_dark_probability(p_dark: float, rates: tuple[float, float]) -> float:
    """P(read dark) when the true outcome is dark with probability p_dark."""
    r_d, r_b = rates
    return _clip01(p_dark * r_d + (1.0 - p_dark) * r_b)


def _clip01(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def _dark_prob(rho: np.ndarray) -> float:
    return _clip01(float(rho[2, 2].real))


def _conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u @ rho @ linalg.adjoint(u)


def outcome_law(state: StateSpec, setting: MeasurementSetting,
                chain: tuple[int, ...], noise: NoiseModel,
                unitary: np.ndarray | None = None) -> dict[str, float]:
    """Per-shot outcome probabilities of one sub-experiment, keyed by the
    count-table symbols: D/B for a single, B/DB/DD for a sequential pair.

    `unitary` is the compiled setting; it is compiled here when omitted.
    """
    slots = [_slot_of(setting, ray) for ray in chain]
    if unitary is None:
        unitary = compile_setting(setting)
    rho = _conjugate(unitary, _prepare(state, noise))
    if slots[0] != 3:
        rho = _conjugate(pulse_matrix(swap_pulse(slots[0])), rho)
    rates = readout_rates(noise)
    p1 = _dark_prob(rho)
    q1 = read_dark_probability(p1, rates)
    if len(chain) == 1:
        return {"D": q1, "B": 1.0 - q1}

    # When ray_j sat in |3>, the first swap moved it to the first slot.
    slot_j = slots[0] if slots[1] == 3 else slots[1]
    w2 = pulse_matrix(swap_pulse(slot_j))
    # Post-first-measurement branches, then second swap.
    p2_given_dark = _dark_prob(_conjugate(w2, DARK))
    if p1 < 1.0:
        rho_bright = BRIGHT @ rho @ BRIGHT / (1.0 - p1)
        p2_given_bright = _dark_prob(_conjugate(w2, rho_bright))
    else:
        p2_given_bright = 0.0

    # The stop/continue decision follows the noisy readout; the collapse
    # follows the true outcome.
    r_d, r_b = rates
    p_dd = (p1 * r_d * read_dark_probability(p2_given_dark, rates)
            + (1.0 - p1) * r_b * read_dark_probability(p2_given_bright, rates))
    return {"B": 1.0 - q1, "DB": _clip01(q1 - p_dd), "DD": p_dd}


def _draw(law: dict[str, float], shots: int,
          rng: np.random.Generator) -> dict[str, int]:
    """Counts of `shots` i.i.d. shots: one multinomial draw, which for a
    two-outcome law is the binomial draw `rng.binomial(shots, P(D))`."""
    counts = rng.multinomial(shots, list(law.values()))
    return {symbol: int(n) for symbol, n in zip(law, counts)}


def run_single(state: StateSpec, setting: MeasurementSetting, ray: int,
               noise: NoiseModel, shots: int,
               rng: np.random.Generator) -> dict[str, int]:
    """Single-observable run: dark counts estimate the projector average."""
    return _draw(outcome_law(state, setting, (ray,), noise), shots, rng)


def run_pair(state: StateSpec, setting: MeasurementSetting, ray_i: int,
             ray_j: int, noise: NoiseModel, shots: int,
             rng: np.random.Generator) -> dict[str, int]:
    """Sequential pair run with symbols B (first bright), DB, DD."""
    return _draw(outcome_law(state, setting, (ray_i, ray_j), noise), shots, rng)


def run_subexperiment(state: StateSpec, sub: SubExperiment,
                      settings_by_id: dict[str, MeasurementSetting],
                      noise: NoiseModel, master_seed: int,
                      unitary: np.ndarray | None = None) -> CountTable:
    """One sub-experiment from its own stream; `unitary` is the compiled
    setting, compiled here when omitted."""
    law = outcome_law(state, settings_by_id[sub.setting_id], sub.chain, noise,
                      unitary)
    seed_key = f"{master_seed}/{state.label}/{sub.key}"
    rng = derive_rng(master_seed, state.label, sub.key)
    return CountTable(sub, state.label, _draw(law, sub.shots, rng), seed_key)


def run_roster(roster: list[StateSpec], plan: list[SubExperiment],
               settings: list[MeasurementSetting], noise: NoiseModel,
               master_seed: int) -> dict[str, list[CountTable]]:
    """Full run; deterministic for a given master seed regardless of the
    order in which sub-experiments execute. Each setting the plan uses is
    compiled once."""
    by_id = {s.id: s for s in settings}
    unitaries = {sid: compile_setting(by_id[sid])
                 for sid in dict.fromkeys(sub.setting_id for sub in plan)}
    return {
        state.label: [
            run_subexperiment(state, sub, by_id, noise, master_seed,
                              unitaries[sub.setting_id])
            for sub in plan
        ]
        for state in roster
    }


def counts_to_csv(tables: dict[str, list[CountTable]]) -> str:
    lines = ["state,setting,chain,symbol,count,seed"]
    for label in tables:
        for t in tables[label]:
            chain = "-".join(str(r) for r in t.subexperiment.chain)
            for symbol in sorted(t.counts):
                lines.append(f"{label},{t.subexperiment.setting_id},{chain},"
                             f"{symbol},{t.counts[symbol]},{t.seed_key}")
    return "\n".join(lines) + "\n"
