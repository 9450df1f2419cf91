"""Simulation of the sequential fluorescence-detection runs.

The physics of one shot is exact 3x3 quantum mechanics: prepare a density
matrix, apply the compiled setting unitary, swap the interrogated slot onto
the dark state |3>, and detect. Collapse always follows the TRUE projection
outcome; readout errors affect only the recorded symbol and the decision to
continue a sequential pair, exactly as the physical apparatus behaves.

That process is one noise-folded measurement map, which tomography reads
too: `effects` turns the unitary before each detection and the readout
rates into one 3x3 effect per readout string, so every outcome probability
is Tr(rho E). A process stacks the effects of each distinct plan once
(`_plan_effects`, 13 singles x 2 symbols + 24 pairs x 3 = 98 for the
default plan, keyed on the settings themselves, which hash by content, the
chains and the readout rates, never on the seed, state or shots).
`expected_laws` is the one place a law is computed: it contracts all
prepared states with that stack in one Tr(rho E).

Shots are i.i.d., so each sub-experiment makes a single multinomial draw
from its law (`run_subexperiment`), and cost does not grow with the shot
count. Each (seed, state, sub-experiment) draws from its own keyed Philox
stream (`derive_rng`), so counts do not depend on execution order.
`numpy.random` is loaded on first use, not at import.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import KSModel, ray_unit
from .pulses import MeasurementSetting, compile_setting, pulse_matrix, swap_pulse

DARK = np.diag([0.0, 0.0, 1.0]).astype(complex)  # |3><3|
BRIGHT = linalg.IDENTITY - DARK
# Pi pulse moving basis state `slot` onto the detected |3> (none for |3>).
SWAP = {1: pulse_matrix(swap_pulse(1)), 2: pulse_matrix(swap_pulse(2)),
        3: linalg.IDENTITY}


@dataclass(frozen=True)
class StateSpec:
    label: str
    rho: np.ndarray

    @staticmethod
    def pure(label: str, amplitudes) -> "StateSpec":
        return StateSpec(label, linalg.projector_from_ray(amplitudes))

    @staticmethod
    def mixed(label: str, rho) -> "StateSpec":
        return StateSpec(label, linalg.validate_density_matrix(np.asarray(rho, dtype=complex)))


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
        if self.eps_dark_to_bright + self.eps_bright_to_dark >= 1.0:
            raise ValueError("flip rates must sum to less than 1")
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
    """The stream keyed by (seed, labels): Philox4x64 (Salmon et al., SC'11)
    with its counter at 0 and its key the first 16 bytes of
    sha256("seed/label/..."), read as two little-endian uint64 words. Each
    key is its own stream, so draws do not depend on the order in which
    sub-experiments execute."""
    return np.random.Generator(np.random.Philox(
        key=_philox_key("/".join([str(master_seed), *parts]))))


def _philox_key(name: str) -> np.ndarray:
    return np.frombuffer(hashlib.sha256(name.encode()).digest()[:16], dtype="<u8")


_ZERO4 = np.zeros(4, dtype=np.uint64)


def _rekey(rng: np.random.Generator, name: str) -> np.random.Generator:
    """`rng` moved to the start of the stream `derive_rng` keys by `name`:
    its Philox bit generator at counter 0, with an empty output buffer."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": _philox_key(name)},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def prepare(state: StateSpec, noise: NoiseModel) -> np.ndarray:
    """The state a run starts from, after preparation depolarization."""
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


def readout_rates(noise: NoiseModel) -> tuple[float, float]:
    """Closed-form readout rates r_d = P(read dark | dark) and r_b =
    P(read dark | bright); photon-count reads dark below `threshold`."""
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
    return min(math.fsum(math.exp(k * log_lam - lam - math.lgamma(k + 1))
                         for k in range(threshold)), 1.0)


def _lueders(v: np.ndarray, inner: np.ndarray, m_d: float,
             m_b: float) -> np.ndarray:
    """Effect of `v`, then a |3> detection whose true dark and bright
    outcomes are weighted m_d and m_b, then `inner` on the collapsed state."""
    collapsed = m_d * DARK @ inner @ DARK + m_b * BRIGHT @ inner @ BRIGHT
    return linalg.adjoint(v) @ collapsed @ v


def effects(steps: list[np.ndarray],
            rates: tuple[float, float]) -> dict[str, np.ndarray]:
    """Heisenberg-picture effect E_s, P(s) = Tr(rho E_s), of each readout
    string s of |3> detections, `steps[k]` being the unitary (or a stack of
    them) before detection k. Collapse follows the true outcome, the rates
    weight each branch, and a bright readout ends the sequence. Keys follow
    the draw order: D, B for one detection; B, DB, DD for two."""
    r_d, r_b = rates
    v, rest = steps[0], steps[1:]
    bright = _lueders(v, linalg.IDENTITY, 1.0 - r_d, 1.0 - r_b)
    if not rest:
        return {"D": _lueders(v, linalg.IDENTITY, r_d, r_b), "B": bright}
    inner = effects(rest, rates)
    return {"B": bright, **{"D" + s: _lueders(v, inner[s], r_d, r_b)
                            for s in sorted(inner)}}


def _steps(setting: MeasurementSetting, chain: tuple[int, ...],
           unitary: np.ndarray) -> list[np.ndarray]:
    """Unitary before each detection of a sub-experiment: the compiled
    setting `unitary`, then a swap of each ray's slot onto |3>."""
    slot_i, *rest = (_slot_of(setting, ray) for ray in chain)
    steps = [SWAP[slot_i] @ unitary]
    if rest:
        # When ray_j sat in |3>, the first swap moved it to the first slot.
        steps.append(SWAP[slot_i if rest[0] == 3 else rest[0]])
    return steps


@functools.lru_cache(maxsize=8)
def _plan_effects(settings: tuple[MeasurementSetting, ...], entries: tuple,
                  rates: tuple[float, float]
                  ) -> tuple[tuple[tuple[str, ...], ...], np.ndarray]:
    """The readout symbols of each plan entry `(setting id, chain)` and one
    read-only `(n, 3, 3)` stack of their effects under readout `rates`, entry
    after entry in draw order. Each setting the entries use is compiled
    once. Settings hash by content, never by id alone, so a process
    computes each distinct plan once."""
    by_id = {s.id: s for s in settings}
    unitaries = {sid: compile_setting(by_id[sid])
                 for sid in dict.fromkeys(sid for sid, _ in entries)}
    compiled = [effects(_steps(by_id[sid], chain, unitaries[sid]), rates)
                for sid, chain in entries]
    stack = np.array([e for effs in compiled for e in effs.values()]).reshape(-1, 3, 3)
    stack.flags.writeable = False
    return tuple(tuple(effs) for effs in compiled), stack


def expected_laws(roster: list[StateSpec], plan: list[SubExperiment],
                  settings: list[MeasurementSetting],
                  noise: NoiseModel) -> dict[str, list[dict[str, float]]]:
    """Per-shot outcome law of every (state, plan entry), keyed by state
    label, then by the count-table symbols in draw order: D/B for a single,
    B/DB/DD for a sequential pair. Every Tr(rho_s E_k) comes from one
    contraction of the prepared states with the plan's cached effect stack,
    clipped to [0, 1]."""
    symbols, stack = _plan_effects(
        tuple(settings), tuple((sub.setting_id, sub.chain) for sub in plan),
        readout_rates(noise))
    rhos = np.array([prepare(state, noise) for state in roster]).reshape(-1, 1, 9)
    effs = stack.reshape(1, -1, 9)
    # rho and E are Hermitian, so Tr(rho E) = sum_ij Re(conj(E_ij) rho_ij). The
    # nine terms are added one by one in a fixed order, so a law's bits do not
    # depend on the other states or entries in the call, as a BLAS or einsum
    # reduction's may.
    terms = rhos.real * effs.real + rhos.imag * effs.imag
    rows = np.clip(functools.reduce(np.add, np.moveaxis(terms, 2, 0)), 0.0, 1.0)
    laws = {}
    for state, row in zip(roster, rows.tolist()):
        flat = iter(row)
        laws[state.label] = [{s: next(flat) for s in syms} for syms in symbols]
    return laws


def run_subexperiment(law: dict[str, float], sub: SubExperiment, seed_key: str,
                      rng: np.random.Generator) -> CountTable:
    """Counts of `sub.shots` i.i.d. shots of `law`: one multinomial draw
    (for a two-outcome law, the binomial draw `binomial(shots, P(D))`) from
    the stream `derive_rng` keys by `seed_key`, onto which `rng` is re-keyed."""
    counts = _rekey(rng, seed_key).multinomial(sub.shots, list(law.values()))
    return CountTable(sub, {s: int(n) for s, n in zip(law, counts)}, seed_key)


def run_roster(roster: list[StateSpec], plan: list[SubExperiment],
               settings: list[MeasurementSetting], noise: NoiseModel,
               master_seed: int) -> dict[str, list[CountTable]]:
    """Full run: each of the `expected_laws` drawn on the stream of its
    (seed, state, sub-experiment), so counts do not depend on the order in
    which sub-experiments execute. One generator, re-keyed for each
    sub-experiment, serves the call and never leaves it."""
    laws = expected_laws(roster, plan, settings, noise)
    rng = derive_rng(master_seed)
    return {
        label: [run_subexperiment(law, sub, f"{master_seed}/{label}/{sub.key}", rng)
                for sub, law in zip(plan, state_laws)]
        for label, state_laws in laws.items()
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
