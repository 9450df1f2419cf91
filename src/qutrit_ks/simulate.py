"""Simulation of the sequential fluorescence-detection runs.

The physics of one shot is exact 3x3 quantum mechanics: prepare a density
matrix, apply the compiled setting unitary, swap the interrogated slot onto
the dark state |3>, and detect. Collapse always follows the TRUE projection
outcome; readout errors affect only the recorded symbol and the decision to
continue a sequential pair, exactly as the physical apparatus behaves.

That process is one noise-folded measurement map, which tomography draws
and solves through too (its settings map no ray, so its singles name their
slot): `effects` turns the unitary before each detection and the readout
rates into one 3x3 effect per readout string, so every outcome probability
is Tr(rho E). A process stacks the effects of each distinct plan once
(`_plan_effects`, 13 singles x 2 symbols + 24 pairs x 3 = 98 for the
default plan, keyed on the settings themselves, the chains and the readout
rates, never on the seed, state or shots). A setting hashes by content and
computes that hash once, on first use. The stack is kept as (9, n) real and
imaginary planes of the effects' matrix elements. `_law_row`, the one place
a law is computed, forms a state's row of Tr(rho E) as nine row adds in a
fixed order, and `PlanEffects.law_row` keeps the last `_MEMO_ROWS` rows in
an LRU keyed by prepared rho, so a state redrawn over seeds forms one row.

Shots are i.i.d., so each sub-experiment makes a single draw from its law
(`run_subexperiment`), and cost does not grow with the shot count: numpy's
`multinomial` draw, made as its binomial steps, one for a single's two
outcomes and two for a pair's three, so the counts are those of
`multinomial`. `run_roster` draws from each state's law row directly. Each
(seed, state, sub-experiment) draws from its own keyed Philox stream
(`_KeyedStream`), so counts do not depend on execution order. A run takes one
generator from a small module pool and gives it back when it returns, so no
two live runs, concurrent or nested, share one, and a run builds none while
the pool has one idle. It re-keys that generator for each draw by swapping
the key words, as Python ints, into one kept state dict, and each
sub-experiment formats its key once. `numpy.random` is loaded on first use.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .model import RAYS, KSModel, ray_unit
from .pulses import MeasurementSetting, compile_setting, pulse_matrix, swap_pulse

DARK = np.diag([0.0, 0.0, 1.0]).astype(complex)  # |3><3|
BRIGHT = linalg.IDENTITY - DARK
# Pi pulse moving basis state `slot` onto the detected |3> (none for |3>).
SWAP = {1: pulse_matrix(swap_pulse(1)), 2: pulse_matrix(swap_pulse(2)),
        3: linalg.IDENTITY}
_MEMO_ROWS = 32  # law rows a plan's effects keep, ~5 KB each for the default plan


@dataclass(frozen=True)
class StateSpec:
    label: str
    rho: np.ndarray

    @staticmethod
    def pure(label: str, amplitudes) -> "StateSpec":
        return StateSpec(label, linalg.validate_density_matrix(
            linalg.projector_from_ray(amplitudes)))

    @staticmethod
    def mixed(label: str, rho) -> "StateSpec":
        return StateSpec(label, linalg.validate_density_matrix(np.asarray(rho, dtype=complex)))


def default_state_roster() -> list[StateSpec]:
    """Twelve initial states: basis states, ray-aligned and generic
    superpositions, and three mixed states; a fresh list on each call."""
    return list(_default_states())


@functools.cache
def _default_states() -> tuple[StateSpec, ...]:
    """The default states, built and validated once per process; `rho` is read-only."""
    s2 = math.sqrt(2)
    psi7 = np.array([1, 1, s2]) / 2
    states = (
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
    )
    for spec in states:
        spec.rho.flags.writeable = False
    return states


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
        if self.mode == "photon-count":
            if not all(0.0 <= lam < math.inf
                       for lam in (self.lambda_bright, self.lambda_dark)):
                raise ValueError("photon rates must be finite and non-negative")
            r_d, r_b = readout_rates(self)
            # The correction divides by the visibility r_d - r_b;
            # `analysis.affine_map` refuses the rates by this same test.
            if (1.0 - r_d) + r_b >= 1.0:
                raise ValueError("photon-count readout must read dark more often "
                                 "from a dark than from a bright ion (r_d > r_b)")

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

    def __post_init__(self):
        # Checked once, when the plan is built: numpy ints pass as ints.
        shots = operator.index(self.shots)
        if shots < 1:
            raise ValueError(f"a sub-experiment needs at least 1 shot, got {shots}")
        object.__setattr__(self, "shots", shots)

    @functools.cached_property
    def key(self) -> str:  # formatted once per sub-experiment
        return f"{'single' if len(self.chain) == 1 else 'pair'}:" \
               f"{'-'.join(f'{r:02d}' for r in self.chain)}:{self.setting_id}"


@dataclass(slots=True)
class CountTable:
    subexperiment: SubExperiment
    counts: dict[str, int]
    seed_key: str


def build_plan(model: KSModel, settings: list[MeasurementSetting],
               shots: int = 10_000) -> list[SubExperiment]:
    """Deterministic plan: one single per observable at its first covering
    setting, plus one sequential pair per graph edge.

    Returns 13 + 24 = 37 sub-experiments; total realizations = 37 * shots.
    """
    plan: list[SubExperiment] = []
    for ray in RAYS:
        sid = next((s.id for s in settings if ray in s.mapping.values()), None)
        if sid is None:
            raise ValueError(f"no setting maps ray v{ray}")
        plan.append(SubExperiment(sid, (ray,), shots))
    for edge in sorted(model.edges):
        sid = next((s.id for s in settings
                    if set(edge) <= set(s.mapping.values())), None)
        if sid is None:
            raise ValueError(f"no setting covers edge {edge}")
        plan.append(SubExperiment(sid, edge, shots))
    return plan


class _KeyedStream:
    """One Philox generator moved from keyed stream to keyed stream. A name
    "seed/label/..." keys Philox4x64 (Salmon et al., SC'11) at counter 0,
    with an empty output buffer and the first 16 bytes of sha256(name) read
    as two little-endian uint64 key words; each key is its own stream, so
    draws do not depend on the order in which sub-experiments execute.
    `rekey` moves the generator to the start of a name's stream by setting
    one kept state dict with the new key words (as Python ints)."""

    __slots__ = ("rng", "binomial", "_bit_generator", "_state", "_key")

    def __init__(self):
        self.rng = np.random.Generator(np.random.Philox(0))
        self.binomial = self.rng.binomial
        self._bit_generator = self.rng.bit_generator
        self._key = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        self._state = {"bit_generator": "Philox", "state": self._key,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
                       "uinteger": 0}

    def rekey(self, name: str) -> None:
        digest = hashlib.sha256(name.encode()).digest()
        self._key["key"] = struct.unpack_from("<2Q", digest)
        self._bit_generator.state = self._state


# Idle streams. A `run_roster` call pops one (or builds one when none is
# idle) and pushes it back when it returns, so no two live calls, concurrent
# or nested, share a generator; list pop and append are atomic.
_IDLE_STREAMS: list[_KeyedStream] = []


def prepare(state: StateSpec, noise: NoiseModel) -> np.ndarray:
    """The state a run starts from, after preparation depolarization."""
    rho = state.rho
    p = noise.prep_depolarization
    if p > 0.0:
        rho = (1 - p) * rho + p * linalg.IDENTITY / 3
    return rho


def _slot_of(setting: MeasurementSetting, ray: int) -> int:
    if not setting.mapping and ray in SWAP:  # a setting that maps no ray names the slot
        return ray
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


class PlanEffects(NamedTuple):
    """A plan's n noise-folded effects under one readout, entry after entry
    in draw order, as contiguous (9, n) planes of the real and imaginary
    parts of their matrix elements, element ij in row 3i + j, and `law_row`:
    `_law_row` of these planes, keeping its last `_MEMO_ROWS` rows in an LRU."""
    symbols: tuple[tuple[str, ...], ...]  # each entry's readout symbols
    re: np.ndarray
    im: np.ndarray
    slices: tuple[slice, ...]  # each entry's columns
    law_row: Callable[[bytes], tuple[tuple[float, ...], ...]]


def _law_row(re: np.ndarray, im: np.ndarray, slices: tuple, key: bytes) -> tuple:
    """Each plan entry's P(s) = Tr(rho E_s) for its symbols in draw order, clipped
    to [0, 1], as tuples, for the prepared rho whose bytes are `key`."""
    rho = np.frombuffer(key, complex)
    # rho and E are Hermitian, so Tr(rho E) = sum_ij Re(conj(E_ij) rho_ij), its
    # nine terms added in a fixed order, which a BLAS or einsum reduction may not keep.
    terms = rho.real[:, None] * re + rho.imag[:, None] * im
    law = np.clip(functools.reduce(np.add, terms), 0.0, 1.0).tolist()
    return tuple(tuple(law[s]) for s in slices)


@functools.lru_cache(maxsize=8)
def _plan_effects(settings: tuple[MeasurementSetting, ...], entries: tuple,
                  rates: tuple[float, float]) -> PlanEffects:
    """The `PlanEffects` of the plan entries `(setting id, chain)` under
    readout `rates`, both planes read-only. Each setting the entries use is
    compiled once. Settings hash by content, never by id alone, so a process
    computes each distinct plan once."""
    by_id = {s.id: s for s in settings}
    unitaries = {sid: compile_setting(by_id[sid])
                 for sid in dict.fromkeys(sid for sid, _ in entries)}
    compiled = [effects(_steps(by_id[sid], chain, unitaries[sid]), rates)
                for sid, chain in entries]
    planes = np.array([e for effs in compiled for e in effs.values()]).reshape(-1, 9).T
    re, im = np.ascontiguousarray(planes.real), np.ascontiguousarray(planes.imag)
    re.flags.writeable = im.flags.writeable = False
    stops = list(itertools.accumulate(len(effs) for effs in compiled))
    slices = tuple(map(slice, [0, *stops], stops))
    return PlanEffects(tuple(tuple(effs) for effs in compiled), re, im, slices,
                       functools.lru_cache(maxsize=_MEMO_ROWS)(
                           functools.partial(_law_row, re, im, slices)))


def plan_effects(plan: list[SubExperiment], settings: list[MeasurementSetting],
                 rates: tuple[float, float]) -> PlanEffects:
    """The cached `PlanEffects` of `plan` under readout `rates`: the effects
    every draw of the plan reads."""
    return _plan_effects(tuple(settings),
                         tuple((sub.setting_id, sub.chain) for sub in plan), rates)


def run_subexperiment(symbols: tuple[str, ...], law: tuple[float, ...],
                      sub: SubExperiment, seed_key: str,
                      stream: _KeyedStream) -> CountTable:
    """Counts of `sub.shots` i.i.d. shots of `law`, the probability of each
    readout symbol in draw order, from the keyed stream of `seed_key`, onto
    which `stream` is re-keyed: `run_roster` passes the pooled stream it
    holds, which no other live call uses. The draw is numpy's `multinomial`,
    made as its binomial steps: `binomial(shots, P(first))`, then the rest
    split at P(second) / (1 - P(first)), clamped to 1 as rounding can exceed
    it (`multinomial` then draws all the rest)."""
    stream.rekey(seed_key)
    shots, binomial = sub.shots, stream.binomial
    first = binomial(shots, law[0])
    rest = shots - first
    if len(law) == 2:
        return CountTable(sub, {symbols[0]: first, symbols[1]: rest}, seed_key)
    second = binomial(rest, min(law[1] / (1.0 - law[0]), 1.0)) if rest > 0 else 0
    return CountTable(sub, {symbols[0]: first, symbols[1]: second,
                            symbols[2]: rest - second}, seed_key)


def run_roster(roster: list[StateSpec], plan: list[SubExperiment],
               settings: list[MeasurementSetting], noise: NoiseModel,
               master_seed: int) -> dict[str, list[CountTable]]:
    """Full run: each state's law rows drawn entry by entry on the stream of
    its (seed, state, sub-experiment), so counts do not depend on the order
    in which sub-experiments execute. The call holds one idle stream from a
    module pool, re-keyed for each sub-experiment, and returns it when done:
    a call builds no generator unless every pooled one is in use."""
    effs = plan_effects(plan, settings, readout_rates(noise))
    try:
        stream = _IDLE_STREAMS.pop()
    except IndexError:
        stream = _KeyedStream()
    try:
        tables = {}
        for state in roster:
            if state.label in tables:
                raise ValueError(f"repeated state label: {state.label}")
            prefix = f"{master_seed}/{state.label}/"
            row = effs.law_row(np.asarray(prepare(state, noise), dtype=complex).tobytes())
            tables[state.label] = [
                run_subexperiment(syms, law, sub, prefix + sub.key, stream)
                for syms, law, sub in zip(effs.symbols, row, plan)]
        return tables
    finally:
        _IDLE_STREAMS.append(stream)


def counts_to_csv(tables: dict[str, list[CountTable]]) -> str:
    lines = ["state,setting,chain,symbol,count,seed"]
    for label in tables:
        for t in tables[label]:
            chain = "-".join(str(r) for r in t.subexperiment.chain)
            for symbol in sorted(t.counts):
                lines.append(f"{label},{t.subexperiment.setting_id},{chain},"
                             f"{symbol},{t.counts[symbol]},{t.seed_key}")
    return "\n".join(lines) + "\n"
