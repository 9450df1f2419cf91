"""Simulation of the sequential fluorescence-detection runs.

The physics of one shot is exact 3x3 quantum mechanics: prepare a density
matrix, apply the compiled setting unitary, swap the interrogated slot onto
the dark state |3>, and detect. Collapse always follows the TRUE projection
outcome; readout errors affect only the recorded symbol and the decision to
continue a sequential pair, exactly as the physical apparatus behaves.

That process is one noise-folded measurement map, which tomography draws
and solves through too (its settings map no ray, so its singles name their
slot): `effects` turns the lab-frame dark projector P = V† |3><3| V of each
detection (`_projectors`) and the readout rates into one 3x3 effect per
readout string, a Lüders sum per detection, so every outcome probability is
Tr(rho E); rational projectors at `Fraction` rates give the exact effects.
`_plan_effects`, the map's one cache, holds one entry per plan and readout,
keyed on the settings, chains and readout rates, never on the seed, state or
shots: the plan's entries, its stream id, and its effects as (9, 3n) real
and imaginary planes in the package's one outcome layout, three columns per
entry in draw order, (0, D, B) for a single and (B, DB, DD) for a pair.
`_laws` forms the (n, 3) laws of a state, or of a stack of states, in it on
every draw, in nine row adds of fixed order, and a state's counts and
`analysis.frequencies` keep that layout.

Shots are i.i.d., so a state's counts are one multinomial draw from its
law, and cost does not grow with the shot count: `draw_roster` forms every
law of a roster in one `_laws` pass and draws them in one `draw` call, on
one generator re-keyed per state, each state's in one `multinomial` call on
the keyed Philox stream of (seed, state, plan). The roster's counts are one
(S, n, 3) int64 stack, the only count container the module hands out, and
a state's row depends on neither the roster's order nor its other states.
`counts_to_csv` writes the stack, and `run_roster` splits it into
symbol-keyed `CountTable`s for the callers that still read tables.
`numpy.random` is loaded on first use.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import linalg
from .model import RAYS, KSModel, ray_unit
from .pulses import MeasurementSetting, compile_setting, pulse_matrix, swap_pulse

DARK = np.diag([0.0, 0.0, 1.0]).astype(complex)  # |3><3|
EYE = np.eye(3, dtype=int)  # an integer I, so I - P is exact for rational P
DARK.flags.writeable = EYE.flags.writeable = False  # shared, as `linalg.IDENTITY`
# Pi pulse moving basis state `slot` onto the detected |3> (none for |3>).
SWAP = {1: pulse_matrix(swap_pulse(1)), 2: pulse_matrix(swap_pulse(2)),
        3: linalg.IDENTITY}
SWAP[1].flags.writeable = SWAP[2].flags.writeable = False  # shared by every effects build
MAX_SHOTS = 2 ** 63 - 1  # numpy draws counts as int64


@dataclass(frozen=True)
class StateSpec:
    """A labelled state; `rho` is checked once and kept as a read-only copy."""

    label: str
    rho: np.ndarray

    def __post_init__(self):
        rho = linalg.validate_density_matrix(np.array(self.rho, dtype=complex))
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @staticmethod
    def pure(label: str, amplitudes) -> "StateSpec":
        return StateSpec(label, linalg.projector_from_ray(amplitudes))


def default_state_roster() -> list[StateSpec]:
    """Twelve initial states: basis states, ray-aligned and generic
    superpositions, and three mixed states; a fresh list on each call."""
    return list(_default_states())


@functools.cache
def _default_states() -> tuple[StateSpec, ...]:
    """The default states, built and validated once per process."""
    s2 = math.sqrt(2)
    psi7 = np.array([1, 1, s2]) / 2
    return (
        StateSpec.pure("psi1", [1, 0, 0]),
        StateSpec.pure("psi2", [0, 1, 0]),
        StateSpec.pure("psi3", [0, 0, 1]),
        StateSpec.pure("psi4", ray_unit(13)),
        StateSpec.pure("psi5", ray_unit(10)),
        StateSpec.pure("psi6", ray_unit(4)),
        StateSpec.pure("psi7", psi7),
        StateSpec.pure("psi8", np.array([1, np.exp(1j * math.pi / 4), 1]) / math.sqrt(3)),
        StateSpec.pure("psi9", np.array([s2, 1j, 1]) / 2),
        StateSpec("rho10", linalg.IDENTITY / 3),
        StateSpec("rho11", np.diag([0.5, 0.5, 0.0])),
        StateSpec("rho12", 0.8 * np.outer(psi7, psi7.conj()) + 0.2 * np.eye(3) / 3),
    )


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
            # The correction is polynomial in u = 1 / (r_d - r_b);
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
    chain: tuple[int, ...]  # 1 ray (single) or 2 distinct rays (sequential pair)
    shots: int = 10_000

    def __post_init__(self):
        # Checked once, when the plan is built: numpy ints pass as ints.
        if len(self.chain) not in (1, 2) or len(set(self.chain)) < len(self.chain):
            raise ValueError("a sub-experiment measures one ray or two distinct rays, "
                             f"got chain {self.chain}")
        shots = operator.index(self.shots)
        if shots < 1:
            raise ValueError(f"a sub-experiment needs at least 1 shot, got {shots}")
        if shots > MAX_SHOTS:
            raise ValueError(f"a sub-experiment draws at most {MAX_SHOTS} shots, got {shots}")
        object.__setattr__(self, "shots", shots)

    @functools.cached_property
    def key(self) -> str:  # formatted once per sub-experiment
        return _entry_key(self.setting_id, self.chain)


def _entry_key(setting_id: str, chain: tuple[int, ...]) -> str:
    """A plan entry's key, as "single:01:M1" or "pair:01-02:M1"."""
    return f"{'single' if len(chain) == 1 else 'pair'}:" \
           f"{'-'.join(f'{r:02d}' for r in chain)}:{setting_id}"


@dataclass(slots=True)
class CountTable:
    subexperiment: SubExperiment
    counts: dict[str, int]  # in draw order
    seed_key: str  # the name of the state's stream, shared by its tables


def build_plan(model: KSModel, settings: list[MeasurementSetting],
               shots: int = 10_000) -> list[SubExperiment]:
    """Deterministic plan: one single per observable at its first covering
    setting, plus one sequential pair per graph edge.

    Returns 13 + 24 = 37 sub-experiments; total realizations = 37 * shots.
    """
    first: dict = {}  # each ray, and each co-mapped pair of rays, to its first setting
    for s in settings:
        rays = sorted(s.mapping.values())
        for key in (*rays, *combinations(rays, 2)):
            first.setdefault(key, s.id)
    plan: list[SubExperiment] = []
    for ray in RAYS:
        if ray not in first:
            raise ValueError(f"no setting maps ray v{ray}")
        plan.append(SubExperiment(first[ray], (ray,), shots))
    for edge in sorted(model.edges):
        if edge not in first:
            raise ValueError(f"no setting covers edge {edge}")
        plan.append(SubExperiment(first[edge], edge, shots))
    return plan


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


def effects(projectors: list, rates: tuple) -> dict[str, np.ndarray]:
    """Heisenberg-picture effect E_s, P(s) = Tr(rho E_s), of each readout
    string s of |3> detections, `projectors[k]` being detection k's lab-frame
    dark projector P: a detection maps the effect X of what follows it to
    m_d P X P + m_b (I - P) X (I - P), m_d and m_b the readout's chances given
    a true dark and a true bright outcome, and a bright readout ends the
    sequence. Keys follow the draw order: D, B for one detection; B, DB, DD
    for two. `Fraction` projectors and rates give exact effects."""
    r_d, r_b = rates
    p, rest = projectors[0], projectors[1:]
    q = EYE - p
    inner = effects(rest, rates) if rest else {"": EYE}
    dark = {"D" + s: r_d * p @ x @ p + r_b * q @ x @ q for s, x in sorted(inner.items())}
    bright = {"B": (1 - r_d) * p @ p + (1 - r_b) * q @ q}
    return {**bright, **dark} if rest else {**dark, **bright}


def _projectors(setting: MeasurementSetting, chain: tuple[int, ...],
                unitary: np.ndarray) -> list[np.ndarray]:
    """Each detection's lab-frame dark projector V_k† DARK V_k of a
    sub-experiment: V_1 is the compiled setting `unitary` then a swap of the
    first ray's slot onto |3>, V_2 is V_1 then a swap of the second's."""
    slot_i, *rest = (_slot_of(setting, ray) for ray in chain)
    v = [SWAP[slot_i] @ unitary]
    if rest:
        # When ray_j sat in |3>, the first swap moved it to the first slot.
        v.append(SWAP[slot_i if rest[0] == 3 else rest[0]] @ v[0])
    return [linalg.adjoint(vk) @ DARK @ vk for vk in v]


class PlanEffects(NamedTuple):
    """A plan's noise-folded effects under one readout as contiguous (9, 3n)
    planes of the real and imaginary parts of their matrix elements, element
    ij in row 3i + j, three columns per entry in draw order, a single's first
    a zero effect; `plan_id` is 16 hex digits of sha256 of the entries' keys."""
    entries: tuple[tuple[str, tuple[int, ...]], ...]  # each entry's (setting id, chain)
    symbols: tuple[tuple[str, ...], ...]  # each entry's readout symbols
    re: np.ndarray
    im: np.ndarray
    plan_id: str


def _laws(effs: PlanEffects, rho: np.ndarray) -> np.ndarray:
    """Each plan entry's P(s) = Tr(rho E_s) for its three columns, clipped to
    [0, 1], as an (n, 3) array for a 3x3 `rho`, or (S, n, 3) for an (S, 3, 3)
    stack: a single's row reads (0, P(D), P(B)). A state's law in a stack has
    the bits of a call on it alone."""
    # rho and E are Hermitian, so Tr(rho E) = sum_ij Re(conj(E_ij) rho_ij), its
    # nine terms added in a fixed order, which a BLAS or einsum reduction may not keep.
    flat = rho.reshape(-1, 9).T[:, :, None]  # element ij of every state in row 3i + j
    terms = flat.real * effs.re[:, None] + flat.imag * effs.im[:, None]
    return np.clip(functools.reduce(np.add, terms), 0.0, 1.0).reshape(*rho.shape[:-2], -1, 3)


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
    compiled = [effects(_projectors(by_id[sid], chain, unitaries[sid]), rates)
                for sid, chain in entries]
    # A leading zero pad puts a single's remainder on B; a trailing one leaks counts.
    planes = np.array([e for effs in compiled for e in [np.zeros((3, 3))] * (3 - len(effs))
                       + [*effs.values()]]).reshape(-1, 9).T
    re, im = np.ascontiguousarray(planes.real), np.ascontiguousarray(planes.imag)
    re.flags.writeable = im.flags.writeable = False
    keys = ",".join(_entry_key(sid, chain) for sid, chain in entries).encode()
    return PlanEffects(entries, tuple(map(tuple, compiled)), re, im,
                       hashlib.sha256(keys).hexdigest()[:16])


def plan_effects(plan: list[SubExperiment], settings: list[MeasurementSetting],
                 rates: tuple[float, float]) -> PlanEffects:
    """The cached `PlanEffects` of `plan` under readout `rates`: the effects
    every draw of the plan reads."""
    return _plan_effects(tuple(settings),
                         tuple((sub.setting_id, sub.chain) for sub in plan), rates)


def draw(laws: np.ndarray, shots: list[int], names: list[str]) -> np.ndarray:
    """One `multinomial` draw of every row of each law of the (S, n, 3)
    stack `laws` at its entry of `shots`, law s on the stream of `names[s]`:
    Philox4x64 (Salmon et al., SC'11) at counter 0 under the first 16 bytes
    of sha256(name), read as two little-endian uint64 words. The call's one
    generator is re-keyed for each later name to the state of a fresh one,
    counter 0 and an empty buffer, so each law's counts, row s of the (S, n,
    3) int64 stack returned, are those of a generator of its name alone."""
    keys = [np.frombuffer(hashlib.sha256(name.encode()).digest()[:16], "<u8")
            for name in names]
    bits = np.random.Philox(key=keys[0])
    # A fresh generator's state, read once to re-key from; one name needs none.
    gen, fresh = np.random.Generator(bits), bits.state if len(keys) > 1 else None
    counts = np.empty(laws.shape, np.int64)
    for s, key in enumerate(keys):
        if s:
            fresh["state"]["key"] = key
            bits.state = fresh
        counts[s] = gen.multinomial(shots, laws[s])
    return counts


def draw_roster(roster: list[StateSpec], plan: list[SubExperiment],
                settings: list[MeasurementSetting], noise: NoiseModel,
                master_seed: int) -> tuple[PlanEffects, dict[str, str], np.ndarray]:
    """Full run: the plan's `PlanEffects`, which every law is formed from,
    each state's stream name by label, in roster order, and the roster's
    counts as one (S, n, 3) int64 stack in that order. The laws of the whole
    roster are one `_laws` pass and one `draw` call, each state's on the
    stream "seed/label/plan", where "plan" is the plan's `plan_id`, so its
    counts depend on neither the roster's order nor its other states, and
    two plans of a state, as the Kochen-Specker and the tomography plans,
    draw on distinct streams."""
    labels = [state.label for state in roster]
    if len(set(labels)) < len(labels):
        raise ValueError("repeated state label: "
                         f"{next(x for x in labels if labels.count(x) > 1)}")
    effs = plan_effects(plan, settings, readout_rates(noise))
    laws = _laws(effs, np.array([prepare(state, noise) for state in roster]))
    names = {label: f"{master_seed}/{label}/{effs.plan_id}" for label in labels}
    return effs, names, draw(laws, [sub.shots for sub in plan], list(names.values()))


def run_roster(roster: list[StateSpec], plan: list[SubExperiment],
               settings: list[MeasurementSetting], noise: NoiseModel,
               master_seed: int) -> dict[str, list[CountTable]]:
    """`draw_roster`'s counts as each state's `CountTable`s: each entry's
    Python-int counts keyed by its readout symbols, in draw order."""
    effs, names, counts = draw_roster(roster, plan, settings, noise, master_seed)
    return {label: [CountTable(sub, dict(zip(syms, c[-len(syms):])), name)
                    for sub, syms, c in zip(plan, effs.symbols, state)]
            for (label, name), state in zip(names.items(), counts.tolist())}


def counts_to_csv(effs: PlanEffects, names: dict[str, str], counts: np.ndarray) -> str:
    """One row per count of each state of the (S, n, 3) stack `counts` under
    the plan of `effs`, the states in the order of `names`, each entry's
    symbols in draw order (D, B for a single; B, DB, DD for a pair); the
    seed column names the state's stream."""
    cells, heads = [], []  # each written count's flat index and its row's middle
    for k, ((sid, chain), syms) in enumerate(zip(effs.entries, effs.symbols)):
        rays = "-".join(map(str, chain))
        for col, symbol in enumerate(syms, start=3 - len(syms)):
            cells.append(3 * k + col)
            heads.append(f",{sid},{rays},{symbol},")
    lines = ["state,setting,chain,symbol,count,seed\n"]
    for (label, name), row in zip(names.items(),
                                  counts.reshape(len(counts), -1)[:, cells].tolist()):
        lines += [f"{label}{head}{c},{name}\n" for head, c in zip(heads, row)]
    return "".join(lines)
