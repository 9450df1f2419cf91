"""Two-tone rotation matrices, the 16 measurement settings, and schedules.

Channel 1 drives |1><->|3>, channel 2 drives |2><->|3>. Pulse lists are
chronological; the composed unitary is therefore P_last @ ... @ P_first.
Settings use only theta in {pi/2, pi, alpha, pi - alpha}, with alpha stored
exactly as 2*arcsin(1/sqrt(3)) (0.392*pi is only a display figure), and phi in
{0, pi}, so `verify_all_settings` proves their mappings in Q(sqrt2, sqrt3).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations
from types import MappingProxyType

import numpy as np

from . import linalg
from .model import RAYS

ALPHA = 2.0 * math.asin(1.0 / math.sqrt(3.0))

OMEGA1_MHZ = 12642.8213        # transition |1>-|3>, units of 2*pi MHz
OMEGA2_OFFSET_MHZ = 7.6372     # omega2 - omega1
RABI_TWO_PI_US = 29.5          # 2*pi Rabi time, microseconds
B_FIELD_GAUSS = 5.455
DOPPLER_COOLING_US = 1000.0
OPTICAL_PUMPING_US = 3.0


@dataclass(frozen=True)
class Pulse:
    channel: int  # 1 or 2
    theta: float  # radians, [0, 2*pi)
    phi: float    # radians, [0, 2*pi)

    def __post_init__(self):
        if self.channel not in (1, 2):
            raise ValueError("pulse channel must be 1 or 2")
        if not (0.0 <= self.theta < 2 * math.pi and 0.0 <= self.phi < 2 * math.pi):
            raise ValueError("pulse angles must lie in [0, 2*pi)")


def pulse_duration_us(pulse: Pulse) -> float:
    return pulse.theta / (2 * math.pi) * RABI_TWO_PI_US


@dataclass(frozen=True)
class MeasurementSetting:
    """One pulse sequence before the |3> detections. Kochen-Specker settings
    map basis states to rays; tomography settings map none. Equal content
    hashes equal, so caches key on settings themselves. The mapping is kept
    as a read-only copy, so the hash, computed on first use, cannot go stale."""

    id: str
    mapping: Mapping[int, int]  # basis state (1..3) -> ray index (1..13)
    pulses: tuple[Pulse, ...]  # chronological

    def __post_init__(self):
        object.__setattr__(self, "mapping", MappingProxyType(dict(self.mapping)))

    def __hash__(self) -> int:
        return self._content_hash

    @cached_property
    def _content_hash(self) -> int:
        return hash((self.id, tuple(sorted(self.mapping.items())), self.pulses))


def _rotation(channel: int, c, es, mes, one, zero) -> list[list]:
    """A pulse's 3x3 entries as rows, from its cos(theta/2), e s, -s/e, one and
    zero, each as a float or as field coordinates: the one layout of both forms."""
    if channel == 1:
        return [[c, zero, es], [zero, one, zero], [mes, zero, c]]
    return [[one, zero, zero], [zero, c, mes], [zero, es, c]]


def pulse_matrix(p: Pulse) -> np.ndarray:
    c, s = math.cos(p.theta / 2), math.sin(p.theta / 2)
    e = np.exp(1j * p.phi)
    return np.array(_rotation(p.channel, c, e * s, -s / e, 1, 0), dtype=complex)


def swap_pulse(basis_state: int) -> Pulse:
    """Pi pulse exchanging the populations of a bright state and |3>."""
    if basis_state not in (1, 2):
        raise ValueError("|3> is already the detection state; no swap defined")
    return Pulse(basis_state, math.pi, 0.0)


_PI = math.pi


def settings_table() -> list[MeasurementSetting]:
    """A fresh list of the 16 measurement settings, built once per process."""
    return list(_settings())


@cache  # the settings and their chronological pulse lists, built on first use
def _settings() -> tuple[MeasurementSetting, ...]:
    r1, r2 = (lambda t, p: Pulse(1, t, p)), (lambda t, p: Pulse(2, t, p))
    rows = [
        ("M1", {1: 1, 2: 2, 3: 3}, ()),
        ("M2", {1: 5, 2: 2, 3: 8}, (r1(_PI / 2, _PI),)),
        ("M3", {1: 1, 2: 4, 3: 7}, (r2(_PI / 2, 0),)),
        ("M4", {1: 9, 2: 3, 3: 6}, (r2(_PI, _PI), r1(_PI / 2, _PI))),
        ("M5", {2: 4, 3: 10}, (r2(_PI / 2, 0), r1(ALPHA, 0))),
        ("M6", {2: 4, 3: 13}, (r2(_PI / 2, 0), r1(ALPHA, _PI))),
        ("M7", {1: 5, 3: 11}, (r1(_PI / 2, _PI), r2(ALPHA, _PI))),
        ("M8", {1: 5, 3: 13}, (r1(_PI / 2, _PI), r2(ALPHA, 0))),
        ("M9", {1: 6, 3: 12}, (r2(_PI, 0), r1(_PI / 2, _PI), r2(ALPHA, 0))),
        ("M10", {1: 6, 2: 13}, (r2(_PI, _PI), r1(_PI / 2, 0), r2(_PI - ALPHA, 0))),
        ("M11", {2: 7, 3: 11}, (r2(_PI / 2, _PI), r1(ALPHA, _PI))),
        ("M12", {1: 12, 2: 7}, (r2(_PI / 2, _PI), r1(_PI - ALPHA, _PI))),
        ("M13", {1: 8, 3: 10}, (r1(_PI / 2, 0), r2(ALPHA, 0))),
        ("M14", {1: 8, 2: 12}, (r1(_PI / 2, 0), r2(_PI - ALPHA, 0))),
        ("M15", {1: 10, 2: 9}, (r1(_PI, 0), r2(_PI / 2, 0), r1(_PI - ALPHA, 0))),
        ("M16", {2: 9, 3: 11}, (r1(_PI, _PI), r2(_PI / 2, _PI), r1(ALPHA, 0))),
    ]
    return tuple(MeasurementSetting(i, m, p) for i, m, p in rows)


def compile_setting(setting: MeasurementSetting) -> np.ndarray:
    """Composed unitary; first-listed pulse is applied first."""
    u = reduce(lambda acc, p: pulse_matrix(p) @ acc, setting.pulses, linalg.IDENTITY)
    if not linalg.is_unitary(u):
        raise ValueError(f"compiled matrix for {setting.id} is not unitary")
    return u


# theta -> (6 cos(theta/2), 6 sin(theta/2)), phi -> e^(i phi), keyed by the table's floats
EXACT_ANGLES = {_PI / 2: ((0, 3, 0, 0), (0, 3, 0, 0)), _PI: ((0, 0, 0, 0), (6, 0, 0, 0)),
                ALPHA: ((0, 0, 0, 2), (0, 0, 2, 0)), _PI - ALPHA: ((0, 0, 2, 0), (0, 0, 0, 2))}
EXACT_PHASES = {0.0: 1, _PI: -1}
_EYE12 = np.eye(12, dtype=np.int64)
_RAY_ROWS = np.array([(0, 0, 0), *RAYS.values()], dtype=np.int64)  # row r: ray r


def _times(a, b, c, d) -> np.ndarray:
    """Multiplication by (a, b, c, d) = a + b sqrt2 + c sqrt3 + d sqrt6, as 4x4 integers."""
    return np.array([[a, 2 * b, 3 * c, 6 * d], [b, a, 3 * d, 3 * c],
                     [c, 2 * d, a, 2 * b], [d, c, b, a]], dtype=np.int64)


@cache
def exact_pulse_matrix(p: Pulse) -> np.ndarray:
    """6 x `pulse_matrix(p)` in integers: block (i, j) multiplies by 6 x entry (i, j)."""
    (c, s), e = EXACT_ANGLES[p.theta], EXACT_PHASES[p.phi]
    es, mes = [e * x for x in s], [-e * x for x in s]  # -s/e = -e s for e = +-1
    rows = _rotation(p.channel, c, es, mes, (6, 0, 0, 0), (0,) * 4)
    m = np.block([[_times(*x) for x in row] for row in rows])
    m.flags.writeable = False  # shared by every caller
    return m


def verify_all_settings(settings: list[MeasurementSetting]) -> None:
    """Prove U v = +-sqrt(v.v) e_b exactly for each mapped (basis state b, ray v),
    sqrt(v.v) being basis element v.v - 1 of block b: each setting's rays, as
    columns b, go through its pulses x <- 6 P_k x, a chain padded with 6 I to the
    deepest length k, in one stacked integer matmul per depth, so each image is
    6^k U v. Raises ValueError."""
    for s in settings:
        if any(p.theta not in EXACT_ANGLES or p.phi not in EXACT_PHASES for p in s.pulses):
            raise ValueError(f"setting {s.id}: a pulse angle is not in the exact set")
    depth = max((len(s.pulses) for s in settings), default=0)
    mapped = np.zeros((len(settings), 3), dtype=np.intp)  # ray of (setting, b - 1); 0: none
    for i, s in enumerate(settings):
        for b, r in s.mapping.items():
            mapped[i, b - 1] = r
    v = _RAY_ROWS[mapped]  # v is rational
    x = np.zeros((len(settings), 12, 3), dtype=np.int64)
    x[:, ::4] = v.transpose(0, 2, 1)
    pad = 6 * _EYE12
    for k in range(depth):
        x = np.array([exact_pulse_matrix(s.pulses[k]) if k < len(s.pulses) else pad
                      for s in settings]) @ x
    norms = (v * v).sum(axis=2)
    target = 6 ** depth * _EYE12[4 * np.arange(3) + norms - 1] * (norms > 0)[..., None]  # 0: none
    misses = np.argwhere((np.abs(x).transpose(0, 2, 1) != target).any(axis=2))
    if len(misses):
        i, b = misses[0]
        raise ValueError(f"setting {settings[i].id}: ray v{mapped[i, b]} "
                         f"misses basis state |{b + 1}>")


def covered_pairs(settings: list[MeasurementSetting]) -> set[tuple[int, int]]:
    """All unordered ray pairs co-mapped within a single setting."""
    return {pair for s in settings
            for pair in combinations(sorted(s.mapping.values()), 2)}


def format_schedule(setting: MeasurementSetting) -> str:
    """Timed schedule text: a header naming the transition each channel
    drives (omega/2pi in MHz) and the magnetic field, the cooling and
    pumping preamble, then one pulse per line as (channel, theta/pi,
    phi/pi, duration_us) with 4 decimals."""
    lines = [
        f"# schedule {setting.id}",
        f"# ch1 |1>-|3> omega1/2pi={OMEGA1_MHZ:.4f} MHz  "
        f"ch2 |2>-|3> (omega2-omega1)/2pi={OMEGA2_OFFSET_MHZ:.4f} MHz  "
        f"B={B_FIELD_GAUSS:.4f} G",
        f"cool    {DOPPLER_COOLING_US:.4f}",
        f"pump    {OPTICAL_PUMPING_US:.4f}",
    ]
    for p in setting.pulses:
        lines.append(
            f"pulse   ch{p.channel}  theta/pi={p.theta / _PI:.4f}  "
            f"phi/pi={p.phi / _PI:.4f}  duration_us={pulse_duration_us(p):.4f}"
        )
    return "\n".join(lines) + "\n"
