"""Two-tone rotation matrices, the 16 measurement settings, and schedules.

Channel 1 drives |1><->|3>, channel 2 drives |2><->|3>. Pulse lists are
chronological; the composed unitary is therefore P_last @ ... @ P_first.
The angle alpha is stored exactly as 2*arcsin(1/sqrt(3)); the rounded value
0.392*pi quoted alongside the settings is only a display figure.
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
from .model import ray_unit

ALPHA = 2.0 * math.asin(1.0 / math.sqrt(3.0))

ATOL_MAPPING = 1e-9  # overlap deficit allowed when checking setting mappings


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


@dataclass(frozen=True)
class HardwareParams:
    omega1_mhz: float = 12642.8213        # transition |1>-|3>, units of 2*pi MHz
    omega2_offset_mhz: float = 7.6372     # omega2 - omega1
    rabi_two_pi_us: float = 29.5          # 2*pi Rabi time, microseconds
    b_field_gauss: float = 5.455
    doppler_cooling_us: float = 1000.0
    optical_pumping_us: float = 3.0

    def pulse_duration_us(self, pulse: Pulse) -> float:
        return pulse.theta / (2 * math.pi) * self.rabi_two_pi_us


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


def r1_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = np.exp(1j * phi)
    return np.array([
        [c, 0, e * s],
        [0, 1, 0],
        [-s / e, 0, c],
    ], dtype=complex)


def r2_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = np.exp(1j * phi)
    return np.array([
        [1, 0, 0],
        [0, c, -s / e],
        [0, e * s, c],
    ], dtype=complex)


@cache
def pulse_matrix(p: Pulse) -> np.ndarray:
    m = r1_matrix(p.theta, p.phi) if p.channel == 1 else r2_matrix(p.theta, p.phi)
    m.flags.writeable = False  # shared by every caller
    return m


def swap_pulse(basis_state: int) -> Pulse:
    """Pi pulse exchanging the populations of a bright state and |3>."""
    if basis_state == 1:
        return Pulse(1, math.pi, 0.0)
    if basis_state == 2:
        return Pulse(2, math.pi, 0.0)
    raise ValueError("|3> is already the detection state; no swap defined")


_PI = math.pi


def settings_table() -> list[MeasurementSetting]:
    """The 16 measurement settings with their chronological pulse lists."""
    r1, r2 = (lambda t, p: Pulse(1, t, p)), (lambda t, p: Pulse(2, t, p))
    a = ALPHA
    rows = [
        ("M1", {1: 1, 2: 2, 3: 3}, ()),
        ("M2", {1: 5, 2: 2, 3: 8}, (r1(_PI / 2, _PI),)),
        ("M3", {1: 1, 2: 4, 3: 7}, (r2(_PI / 2, 0),)),
        ("M4", {1: 9, 2: 3, 3: 6}, (r2(_PI, _PI), r1(_PI / 2, _PI))),
        ("M5", {2: 4, 3: 10}, (r2(_PI / 2, 0), r1(a, 0))),
        ("M6", {2: 4, 3: 13}, (r2(_PI / 2, 0), r1(a, _PI))),
        ("M7", {1: 5, 3: 11}, (r1(_PI / 2, _PI), r2(a, _PI))),
        ("M8", {1: 5, 3: 13}, (r1(_PI / 2, _PI), r2(a, 0))),
        ("M9", {1: 6, 3: 12}, (r2(_PI, 0), r1(_PI / 2, _PI), r2(a, 0))),
        ("M10", {1: 6, 2: 13}, (r2(_PI, _PI), r1(_PI / 2, 0), r2(_PI - a, 0))),
        ("M11", {2: 7, 3: 11}, (r2(_PI / 2, _PI), r1(a, _PI))),
        ("M12", {1: 12, 2: 7}, (r2(_PI / 2, _PI), r1(_PI - a, _PI))),
        ("M13", {1: 8, 3: 10}, (r1(_PI / 2, 0), r2(a, 0))),
        ("M14", {1: 8, 2: 12}, (r1(_PI / 2, 0), r2(_PI - a, 0))),
        ("M15", {1: 10, 2: 9}, (r1(_PI, 0), r2(_PI / 2, 0), r1(_PI - a, 0))),
        ("M16", {2: 9, 3: 11}, (r1(_PI, _PI), r2(_PI / 2, _PI), r1(a, 0))),
    ]
    return [MeasurementSetting(i, m, p) for i, m, p in rows]


def compile_setting(setting: MeasurementSetting) -> np.ndarray:
    """Composed unitary; first-listed pulse is applied first."""
    u = reduce(lambda acc, p: pulse_matrix(p) @ acc, setting.pulses, linalg.IDENTITY)
    if not linalg.is_unitary(u):
        raise ValueError(f"compiled matrix for {setting.id} is not unitary")
    return u


@dataclass
class MappingReport:
    setting_id: str
    deficits: list[tuple[int, int, float]]  # (basis state, ray, |overlap| deficit)

    @property
    def ok(self) -> bool:
        return all(d <= ATOL_MAPPING for _, _, d in self.deficits)


def verify_mapping(setting: MeasurementSetting) -> MappingReport:
    """Check |<b| U |v_i>| = 1 for every mapped (basis state, ray) entry."""
    u = compile_setting(setting)
    deficits = []
    for basis, ray in sorted(setting.mapping.items()):
        overlap = abs(u[basis - 1, :] @ ray_unit(ray))
        deficits.append((basis, ray, abs(1.0 - overlap)))
    return MappingReport(setting.id, deficits)


def verify_all_settings(settings: list[MeasurementSetting]) -> list[MappingReport]:
    reports = [verify_mapping(s) for s in settings]
    for r in reports:
        if not r.ok:
            worst = max(r.deficits, key=lambda d: d[2])
            raise ValueError(
                f"setting {r.setting_id}: ray v{worst[1]} misses basis state "
                f"|{worst[0]}> by {worst[2]:.3e}"
            )
    return reports


def covered_pairs(settings: list[MeasurementSetting]) -> set[tuple[int, int]]:
    """All unordered ray pairs co-mapped within a single setting."""
    return {pair for s in settings
            for pair in combinations(sorted(s.mapping.values()), 2)}


def format_schedule(setting: MeasurementSetting) -> str:
    """Timed schedule text: a header naming the transition each channel
    drives (omega/2pi in MHz) and the magnetic field, the cooling and
    pumping preamble, then one pulse per line as (channel, theta/pi,
    phi/pi, duration_us) with 4 decimals."""
    hw = HardwareParams()
    lines = [
        f"# schedule {setting.id}",
        f"# ch1 |1>-|3> omega1/2pi={hw.omega1_mhz:.4f} MHz  "
        f"ch2 |2>-|3> (omega2-omega1)/2pi={hw.omega2_offset_mhz:.4f} MHz  "
        f"B={hw.b_field_gauss:.4f} G",
        f"cool    {hw.doppler_cooling_us:.4f}",
        f"pump    {hw.optical_pumping_us:.4f}",
    ]
    for p in setting.pulses:
        lines.append(
            f"pulse   ch{p.channel}  theta/pi={p.theta / _PI:.4f}  "
            f"phi/pi={p.phi / _PI:.4f}  duration_us={hw.pulse_duration_us(p):.4f}"
        )
    return "\n".join(lines) + "\n"
