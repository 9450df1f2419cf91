"""Qutrit state tomography: rotation settings, linear inversion, projection.

The measurement set is five single-tone quarter rotations, which alone are
rank-deficient, and two composed two-tone rotations; the stacked response
map over the 9 real Hermitian degrees of freedom is checked for rank 9.
Probabilities are measured the way the experiment can only measure them:
three sub-runs per setting, each transferring one basis state to the dark
state |3>: one detection of `simulate.effects`, under ideal rates for the
response map. A process builds the sub-run effects of each distinct
(settings, readout rates) once (`_subrun_dark`), so every state of a run
reads one stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .analysis import confusion_for, correct_ml, estimate_probability
from .pulses import r1_matrix, r2_matrix
from .simulate import SWAP, NoiseModel, StateSpec, effects, prepare, readout_rates

RANK_TOL = 1e-9
ROUND_TRIP_TOL = 1e-9
IDEAL_RATES = readout_rates(NoiseModel.ideal())


@dataclass(frozen=True)
class TomographySetting:
    id: str
    unitary: np.ndarray


def _hermitian_basis() -> list[np.ndarray]:
    """Nine real-coefficient generators of the Hermitian 3x3 matrices."""
    basis = []
    for k in range(3):
        m = np.zeros((3, 3), dtype=complex)
        m[k, k] = 1.0
        basis.append(m)
    for a in range(3):
        for b in range(a + 1, 3):
            re = np.zeros((3, 3), dtype=complex)
            re[a, b] = re[b, a] = 1.0
            basis.append(re)
            im = np.zeros((3, 3), dtype=complex)
            im[a, b] = -1j
            im[b, a] = 1j
            basis.append(im)
    return basis


_BASIS9 = np.array(_hermitian_basis())


def subrun_effects(settings: list[TomographySetting],
                   rates: tuple[float, float]) -> dict[str, np.ndarray]:
    """Effects of every sub-run, three per setting; sub-run k swaps basis
    state k+1 onto |3>, the step rule of the simulated singles."""
    steps = np.array([SWAP[slot] @ s.unitary for s in settings for slot in (1, 2, 3)])
    return effects([steps], rates)


def _cache_key(settings: list[TomographySetting]) -> tuple[tuple[str, ...], bytes]:
    """The cache key of a settings list: its ids and its stacked unitaries."""
    unitaries = np.array([s.unitary for s in settings], dtype=complex)
    return tuple(s.id for s in settings), unitaries.tobytes()


def _settings(ids: tuple[str, ...], unitaries: bytes) -> list[TomographySetting]:
    stacked = np.frombuffer(unitaries, dtype=complex).reshape(-1, 3, 3)
    return [TomographySetting(i, u) for i, u in zip(ids, stacked)]


@functools.lru_cache(maxsize=8)
def _subrun_dark(ids: tuple[str, ...], unitaries: bytes,
                 rates: tuple[float, float]) -> np.ndarray:
    """Read-only dark effects of `subrun_effects` for the settings with these
    ids and stacked unitaries under `rates`, built once per distinct key."""
    dark = subrun_effects(_settings(ids, unitaries), rates)["D"]
    dark.flags.writeable = False
    return dark


def _dark_probabilities(rho: np.ndarray, settings: list[TomographySetting],
                        rates: tuple[float, float]) -> dict[str, np.ndarray]:
    """P(read dark) = Tr(rho E_D) of the three sub-runs of each setting."""
    p = np.einsum("ij,kji->k", rho, _subrun_dark(*_cache_key(settings), rates)).real
    return dict(zip((s.id for s in settings), np.clip(p, 0.0, 1.0).reshape(-1, 3)))


def response_matrix(settings: list[TomographySetting]) -> np.ndarray:
    """Stacked map from the 9 Hermitian parameters to outcome probabilities."""
    dark = _subrun_dark(*_cache_key(settings), IDEAL_RATES)
    return np.einsum("gij,kji->kg", _BASIS9, dark).real


def tomography_settings() -> list[TomographySetting]:
    """Default informationally complete set; rank 9 is asserted, not assumed."""
    half = math.pi / 2
    settings = [
        TomographySetting("T1", linalg.IDENTITY),
        TomographySetting("T2", r1_matrix(half, 0.0)),
        TomographySetting("T3", r1_matrix(half, half)),
        TomographySetting("T4", r2_matrix(half, 0.0)),
        TomographySetting("T5", r2_matrix(half, half)),
        TomographySetting("T6", r1_matrix(half, 0.0) @ r2_matrix(half, 0.0)),
        TomographySetting("T7", r1_matrix(half, half) @ r2_matrix(half, 0.0)),
    ]
    _checked_response(*_cache_key(settings))
    return settings


def exact_probabilities(rho: np.ndarray,
                        settings: list[TomographySetting]) -> dict[str, np.ndarray]:
    return _dark_probabilities(linalg.validate_density_matrix(rho), settings,
                               IDEAL_RATES)


def simulate_tomography(state: StateSpec, settings: list[TomographySetting],
                        noise: NoiseModel, shots: int,
                        rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Measured outcome frequencies, one |3>-detection sub-run per basis state.

    Each sub-run's dark count is one binomial draw from its exact law,
    corrected with `analysis.confusion_for` of the noise model.
    """
    confusion = confusion_for(noise)
    tables = {}
    for sid, p_dark in _dark_probabilities(prepare(state, noise), settings,
                                           readout_rates(noise)).items():
        ests = [estimate_probability(int(rng.binomial(shots, p)), shots) for p in p_dark]
        tables[sid] = np.array([correct_ml(e, confusion).value for e in ests])
    return tables


@dataclass
class ReconstructionResult:
    rho: np.ndarray
    fidelity_to_target: float | None
    residual: float
    projected: bool


@functools.lru_cache(maxsize=4)
def _checked_response(ids: tuple[str, ...], unitaries: bytes) -> np.ndarray:
    """Read-only `response_matrix` of the settings with these ids and these
    stacked unitaries, checked for rank 9; computed once per distinct
    settings list, so reconstructing many states pays for it once."""
    a = response_matrix(_settings(ids, unitaries))
    if np.linalg.matrix_rank(a, tol=RANK_TOL) < 9:
        raise ValueError("response map is rank-deficient; extend the settings")
    a.flags.writeable = False
    return a


def reconstruct(tables: dict[str, np.ndarray],
                settings: list[TomographySetting],
                target: np.ndarray | None = None) -> ReconstructionResult:
    """Least-squares linear inversion followed by projection to the physical
    set (eigenvalue clipping and trace renormalization)."""
    a = _checked_response(*_cache_key(settings))
    b = np.concatenate([tables[s.id] for s in settings])
    # Weighted trace constraint keeps the unit-trace direction well determined.
    trace_row = np.array([[1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0]])
    a_full = np.vstack([a, trace_row])
    b_full = np.concatenate([b, [1.0]])
    x, *_ = np.linalg.lstsq(a_full, b_full, rcond=None)
    rho = sum(c * g for c, g in zip(x, _BASIS9))
    residual = float(np.linalg.norm(a @ x - b))

    w, u = linalg.hermitian_eig(rho)
    projected = bool(w.min() < 0.0)
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    rho = (u * w) @ linalg.adjoint(u)
    rho = (rho + linalg.adjoint(rho)) / 2
    fid = linalg.fidelity(rho, target) if target is not None else None
    return ReconstructionResult(rho, fid, residual, projected)


def format_density_matrix(rho: np.ndarray) -> str:
    """3x3 complex entries as real/imag pairs with 12 significant digits."""
    lines = []
    for r in range(3):
        cells = [f"{rho[r, c].real:+.12g}{rho[r, c].imag:+.12g}j" for c in range(3)]
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
