"""Qutrit state tomography: rotation settings, linear inversion, projection.

The measurement set starts from single-tone quarter rotations and is
extended with composed two-tone rotations until the stacked response map
over the 9 real Hermitian degrees of freedom reaches rank 9. Probabilities
are measured the way the experiment can only measure them: three sub-runs
per setting, each transferring one basis state to the dark state |3>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .analysis import ConfusionModel, correct_ml, estimate_probability
from .pulses import Pulse, pulse_matrix, r1_matrix, r2_matrix, swap_pulse
from .simulate import (NoiseModel, StateSpec, _prepare, read_dark_probability,
                       readout_rates)

RANK_TOL = 1e-9
ROUND_TRIP_TOL = 1e-9


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


_BASIS9 = _hermitian_basis()


def response_matrix(settings: list[TomographySetting]) -> np.ndarray:
    """Stacked map from the 9 Hermitian parameters to outcome probabilities."""
    rows = []
    for s in settings:
        for k in range(3):
            proj = linalg.adjoint(s.unitary) @ np.outer(
                linalg.BASIS[k], linalg.BASIS[k].conj()) @ s.unitary
            rows.append([float(np.trace(g @ proj).real) for g in _BASIS9])
    return np.array(rows)


def tomography_settings() -> list[TomographySetting]:
    """Default informationally complete set; rank 9 is asserted, not assumed."""
    half = math.pi / 2
    base = [
        TomographySetting("T1", linalg.IDENTITY),
        TomographySetting("T2", r1_matrix(half, 0.0)),
        TomographySetting("T3", r1_matrix(half, half)),
        TomographySetting("T4", r2_matrix(half, 0.0)),
        TomographySetting("T5", r2_matrix(half, half)),
    ]
    extensions = [
        TomographySetting("T6", r1_matrix(half, 0.0) @ r2_matrix(half, 0.0)),
        TomographySetting("T7", r1_matrix(half, half) @ r2_matrix(half, 0.0)),
    ]
    settings = list(base)
    while np.linalg.matrix_rank(response_matrix(settings), tol=RANK_TOL) < 9:
        if not extensions:
            raise ValueError("tomography settings remain rank-deficient")
        settings.append(extensions.pop(0))
    return settings


def exact_probabilities(rho: np.ndarray,
                        settings: list[TomographySetting]) -> dict[str, np.ndarray]:
    rho = linalg.validate_density_matrix(rho)
    out = {}
    for s in settings:
        r = s.unitary @ rho @ linalg.adjoint(s.unitary)
        out[s.id] = np.clip(np.diag(r).real, 0.0, 1.0)
    return out


def simulate_tomography(state: StateSpec, settings: list[TomographySetting],
                        noise: NoiseModel, shots: int,
                        rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Measured outcome frequencies, one |3>-detection sub-run per basis state.

    Each sub-run's dark count is one binomial draw from its exact law.

    In flip mode the frequencies are detection-error corrected with the
    noise model's own confusion matrix before being returned.
    """
    confusion = None
    if noise.mode == "flip" and (noise.eps_dark_to_bright or noise.eps_bright_to_dark):
        confusion = ConfusionModel(noise.eps_dark_to_bright,
                                   noise.eps_bright_to_dark)
    rates = readout_rates(noise)
    tables = {}
    for s in settings:
        rho = _prepare(state, noise)
        rho = s.unitary @ rho @ linalg.adjoint(s.unitary)
        probs = np.empty(3)
        for k in range(3):
            rho_k = rho
            if k != 2:
                w = pulse_matrix(swap_pulse(k + 1))
                rho_k = w @ rho @ linalg.adjoint(w)
            p_dark = min(max(float(rho_k[2, 2].real), 0.0), 1.0)
            n_dark = int(rng.binomial(shots, read_dark_probability(p_dark, rates)))
            est = estimate_probability(n_dark, shots)
            if confusion is not None:
                est = correct_ml(est, confusion)
            probs[k] = est.value
        tables[s.id] = probs
    return tables


@dataclass
class ReconstructionResult:
    rho: np.ndarray
    fidelity_to_target: float | None
    residual: float
    projected: bool


def reconstruct(tables: dict[str, np.ndarray],
                settings: list[TomographySetting],
                target: np.ndarray | None = None) -> ReconstructionResult:
    """Least-squares linear inversion followed by projection to the physical
    set (eigenvalue clipping and trace renormalization)."""
    a = response_matrix(settings)
    if np.linalg.matrix_rank(a, tol=RANK_TOL) < 9:
        raise ValueError("response map is rank-deficient; extend the settings")
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
