"""Complex 3x3 linear algebra helpers: projectors, eigendecomposition, fidelity.

All values are plain numpy arrays (complex128); functions are pure and every
tolerance used anywhere in the package is a named constant here.
"""

from __future__ import annotations

import numpy as np

# Tolerances, fixed once so invariant checks are reproducible.
ATOL_HERMITIAN = 1e-12     # entrywise Hermiticity of operators
ATOL_UNITARY = 1e-10       # Frobenius norm of U†U - I
ATOL_DM_HERMITIAN = 1e-10  # density-matrix Hermiticity
ATOL_DM_TRACE = 1e-10      # |Tr(rho) - 1|
EIGVAL_FLOOR = -1e-9       # smallest admissible density-matrix eigenvalue
ATOL_PROJECTOR = 1e-12     # idempotence / scaling invariance of projectors
ATOL_EIG = 1e-9            # eigendecomposition reconstruction error
ATOL_FIDELITY = 1e-10      # fidelity cross-checks

IDENTITY = np.eye(3, dtype=complex)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def is_hermitian(m: np.ndarray, atol: float = ATOL_HERMITIAN) -> bool:
    return bool(np.max(np.abs(m - adjoint(m))) <= atol)


def is_unitary(m: np.ndarray, atol: float = ATOL_UNITARY) -> bool:
    return frobenius_distance(adjoint(m) @ m, IDENTITY) <= atol


def projector_from_ray(v) -> np.ndarray:
    """Normalized projector |v><v| / <v|v> onto a (not necessarily unit) ray."""
    v = np.asarray(v, dtype=complex)
    n2 = float(np.vdot(v, v).real)
    if n2 == 0.0:
        raise ValueError("degenerate ray: zero vector has no projector")
    return np.outer(v, v.conj()) / n2


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 3x3 matrix.

    Returns (eigenvalues descending, eigenvectors as columns).
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, atol=ATOL_DM_HERMITIAN):
        raise ValueError("hermitian_eig: input is not Hermitian")
    w, u = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    return w[order].astype(float), u[:, order]


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return rho unchanged."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError("density matrix must be 3x3")
    if not is_hermitian(rho, atol=ATOL_DM_HERMITIAN):
        raise ValueError("density matrix is not Hermitian")
    if abs(float(np.trace(rho).real) - 1.0) > ATOL_DM_TRACE:
        raise ValueError("density matrix trace differs from 1")
    w = np.linalg.eigvalsh(rho)
    if float(w.min()) < EIGVAL_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return rho


def pure_state_dm(psi) -> np.ndarray:
    """Density matrix of a pure state, normalizing the amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    return projector_from_ray(psi)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, u = hermitian_eig(m)
    # zero out eigenvalues at roundoff scale: sqrt would amplify them to 1e-8
    w = np.where(w > 1e-12 * max(float(w[0]), 1e-300), w, 0.0)
    return (u * np.sqrt(w)) @ adjoint(u)


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Uhlmann fidelity (Tr |sqrt(rho) sqrt(sigma)|)^2, in [0, 1].

    Computed through the nuclear norm of sqrt(rho) sqrt(sigma); unlike the
    symmetric-product form this keeps full precision when either state is
    (near-)pure, so the pure-target overlap identity holds to 1e-10.
    """
    rho = validate_density_matrix(rho)
    target = validate_density_matrix(target)
    sv = np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(target), compute_uv=False)
    f = float(np.sum(sv) ** 2)
    return min(max(f, 0.0), 1.0)


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ adjoint(a)
    return m / np.trace(m).real
