"""Complex 3x3 linear algebra helpers: projectors, eigendecomposition, the
nearest density-matrix spectrum, fidelity.

All values are plain numpy arrays (complex128); functions are pure, and the
package's check tolerances are named here and nowhere else.
`hermitian_eig` takes a matrix or a stack of them and `fidelities` a stack
of pairs; each matrix or pair of a stack gets the bits a call on it alone
gives.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances, fixed once so invariant checks are reproducible.
ATOL_UNITARY = 1e-10       # Frobenius norm of U†U - I
ATOL_DM_HERMITIAN = 1e-10  # density-matrix Hermiticity
ATOL_DM_TRACE = 1e-10      # |Tr(rho) - 1|
EIGVAL_FLOOR = -1e-9       # smallest admissible density-matrix eigenvalue

IDENTITY = np.eye(3, dtype=complex)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - adjoint(m))) <= ATOL_DM_HERMITIAN)


def is_unitary(m: np.ndarray) -> bool:
    return frobenius_distance(adjoint(m) @ m, IDENTITY) <= ATOL_UNITARY


def projector_from_ray(v) -> np.ndarray:
    """Normalized projector |v><v| / <v|v> onto a (not necessarily unit) ray."""
    v = np.asarray(v, dtype=complex)
    n2 = float(np.vdot(v, v).real)
    if n2 == 0.0:
        raise ValueError("degenerate ray: zero vector has no projector")
    return np.outer(v, v.conj()) / n2


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 3x3 matrix, or of each matrix of a
    stack; LAPACK decomposes each matrix on its own, so a matrix's result
    does not depend on the rest of the stack.

    Returns (eigenvalues descending, eigenvectors as columns).
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("hermitian_eig: input is not Hermitian")
    w, u = np.linalg.eigh(m)
    order = np.argsort(w, axis=-1)[..., ::-1]
    return (np.take_along_axis(w, order, -1).astype(float),
            np.take_along_axis(u, order[..., None, :], -1))


def nearest_spectrum(mu: list[float]) -> list[float]:
    """Spectrum of the density matrix nearest to a unit-trace Hermitian
    matrix of descending spectrum `mu` (Smolin, Gambetta & Smith 2012): zero
    the negative tail from the bottom, spread its mass evenly over the rest,
    and rescale to unit sum: the spread alone misses it by ~1e-16 |mu|, too
    much at the large scale that a visibility near 0 gives."""
    i, acc = len(mu), 0.0
    while mu[i - 1] + acc / i < 0.0:
        acc += mu[i - 1]
        i -= 1
    kept = [m + acc / i for m in mu[:i]]
    total = math.fsum(kept)
    return [m / total for m in kept] + [0.0] * (len(mu) - i)


def _check_density_matrices(rho: np.ndarray) -> None:
    """Hermiticity, unit trace and positivity of a 3x3 matrix or of every
    matrix of a stack."""
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian")
    if np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) > ATOL_DM_TRACE:
        raise ValueError("density matrix trace differs from 1")
    w = np.linalg.eigvalsh(rho).min()
    if float(w) < EIGVAL_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {w:.3e}")


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return rho unchanged."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError("density matrix must be 3x3")
    _check_density_matrices(rho)
    return rho


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a positive semidefinite matrix or of each of a stack."""
    w, u = hermitian_eig(m)
    # zero out eigenvalues at roundoff scale: sqrt would amplify them to 1e-8
    w = np.where(w > 1e-12 * np.maximum(w[..., :1], 1e-300), w, 0.0)
    return (u * np.sqrt(w)[..., None, :]) @ adjoint(u)


def fidelities(rhos: np.ndarray, targets: np.ndarray) -> list[float]:
    """Uhlmann fidelity (Tr |sqrt(rho) sqrt(sigma)|)^2, in [0, 1], of each
    state of the stack `rhos` to the target at the same index.

    Computed through the nuclear norm of sqrt(rho) sqrt(sigma); unlike the
    symmetric-product form this keeps full precision when either state is
    (near-)pure, so the pure-target overlap identity holds to 1e-10. The
    square roots, products and singular values are stacked calls; each
    pair's sum and square are taken on its own, as for a single pair.
    """
    rhos, targets = (np.asarray(m, dtype=complex) for m in (rhos, targets))
    if rhos.ndim != 3 or rhos.shape[1:] != (3, 3) or targets.shape != rhos.shape:
        raise ValueError("fidelities need one 3x3 target per 3x3 state")
    _check_density_matrices(rhos)
    _check_density_matrices(targets)
    sv = np.linalg.svd(_psd_sqrt(rhos) @ _psd_sqrt(targets), compute_uv=False)
    return [min(max(float(np.sum(s) ** 2), 0.0), 1.0) for s in sv]
