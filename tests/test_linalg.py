import numpy as np
import pytest

from qutrit_ks import linalg

from helpers import random_density_matrix

ATOL_PROJECTOR = 1e-12  # idempotence / scaling invariance of projectors
ATOL_EIG = 1e-9  # eigendecomposition reconstruction error
ATOL_FIDELITY = 1e-10  # fidelity cross-checks


def random_hermitian(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return (a + linalg.adjoint(a)) / 2


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_projector_basis_ray():
    p = linalg.projector_from_ray([1, 0, 0])
    assert np.allclose(p, np.diag([1, 0, 0]), atol=1e-15)


def test_projector_symmetric_ray():
    p = linalg.projector_from_ray([1, 1, 1])
    assert np.allclose(p, np.full((3, 3), 1 / 3), atol=1e-15)


def test_projector_direct_substitution():
    p = linalg.projector_from_ray([0, 1, -1])
    expected = np.array([[0, 0, 0], [0, 0.5, -0.5], [0, -0.5, 0.5]])
    assert np.allclose(p, expected, atol=1e-15)


def test_projector_zero_vector_raises():
    with pytest.raises(ValueError, match="degenerate ray"):
        linalg.projector_from_ray([0, 0, 0])


def test_projector_properties_under_scaling():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = complex(rng.normal(), rng.normal()) or 1.0
        p = linalg.projector_from_ray(v)
        assert linalg.is_hermitian(p)
        assert linalg.frobenius_distance(p @ p, p) < ATOL_PROJECTOR
        assert abs(np.trace(p).real - 1) < ATOL_PROJECTOR
        assert linalg.frobenius_distance(p, linalg.projector_from_ray(c * v)) \
            < ATOL_PROJECTOR


def test_nearest_spectrum_zeroes_the_negative_tail():
    """A spectrum with a negative tail loses it, its mass spread over the
    rest; a valid spectrum is kept; the result sums to 1 at any scale."""
    assert linalg.nearest_spectrum([0.7, 0.4, -0.1]) == pytest.approx([0.65, 0.35, 0.0])
    assert linalg.nearest_spectrum([0.5, 0.3, 0.2]) == [0.5, 0.3, 0.2]
    assert linalg.nearest_spectrum([50.0, -20.0, -29.0]) == [1.0, 0.0, 0.0]
    rng = np.random.default_rng(13)
    for _ in range(50):
        mu = rng.normal(size=3) * 1e3
        mu = sorted((mu + (1.0 - mu.sum()) / 3).tolist(), reverse=True)
        w = linalg.nearest_spectrum(mu)
        assert min(w) >= 0.0 and sum(w) == pytest.approx(1.0, abs=1e-15)


def test_hermitian_eig_diagonal():
    w, u = linalg.hermitian_eig(np.diag([3.0, 2.0, 1.0]).astype(complex))
    assert np.allclose(w, [3, 2, 1])
    assert np.allclose(np.abs(u), np.eye(3))


def test_hermitian_eig_rank_one_projector():
    w, u = linalg.hermitian_eig(np.full((3, 3), 1 / 3, dtype=complex))
    assert np.allclose(w, [1, 0, 0], atol=1e-12)
    top = u[:, 0]
    assert np.allclose(np.abs(top), np.full(3, 1 / np.sqrt(3)), atol=1e-12)


def test_hermitian_eig_reconstruction_1000_seeds():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        h = random_hermitian(rng)
        w, u = linalg.hermitian_eig(h)
        recon = (u * w) @ linalg.adjoint(u)
        assert linalg.frobenius_distance(recon, h) < ATOL_EIG
        assert linalg.frobenius_distance(linalg.adjoint(u) @ u, linalg.IDENTITY) < 1e-9
        assert w[0] >= w[1] >= w[2]


def test_hermitian_eig_rejects_non_hermitian():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_eig(m)


def fidelity(rho, target):
    """Fidelity of one pair, as a one-pair stack."""
    return linalg.fidelities([rho], [target])[0]


def test_fidelity_trivial_cases():
    rho = linalg.projector_from_ray([1, 1, 0])
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    one = linalg.projector_from_ray([1, 0, 0])
    two = linalg.projector_from_ray([0, 1, 0])
    assert fidelity(one, two) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(linalg.IDENTITY / 3, one) == pytest.approx(1 / 3, abs=1e-12)


def test_fidelity_pure_target_equals_overlap():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_density_matrix(rng)
        psi = random_pure_state(rng)
        target = linalg.projector_from_ray(psi)
        overlap = float((psi.conj() @ rho @ psi).real)
        assert fidelity(rho, target) == pytest.approx(
            overlap, abs=ATOL_FIDELITY)


def test_fidelity_symmetric_for_commuting_inputs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = np.sort(rng.random(3))
        b = np.sort(rng.random(3))
        rho = np.diag(a / a.sum()).astype(complex)
        sig = np.diag(b / b.sum()).astype(complex)
        assert fidelity(rho, sig) == pytest.approx(
            fidelity(sig, rho), abs=ATOL_FIDELITY)


def test_fidelity_rejects_invalid_density_matrix():
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        linalg.fidelities([bad], [linalg.IDENTITY / 3])


def test_fidelities_of_a_stack_equal_one_pair_calls():
    rng = np.random.default_rng(29)
    rhos = [random_density_matrix(rng) for _ in range(6)]
    targets = [random_density_matrix(rng) for _ in range(6)]
    assert linalg.fidelities(rhos, targets) == [
        fidelity(r, t) for r, t in zip(rhos, targets)]
    with pytest.raises(ValueError, match="one 3x3 target per 3x3 state"):
        linalg.fidelities(rhos, targets[:1])
    with pytest.raises(ValueError, match="one 3x3 target per 3x3 state"):
        linalg.fidelities([np.eye(2) / 2], [np.eye(2) / 2])


def test_mat_helpers():
    assert np.trace(linalg.IDENTITY).real == 3
    m = np.arange(9).reshape(3, 3) + 1j
    assert np.allclose(linalg.adjoint(linalg.adjoint(m)), m)
    assert linalg.frobenius_distance(linalg.IDENTITY, 2 * linalg.IDENTITY) \
        == pytest.approx(np.sqrt(3))
    assert linalg.frobenius_distance(m, m) == 0.0


def test_density_matrix_validation():
    linalg.validate_density_matrix(np.diag([0.2, 0.3, 0.5]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        linalg.validate_density_matrix(np.diag([1.0, 1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        linalg.validate_density_matrix(np.diag([1.2, -0.2, 0.0]).astype(complex))
