import numpy as np
import pytest

from mixprec.oracles import random_quadratic
from mixprec.spectra import EigenDecomposition, _psd_shift, eigh, psd_project


def _random_symmetric(seed: int, n: int, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


def test_eigenvalues_match_reference_solver():
    for seed, n in [(0, 2), (1, 5), (2, 13), (3, 24), (4, 40)]:
        a = _random_symmetric(seed, n)
        got = eigh(a).eigenvalues
        want = np.linalg.eigvalsh(a)[::-1]
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_eigenvectors_are_orthonormal():
    a = _random_symmetric(8, 20)
    v = eigh(a).eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(20))) <= 1e-13


def test_reconstruction_is_tight():
    for seed in (0, 1, 2):
        a = _random_symmetric(seed, 50)
        dec = eigh(a)
        residual = np.linalg.norm(dec.reconstruct() - a)
        assert residual <= 1e-12 * max(1.0, np.linalg.norm(a))


def test_eigh_is_deterministic_and_pure():
    a = _random_symmetric(4, 9)
    before = a.copy()
    d1 = eigh(a)
    d2 = eigh(a)
    assert np.array_equal(a, before)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eigenvector_sign_convention():
    a = _random_symmetric(6, 7)
    v = eigh(a).eigenvectors
    for k in range(7):
        lead = int(np.argmax(np.abs(v[:, k])))
        assert v[lead, k] > 0


def test_eigenvalues_sorted_descending():
    values = eigh(_random_symmetric(9, 15)).eigenvalues
    assert np.all(np.diff(values) <= 0)


def test_trivial_shapes():
    one = eigh(np.array([[3.0]]))
    assert one.eigenvalues[0] == 3.0 and one.eigenvectors[0, 0] == 1.0
    zero = eigh(np.zeros((4, 4)))
    assert np.array_equal(zero.eigenvalues, np.zeros(4))
    diag = eigh(np.diag([1.0, 5.0, -2.0]))
    assert np.array_equal(diag.eigenvalues, [5.0, 1.0, -2.0])


def test_input_validation():
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigh(np.zeros((0, 0)))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        eigh(skew)


def test_reconstruct_roundtrip_dataclass():
    dec = EigenDecomposition(np.array([2.0, 1.0]), np.eye(2))
    assert np.array_equal(dec.reconstruct(), np.diag([2.0, 1.0]))


def test_project_analytic_two_by_two():
    # Eigenpairs of [[0,1],[1,0]] are +-1 with vectors (1,1)/sqrt2 and
    # (1,-1)/sqrt2; dropping the -1 branch leaves 0.5 * ones.
    p = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.max(np.abs(p - 0.5 * np.ones((2, 2)))) <= 1e-15


def test_project_diagonal_clips_exactly():
    p = psd_project(np.diag([-1.0, 2.0]))
    assert np.array_equal(p, np.diag([0.0, 2.0]))


def test_project_keeps_psd_input():
    rng = np.random.default_rng(12)
    b = rng.normal(size=(6, 6))
    a = b @ b.T
    p = psd_project(a)
    assert np.max(np.abs(p - a)) <= 1e-13 * np.linalg.norm(a)


def test_project_output_is_symmetric_psd():
    for seed in range(6):
        a = _random_symmetric(seed + 100, 12)
        p = psd_project(a)
        assert np.array_equal(p, p.T)
        assert np.linalg.eigvalsh(p).min() >= -1e-12 * np.linalg.norm(a, 2)


def test_project_residual_orthogonality():
    # The removed part is the negative eigenspace, so it is orthogonal to
    # the kept part: <A - P, P> = 0 up to round-off.
    a = _random_symmetric(42, 10)
    p = psd_project(a)
    inner = float(np.sum((a - p) * p))
    assert abs(inner) <= 1e-10 * np.linalg.norm(a) ** 2


def test_project_handles_tiny_and_huge_scales():
    for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        a = _random_symmetric(77, 8, scale=scale)
        top = np.linalg.norm(a, 2)
        p = psd_project(a)
        assert np.linalg.eigvalsh(p).min() >= -1e-10 * top
        assert np.max(np.abs(psd_project(p) - p)) <= 1e-10 * top


def test_psd_shift_is_zero_on_psd_input_and_lifts_indefinite_input():
    for seed in range(4):
        assert _psd_shift(psd_project(_random_symmetric(seed + 200, 12))) == 0.0
        assert _psd_shift(random_quadratic(seed, [3, 2, 4], 0.7).curvature) == 0.0
    for seed, scale in ((0, 1e-6), (1, 1.0), (2, 1e6)):
        a = _random_symmetric(seed + 300, 12, scale=scale)
        shift = _psd_shift(a)
        assert shift > 0.0
        values = np.linalg.eigvalsh(a + shift * np.eye(12))
        assert values[0] >= -1e-12 * max(1.0, float(values[-1]))
