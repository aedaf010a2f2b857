import json
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import unitary_group

from qvlab.linalg import NotOrthogonal, NotUnitary, haar_orthogonal
from qvlab.roots import (DETERMINANT_NEGATIVE, RESIDUAL_TOL, embed_sqrt,
                         kth_root_scan, real_orthogonal_sqrt, unitary_sqrt)

REFLECTION_2 = np.diag([1.0, -1.0])

MIRROR_3 = np.diag([1.0, -1.0, -1.0])
MIRROR_3_ROOT = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
])


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_unitary_sqrt_identity():
    result = unitary_sqrt(np.eye(3))
    assert result.exists
    assert np.allclose(result.root, np.eye(3), atol=1e-12)
    assert result.residual < 1e-12


def test_unitary_sqrt_principal_branch():
    result = unitary_sqrt(REFLECTION_2)
    assert np.allclose(result.root, np.diag([1.0, 1.0j]), atol=1e-12)


def test_unitary_sqrt_random():
    u = unitary_group.rvs(4, random_state=2)
    result = unitary_sqrt(u)
    r = result.root
    assert np.allclose(r @ r, u, atol=1e-10)
    assert np.allclose(r @ r.conj().T, np.eye(4), atol=1e-10)
    assert np.allclose(r @ u, u @ r, atol=1e-10)  # shares eigenvectors
    assert result.residual < RESIDUAL_TOL


def test_unitary_sqrt_rejects():
    with pytest.raises(NotUnitary):
        unitary_sqrt(np.ones((2, 2)))


def test_real_sqrt_reflection_obstructed():
    result = real_orthogonal_sqrt(REFLECTION_2)
    assert not result.exists
    assert result.obstruction == DETERMINANT_NEGATIVE
    assert result.root is None
    assert result.residual is None


def test_real_sqrt_halves_rotation():
    result = real_orthogonal_sqrt(rot(0.9))
    assert result.exists
    assert np.allclose(result.root, rot(0.45), atol=1e-12)


def test_real_sqrt_pairs_minus_ones():
    result = real_orthogonal_sqrt(-np.eye(2))
    assert result.exists
    v = result.root
    assert np.allclose(v @ v, -np.eye(2), atol=1e-12)
    assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)

    result4 = real_orthogonal_sqrt(-np.eye(4))
    assert result4.exists
    assert result4.residual < 1e-12


def test_real_sqrt_dichotomy_batch():
    rng = np.random.default_rng(60)
    for n in range(2, 7):
        for _ in range(50):
            u = haar_orthogonal(n, rng)
            result = real_orthogonal_sqrt(u)
            det = np.linalg.det(u)
            assert result.exists == (det > 0)
            if result.exists:
                v = result.root
                assert not np.iscomplexobj(v)
                assert result.residual <= RESIDUAL_TOL
                assert np.allclose(v @ v.T, np.eye(n), atol=1e-9)
                assert np.linalg.det(v) == pytest.approx(1.0, abs=1e-9)
            else:
                assert result.obstruction == DETERMINANT_NEGATIVE


def test_real_sqrt_rejects():
    with pytest.raises(NotOrthogonal):
        real_orthogonal_sqrt(np.ones((2, 2)))
    # complex input is rejected, not cast to its real part (identity)
    for bad in (np.array([[1.0, 1.0j], [0.0, 1.0]]), np.array(1.0)):
        with pytest.raises(NotOrthogonal):
            real_orthogonal_sqrt(bad)
        with pytest.raises(NotOrthogonal):
            embed_sqrt(bad)
    big = real_orthogonal_sqrt(np.eye(65))   # no dimension cap
    assert big.exists and big.residual == 0.0


def test_mirror_fixture_is_integer_exact():
    assert np.array_equal(MIRROR_3_ROOT @ MIRROR_3_ROOT, MIRROR_3)
    assert np.array_equal(MIRROR_3_ROOT @ MIRROR_3_ROOT.T, np.eye(3))


def test_real_sqrt_mirror_three():
    result = real_orthogonal_sqrt(MIRROR_3)  # det = +1, two -1 entries pair up
    assert result.exists
    assert np.allclose(result.root @ result.root, MIRROR_3, atol=1e-12)


def test_embed_sqrt_reflection():
    result = embed_sqrt(REFLECTION_2)
    assert result.exists
    v = result.root
    assert v.shape == (3, 3)
    uhat = np.diag([1.0, -1.0, -1.0])
    assert np.allclose(v @ v, uhat, atol=1e-12)
    assert result.residual <= RESIDUAL_TOL


def test_embed_sqrt_identity_and_rotation():
    result = embed_sqrt(np.eye(3))
    assert np.allclose(result.root, np.eye(4), atol=1e-12)
    spun = embed_sqrt(rot(1.3))
    assert np.allclose(spun.root[:2, :2], rot(0.65), atol=1e-12)
    assert spun.root[2, 2] == pytest.approx(1.0)


def test_embed_sqrt_batch_always_exists():
    rng = np.random.default_rng(61)
    for n in range(2, 7):
        for _ in range(25):
            u = haar_orthogonal(n, rng)
            result = embed_sqrt(u)
            assert result.exists
            v = result.root
            assert v.shape == (n + 1, n + 1)
            assert result.residual <= RESIDUAL_TOL
            uhat = v @ v
            assert np.allclose(uhat[:n, :n], u, atol=1e-9)
            assert uhat[n, n] == pytest.approx(np.linalg.det(u), abs=1e-9)


@pytest.mark.parametrize("blocks", [
    [rot(1e-8), 1.0],
    [rot(math.pi - 1e-8), -1.0, -1.0],
    [rot(math.pi - 1e-8), -1.0],
], ids=["near_identity", "near_half_turn", "near_half_turn_reflection"])
def test_roots_of_near_degenerate_angles(blocks):
    rng = np.random.default_rng(67)
    base = scipy.linalg.block_diag(*blocks)
    n = base.shape[0]
    det = round(np.linalg.det(base))
    for _ in range(20):
        q = haar_orthogonal(n, rng)
        u = q @ base @ q.T
        real = real_orthogonal_sqrt(u)
        if det > 0:
            assert real.exists and real.residual <= RESIDUAL_TOL
        else:
            assert real.obstruction == DETERMINANT_NEGATIVE
        embedded = embed_sqrt(u)
        assert embedded.exists and embedded.residual <= RESIDUAL_TOL
        square = embedded.root @ embedded.root
        assert np.allclose(square[:n, :n], u, atol=1e-9)
        assert square[n, n] == pytest.approx(det, abs=1e-9)


def test_embed_sqrt_at_sixty_four_dimensions():
    u = haar_orthogonal(64, np.random.default_rng(71))
    result = embed_sqrt(u)
    assert result.exists and result.root.shape == (65, 65)
    assert result.residual <= RESIDUAL_TOL


def test_kth_root_divides_rotation_angle():
    result = kth_root_scan(rot(2 * math.pi / 3), 3)
    assert result.exists
    assert result.power == 3
    assert np.allclose(result.root, rot(2 * math.pi / 9), atol=1e-12)


def test_kth_root_odd_k_handles_reflections():
    # det = -1 blocks even k only; an odd power of a -1 entry is itself
    result = kth_root_scan(REFLECTION_2, 3)
    assert result.exists
    assert np.allclose(result.root, REFLECTION_2, atol=1e-12)
    assert result.residual < 1e-12


@pytest.mark.parametrize("k", [2, 4, 6])
def test_kth_root_even_k_obstructed_for_reflections(k):
    result = kth_root_scan(REFLECTION_2, k)
    assert not result.exists
    assert result.obstruction == DETERMINANT_NEGATIVE


def test_kth_root_existence_oracle_dimension_two():
    thetas = np.linspace(-3.0, 3.0, 13)
    for k in range(2, 7):
        for theta in thetas:
            for reflect in (False, True):
                u = rot(theta) @ (REFLECTION_2 if reflect else np.eye(2))
                result = kth_root_scan(u, k)
                want = (not reflect) or (k % 2 == 1)
                assert result.exists == want, (k, theta, reflect)
                if result.exists:
                    assert result.residual <= RESIDUAL_TOL
                    v = result.root
                    assert np.allclose(v @ v.T, np.eye(2), atol=1e-9)


def test_kth_root_forced_complex_field():
    result = kth_root_scan(REFLECTION_2, 2, field="complex")
    assert result.exists
    assert np.allclose(result.root, np.diag([1.0, 1.0j]), atol=1e-12)


def test_kth_root_complex_input_autodetects():
    u = np.diag([1.0j, 1.0])
    result = kth_root_scan(u, 2)
    assert result.exists
    assert np.allclose(result.root @ result.root, u, atol=1e-12)


def test_kth_root_validation():
    with pytest.raises(ValueError):
        kth_root_scan(np.eye(2), 1)
    with pytest.raises(ValueError):
        kth_root_scan(np.eye(2), 3, field="quaternion")
    with pytest.raises(NotOrthogonal):
        kth_root_scan(np.ones((2, 2)), 2)
    for bad in (np.array([[1.0, 1.0j], [0.0, 1.0]]), np.array(1.0)):
        with pytest.raises(NotOrthogonal):
            kth_root_scan(bad, 3, field="real")
    with pytest.raises(NotUnitary):
        kth_root_scan(np.ones((2, 2)), 2, field="complex")


def test_complex_and_real_roots_agree_on_rotations():
    rng = np.random.default_rng(62)
    for n in (3, 4, 5):
        for _ in range(10):
            u = haar_orthogonal(n, rng)
            if np.linalg.det(u) < 0:
                u[:, [0, 1]] = u[:, [1, 0]]
            real = real_orthogonal_sqrt(u).root
            cplx = unitary_sqrt(u).root
            assert np.abs(cplx.imag).max() < 1e-8
            assert np.allclose(cplx.real, real, atol=1e-8)


def test_result_serialization():
    real = real_orthogonal_sqrt(rot(0.4)).to_dict()
    assert json.loads(json.dumps(real))["power"] == 2
    assert real["root"][0][0] == pytest.approx(math.cos(0.2))
    cplx = unitary_sqrt(REFLECTION_2).to_dict()
    assert cplx["root"][1][1] == pytest.approx([0.0, 1.0])
    blocked = real_orthogonal_sqrt(REFLECTION_2).to_dict()
    assert blocked == {"exists": False, "root": None,
                       "obstruction": DETERMINANT_NEGATIVE,
                       "residual": None, "power": 2}
