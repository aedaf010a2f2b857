import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab.linalg import (DecompositionError, NonPositiveP, NotOrthogonal,
                          NotOrthonormal, OrthogonalBlock, _haar_from_gaussian,
                          blocks_det, blocks_to_matrix, complete_to_unitary,
                          haar_orthogonal, haar_special_orthogonal,
                          is_real_orthogonal, is_unitary, p_distribution,
                          p_norm, rotation_block_decompose)

RNG = np.random.default_rng(20260816)


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_p_norm_known_values():
    v = np.array([3.0, 4.0])
    assert p_norm(v, 2) == pytest.approx(5.0)
    assert p_norm(v, 1) == pytest.approx(7.0)
    assert p_norm(v, math.inf) == pytest.approx(4.0)
    assert p_norm(np.array([1j, -1]), 4) == pytest.approx(2 ** 0.25)
    assert p_norm([0.5, 0.5], 1100) == 0.5 * 2 ** (1 / 1100)   # 0.5^1100 underflows
    assert p_norm(np.array([[3.0, 4.0], [0.0, 0.0]]), 2, axis=-1).tolist() == [5.0, 0.0]
    # a two-entry axis, reduced on its halves, gives the bits of one norm per line
    rng = np.random.default_rng(3)
    v = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
    for axis, p in ((0, 2.0), (2, 2.0), (2, 3.0), (-1, 2.0)):
        lines = np.moveaxis(v, axis, -1).reshape(-1, 2)
        got = p_norm(v, p, axis=axis).reshape(-1)
        assert got.tolist() == [p_norm(line, p) for line in lines]


@pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf])
def test_p_norm_rejects_nonpositive_p(bad):
    with pytest.raises(NonPositiveP):
        p_norm(np.ones(3), bad)


@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       p=st.floats(min_value=0.25, max_value=16.0))
@settings(max_examples=50, deadline=None)
def test_p_norm_homogeneous(scale, p):
    v = np.array([0.3, -1.2, 0.85, 2.0])
    assert p_norm(scale * v, p) == pytest.approx(scale * p_norm(v, p), rel=1e-10)


def _p_distribution_unskipped(amps, p, log2_gain=None):
    """The p-weight formula with exp2 applied to every exponent."""
    w = np.abs(amps)
    w /= w.max()
    with np.errstate(divide="ignore"):
        np.log2(w, out=w)
    w *= p
    if log2_gain is not None:
        w += log2_gain
        w -= w.max()
    np.exp2(w, out=w)
    w /= w.sum()
    return w


@pytest.mark.parametrize("p", [1.0, 3.0, 64.0, 1024.0, 1100.0])
def test_p_distribution_underflow_skip_is_exact(p):
    rng = np.random.default_rng(11)
    # Exponents around the exp2 cut at -1075, in the subnormal band
    # [-1075, -1022) and well above it, placed exactly through the gain.
    cut = -1075.0
    edges = [0.0, -1.0, -1021.5, -1022.0, -1050.25, -1074.5, np.nextafter(cut, 0.0),
             cut, np.nextafter(cut, -np.inf), -1075.5, -1100.0, -5000.0]
    gain = np.concatenate([edges, rng.uniform(-3000.0, 0.0, 500)])
    ones = np.ones(gain.size, dtype=complex)
    ones[[3, 40, 41]] = 0.0                       # exponent -inf
    # Amplitude moduli 2^(e/p), so p log2|a| spans the same range unaided.
    e = rng.uniform(-3000.0, 0.0, (2, 512))
    scaled = np.exp2(e / p) * np.exp(1j * rng.uniform(0, 2 * np.pi, e.shape))
    scaled[0, :7] = 0.0
    cases = [(ones, gain), (scaled[0], None), (scaled, None), (scaled, gain[:512]),
             (np.stack([ones, ones[::-1]]), gain)]
    for amps, g in cases:
        want = _p_distribution_unskipped(amps, p, g)
        got = p_distribution(amps, p, g)
        assert got.shape == amps.shape
        assert np.array_equal(got, want), (p, amps.shape, g is None)


def test_complete_to_unitary_single_column():
    u = complete_to_unitary([np.array([0.0, 1.0], dtype=complex)])
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    assert np.allclose(u[:, 0], [0, 1])


def test_complete_to_unitary_random_columns():
    cases = []
    for n, k in [(1, 1), (2, 2), (3, 1), (4, 2), (6, 3), (12, 3)]:
        q = haar_orthogonal(n, RNG).astype(complex)
        cases.append([q[:, i] for i in range(k)])
    # the discrimination setup's two fan-out columns at d = 101
    t = np.pi * np.arange(101) / 101
    cases.append([math.sqrt(2 / 101) * np.cos(t), math.sqrt(2 / 101) * np.sin(t)])
    for cols in cases:
        u = complete_to_unitary(cols)
        assert u.dtype == np.complex128 and u.shape == (cols[0].size,) * 2
        assert np.array_equal(u[:, :len(cols)], np.column_stack(cols))
        assert is_unitary(u)


def test_complete_to_unitary_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        complete_to_unitary([np.array([1.0, 1.0], dtype=complex)])
    with pytest.raises(NotOrthonormal):
        complete_to_unitary([np.array([1.0, 0.0], dtype=complex),
                             np.array([0.6, 0.8], dtype=complex)])
    # non-finite entries, and entries whose Gram product overflows, fail the
    # check itself, without a warning
    for bad in (1e200, math.nan, math.inf):
        with pytest.raises(NotOrthonormal, match="not orthonormal"):
            complete_to_unitary([np.array([bad, 0.0])])


def test_blocks_round_trip():
    blocks = [OrthogonalBlock("rotation", 0.4), OrthogonalBlock("+1", 0.0),
              OrthogonalBlock("-1", math.pi)]
    m = blocks_to_matrix(blocks)
    assert m.shape == (4, 4)
    assert blocks_det(blocks) == -1.0
    assert np.allclose(m[:2, :2], rot(0.4))
    assert m[2, 2] == 1.0 and m[3, 3] == -1.0


def test_decompose_recovers_rotation_angle():
    q, blocks = rotation_block_decompose(rot(1.234))
    assert len(blocks) == 1
    assert blocks[0].kind == "rotation"
    assert abs(blocks[0].angle) == pytest.approx(1.234, abs=1e-12)


def test_decompose_diagonal_signs():
    q, blocks = rotation_block_decompose(np.diag([1.0, -1.0, -1.0]))
    kinds = sorted(b.kind for b in blocks)
    assert kinds == ["+1", "-1", "-1"]
    assert blocks_det(blocks) == 1.0


def test_decompose_repeated_angle_cluster():
    """Two planes with the same rotation angle share one eigenvalue cluster."""
    base = np.zeros((4, 4))
    base[:2, :2] = rot(0.7)
    base[2:, 2:] = rot(0.7)
    q = haar_orthogonal(4, RNG)
    u = q @ base @ q.T
    qc, blocks = rotation_block_decompose(u)
    recon = qc @ blocks_to_matrix(blocks) @ qc.T
    assert np.linalg.norm(recon - u) < 1e-9
    assert sorted(b.kind for b in blocks) == ["rotation", "rotation"]


# Rotation angles within 1e-8 of 0 or pi: the rotation's eigenvalues nearly
# coincide with those of the +-1 axes next to it.
NEAR_DEGENERATE = {
    "near_identity": [rot(1e-8), 1.0],
    "near_half_turn": [rot(math.pi - 1e-8), -1.0, -1.0],
}


@pytest.mark.parametrize("kind", sorted(NEAR_DEGENERATE))
def test_decompose_near_degenerate_angles(kind):
    base = scipy.linalg.block_diag(*NEAR_DEGENERATE[kind])
    for _ in range(20):
        q = haar_orthogonal(base.shape[0], RNG)
        u = q @ base @ q.T
        qu, blocks = rotation_block_decompose(u)
        assert np.max(np.abs(qu @ blocks_to_matrix(blocks) @ qu.T - u)) <= 1e-12
        assert blocks_det(blocks) == round(np.linalg.det(u))


@pytest.mark.parametrize("n", [65, 128])
def test_decompose_beyond_sixty_four_dimensions(n):
    u = haar_orthogonal(n, RNG)
    q, blocks = rotation_block_decompose(u)
    assert np.max(np.abs(q @ blocks_to_matrix(blocks) @ q.T - u)) <= 1e-12
    assert blocks_det(blocks) == round(np.linalg.det(u))


def test_decompose_block_order():
    """Rotations first, then the +1 axes, then the -1 axes as a suffix."""
    base = scipy.linalg.block_diag(rot(-0.7), -1.0, rot(2.0), 1.0, -1.0, rot(math.pi - 1e-8))
    q = haar_orthogonal(9, RNG)
    _, blocks = rotation_block_decompose(q @ base @ q.T)
    kinds = [b.kind for b in blocks]
    assert kinds == ["rotation"] * 3 + ["+1", "-1", "-1"]
    angles = sorted(b.angle for b in blocks if b.kind == "rotation")
    assert angles == pytest.approx([0.7, 2.0, math.pi - 1e-8], abs=1e-12)


def test_decompose_opposite_angles():
    base = np.zeros((4, 4))
    base[:2, :2] = rot(0.9)
    base[2:, 2:] = rot(-0.9)
    q = haar_orthogonal(4, RNG)
    u = q @ base @ q.T
    qc, blocks = rotation_block_decompose(u)
    recon = qc @ blocks_to_matrix(blocks) @ qc.T
    assert np.linalg.norm(recon - u) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_decompose_haar_batch(n):
    for _ in range(40):
        u = haar_orthogonal(n, RNG)
        q, blocks = rotation_block_decompose(u)
        recon = q @ blocks_to_matrix(blocks) @ q.T
        assert np.linalg.norm(recon - u) < 1e-9
        assert np.allclose(q @ q.T, np.eye(n), atol=1e-10)
        det_from_blocks = blocks_det(blocks)
        assert det_from_blocks == pytest.approx(np.linalg.det(u), abs=1e-6)


def test_decompose_rejects_non_orthogonal():
    # is_real_orthogonal runs the same check, so it says no to each input
    for bad in ([[1.0, 1.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
                1.0,   # 0-d: no shape to index
                [[1e160, 0.0], [0.0, 1e160]],   # overflows the Gram product
                [[1.0, 1j], [0.0, 1.0]]):
        assert not is_real_orthogonal(np.array(bad))
        with pytest.raises(NotOrthogonal):
            rotation_block_decompose(np.array(bad))


def test_decompose_identity_and_negated_identity():
    _, blocks = rotation_block_decompose(np.eye(3))
    assert all(b.kind == "+1" for b in blocks)
    _, blocks = rotation_block_decompose(-np.eye(4))
    assert all(b.kind == "-1" for b in blocks)
    assert blocks_det(blocks) == 1.0


def test_haar_samplers():
    for n in (1, 2, 5):
        q = haar_orthogonal(n, RNG)
        assert is_real_orthogonal(q)
        so = haar_special_orthogonal(n, RNG)
        assert is_real_orthogonal(so)
        assert np.linalg.det(so) == pytest.approx(1.0, abs=1e-9)


def test_haar_special_orthogonal_at_one_is_plus_one():
    # O(1) is {+1, -1}: a draw of -1 comes back negated, never as a reflection
    draws = [haar_orthogonal(1, np.random.default_rng(seed))[0, 0] for seed in range(8)]
    assert -1.0 in draws and 1.0 in draws
    for seed in range(8):
        so = haar_special_orthogonal(1, np.random.default_rng(seed))
        assert so.shape == (1, 1) and so[0, 0] == 1.0


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_haar_draw_matches_one_at_a_time(n):
    # island_scan draws its Haar ensemble as one stack; the scans reach n = 4
    stacked_rng, loop_rng = np.random.default_rng(n), np.random.default_rng(n)
    count = 40
    stacked = _haar_from_gaussian(stacked_rng.standard_normal((count, n, n)))
    one_at_a_time = np.stack([haar_orthogonal(n, loop_rng) for _ in range(count)])
    assert np.array_equal(stacked, one_at_a_time)
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state


def test_is_unitary_tolerance():
    u = np.eye(3, dtype=complex)
    assert is_unitary(u)
    u[0, 1] = 1e-6
    assert not is_unitary(u)


def test_is_unitary_wants_a_square_matrix():
    # a 4x2 isometry has orthonormal columns, so its Gram residual is at
    # rounding level, but only a square matrix is unitary
    rng = np.random.default_rng(42)
    iso, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    assert np.abs(iso.conj().T @ iso - np.eye(2)).max() < 1e-12
    assert not is_unitary(iso)


@pytest.mark.parametrize("scale", [1e154, 1e160, 1e300])
def test_is_unitary_overflowing_gram_is_not_unitary(scale):
    # m^H m overflows to inf (and inf - inf to NaN off the diagonal): no
    # warning, and the answer is no
    assert not is_unitary(np.eye(2) * scale)
    assert not is_unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) * scale)
