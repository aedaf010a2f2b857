"""Square and k-th roots inside the unitary and real orthogonal groups.

Complex unitaries always split: take principal roots of the eigenvalues.
Real orthogonal matrices are the interesting case.  A real square V of
U = V @ V forces det(U) = det(V)^2 >= 0, so reflections (det = -1) have no
real orthogonal square root at the same dimension; rotations (det = +1)
always do, built by halving the angles of the plane-rotation decomposition
and spending paired -1 eigenvalues on quarter-turn blocks.  Appending one
extra dimension carrying det(U) removes the obstruction entirely: every
n-dimensional orthogonal U embeds in an (n+1)-dimensional rotation with a
real square root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (NotUnitary, OrthogonalBlock, blocks_det, blocks_to_matrix,
                     is_unitary, rotation_block_decompose)
from .report import fields_to_json

RESIDUAL_TOL = 1e-9
DETERMINANT_NEGATIVE = "DeterminantNegative"


@dataclass
class SqrtResult:
    """Outcome of a root construction.

    ``exists`` true comes with the explicit ``root`` and the Frobenius
    residual of root**power against the target; false comes with the
    obstruction tag instead.
    """

    exists: bool
    root: np.ndarray | None
    obstruction: str | None
    residual: float | None
    power: int = 2

    def to_dict(self) -> dict:
        return fields_to_json(self)


def _principal_root_result(u: np.ndarray, k: int) -> SqrtResult:
    """Principal eigenvalue roots through the complex Schur form."""
    t, z = scipy.linalg.schur(u.astype(np.complex128), output="complex")
    # u is normal, so t is diagonal up to roundoff; keep only the diagonal.
    angles = np.angle(np.diagonal(t))
    root = z @ np.diag(np.exp(1j * angles / k)) @ z.conj().T
    residual = float(np.linalg.norm(np.linalg.matrix_power(root, k) - u))
    return SqrtResult(True, root, None, residual, power=k)


def unitary_sqrt(u) -> SqrtResult:
    """Square root of a unitary, principal branch.

    Eigenvalue arguments in (-pi, pi] are halved, so diag(1, -1) maps to
    diag(1, i).  The root shares the input's eigenvectors and is unitary.
    """
    return kth_root_scan(u, 2, "complex")


def _halved_blocks(blocks: list[OrthogonalBlock], k: int) -> list[OrthogonalBlock]:
    """Divide rotation angles by k; pair -1 entries into pi/k rotations when
    k is even (each pair's k-th power is the full half-turn diag(-1,-1))."""
    out: list[OrthogonalBlock] = []
    pending_minus = 0
    for b in blocks:
        if b.kind == "rotation":
            out.append(OrthogonalBlock("rotation", b.angle / k))
        elif b.kind == "+1":
            out.append(OrthogonalBlock("+1", 0.0))
        else:
            pending_minus += 1
    if k % 2 == 1:
        out.extend(OrthogonalBlock("-1", math.pi) for _ in range(pending_minus))
    else:
        if pending_minus % 2:
            raise AssertionError("odd -1 count survived the determinant check")
        out.extend(OrthogonalBlock("rotation", math.pi / k)
                   for _ in range(pending_minus // 2))
    return out


def _real_root_result(u: np.ndarray, q: np.ndarray, blocks: list[OrthogonalBlock],
                      k: int) -> SqrtResult:
    """k-th root of u = q @ blocks @ q.T, certified against u itself."""
    det = blocks_det(blocks)
    if det < 0 and k % 2 == 0:
        return SqrtResult(False, None, DETERMINANT_NEGATIVE, None, power=k)
    # The decomposition emits -1 entries contiguously, so the paired
    # quarter-turn blocks from _halved_blocks line up with their slots.
    root = q @ blocks_to_matrix(_halved_blocks(blocks, k)) @ q.T
    residual = float(np.linalg.norm(np.linalg.matrix_power(root, k) - u))
    return SqrtResult(True, root, None, residual, power=k)


def real_orthogonal_sqrt(u) -> SqrtResult:
    """Real orthogonal square root, or the determinant obstruction.

    det(u) is read off the plane-rotation decomposition (a product of the
    +-1 entries) rather than from generic determinant numerics.  det = -1
    reports exists=false: a real square has nonnegative determinant.
    det = +1 returns V in SO(n) with V @ V = u: rotation angles halved,
    -1 entries paired in slot order into quarter turns.
    """
    return kth_root_scan(u, 2, "real")


def _bordered(m: np.ndarray, corner: float) -> np.ndarray:
    """diag(m, corner): m with one more row and column."""
    n = m.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = m
    out[n, n] = corner
    return out


def embed_sqrt(u) -> SqrtResult:
    """Square root one dimension up: works for every real orthogonal input.

    Extends u with one diagonal entry det(u), landing in SO(n+1) whatever
    the sign, then takes the real square root there.  The returned root V
    satisfies V @ V = diag(u, det(u)), which contains u as its leading
    n x n submatrix.  u is decomposed once; the new axis joins its
    decomposition as a +1 block (det = +1) or as one more -1 block
    (det = -1).  For det = -1 the root is one of several valid ones: the
    quarter turns that pair up the -1 axes have no unique orientation.
    """
    q, blocks = rotation_block_decompose(u)
    u = np.real(u)   # any imaginary part is within tolerance
    det = blocks_det(blocks)
    n = u.shape[0]
    qhat = _bordered(q, 1.0)
    if det > 0:
        # the new +1 axis goes in front of the -1 suffix
        minus = sum(b.kind == "-1" for b in blocks)
        blocks.insert(len(blocks) - minus, OrthogonalBlock("+1"))
        qhat = qhat[:, list(range(n - minus)) + [n] + list(range(n - minus, n))]
    else:
        blocks.append(OrthogonalBlock("-1"))
    return _real_root_result(_bordered(u, det), qhat, blocks, 2)


def kth_root_scan(u, k: int, field: str | None = None) -> SqrtResult:
    """k-th root with the group kept explicit.

    field="complex" always succeeds via principal eigenvalue roots.
    field="real" (default for real-valued input) reports the genuine
    obstruction: a real orthogonal k-th root exists iff det(u) = +1 or k is
    odd, since det(V)^k = det(u) forces det(u) = +1 for even k, while for
    odd k every -1 entry is its own k-th root and rotation angles divide.
    For even k with paired -1 axes the real root is one of several valid
    ones: the orientation of each pi/k turn on the -1 eigenspace is not
    unique.  The real field is validated once, by the block decomposition:
    an imaginary part above tolerance raises NotOrthogonal rather than
    being dropped.  ``real_orthogonal_sqrt`` and ``unitary_sqrt`` are this
    scan at k = 2.
    """
    k = int(k)
    if k < 2:
        raise ValueError("k must be at least 2")
    u = np.asarray(u)
    if field is None:
        field = "real" if not np.iscomplexobj(u) else "complex"
    if field == "complex":
        u = np.asarray(u, dtype=np.complex128)
        if not is_unitary(u):
            raise NotUnitary("input is not unitary within tolerance")
        return _principal_root_result(u, k)
    if field != "real":
        raise ValueError("field must be 'real' or 'complex'")
    q, blocks = rotation_block_decompose(u)   # validates u
    return _real_root_result(np.real(u), q, blocks, k)
