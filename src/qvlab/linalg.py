"""Vector norms and the orthogonal-matrix machinery used across the package.

The plane-rotation block decomposition of a real orthogonal matrix is read
off scipy's real Schur form, so it works at any dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Default tolerances. All of these can be overridden per call.
ORTHONORMAL_TOL = 1e-10
GRAM_SCHMIDT_SKIP_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-9


class NonPositiveP(ValueError):
    """p-norms require p > 0 (or the explicit infinity flag)."""


class PEqualsTwo(ValueError):
    """The requested effect is degenerate exactly at p = 2."""


class NotOrthonormal(ValueError):
    """Supplied columns are not orthonormal within tolerance."""


class NotOrthogonal(ValueError):
    """Matrix is not real orthogonal within tolerance."""


class NotUnitary(ValueError):
    """Matrix is not unitary within tolerance."""


class DecompositionError(RuntimeError):
    """The block decomposition could not certify its own reconstruction."""


def p_norm(v, p: float, axis=None):
    """(sum_j |v_j|^p)^(1/p) for p > 0; max_j |v_j| for p = math.inf.

    p = 0 and p < 0 are rejected: the measurement rules downstream divide by
    this quantity and need it positive and homogeneous.  The moduli are
    divided by their maximum before the power, so no p and no scale of v
    overflows or underflows the sum.  With ``axis`` the norms are taken
    along that axis and returned as an array.
    """
    a = np.abs(np.asarray(v))
    # A two-entry axis (a one-qubit gate's target) is reduced by one ufunc
    # call on its two halves: numpy's reduce runs one inner loop per pair,
    # 6-50x slower on a strided view, and two terms have only one rounding.
    pair = axis is not None and a.shape[axis] == 2
    top = np.maximum(*_halves(a, axis)) if pair else np.max(a, axis=axis, keepdims=True,
                                                             initial=0.0)
    if math.isinf(p) and p > 0:
        norm = top
    elif p > 0:
        unit = np.where(top > 0, top, 1.0)
        w = (a / unit) ** p
        total = np.add(*_halves(w, axis)) if pair else np.sum(w, axis=axis, keepdims=True)
        norm = unit * total ** (1.0 / p)
    else:
        raise NonPositiveP(f"p must be positive (got {p})")
    norm = norm.squeeze(axis)
    return float(norm) if axis is None else norm


def _halves(x: np.ndarray, axis: int):
    """The two entries of a length-2 ``axis`` of ``x``: views that keep the axis."""
    lead = (slice(None),) * (axis % x.ndim)
    return x[lead + (slice(0, 1),)], x[lead + (slice(1, 2),)]


def p_distribution(amps, p: float, log2_gain=None) -> np.ndarray:
    """The p-norm rule |a_x|^p / sum_y |a_y|^p over every entry of ``amps``.

    Weights are formed as exp2(p log2(|a| / max|a|)), so the largest is 1
    and the sum cannot overflow or underflow for any finite p > 0 or any
    amplitude scale; exp2 also avoids pow's slow subnormal results at p in
    the thousands.  ``log2_gain``, broadcast against ``amps``, adds exact
    per-entry log2 weight multipliers (postselection gadgets); the exponents
    are then shifted so that their maximum is 0.  p is not re-checked here:
    callers validate it at their boundary.
    """
    w = np.abs(amps)
    w /= w.max()
    with np.errstate(divide="ignore"):   # log2(0) = -inf, weight 0
        np.log2(w, out=w)
    w *= p
    if log2_gain is not None:
        w += log2_gain
        w -= w.max()
    np.exp2(w, out=w)
    w /= w.sum()
    return w


def is_unitary(m, tol: float = ORTHONORMAL_TOL) -> bool:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return _gram_residual(m) <= tol


def _gram_residual(m: np.ndarray) -> float:
    """max |m^H m - I| of a square matrix; inf where that is not finite
    (entries above about 1e154 overflow the Gram product), so no tolerance
    passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))
    return residual if math.isfinite(residual) else math.inf


def _orthogonality_failure(m: np.ndarray, tol: float) -> str | None:
    """Why ``m`` is not real orthogonal within ``tol``, or None if it is."""
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) > tol:
        return "matrix has a complex part"
    m = m.real
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return "matrix must be square"
    if not _gram_residual(m) <= tol:
        return f"matrix is not orthogonal within {tol:g}"
    return None


def is_real_orthogonal(m, tol: float = ORTHONORMAL_TOL) -> bool:
    return _orthogonality_failure(np.asarray(m), tol) is None


def complete_to_unitary(columns, tol: float = ORTHONORMAL_TOL,
                        skip_tol: float = GRAM_SCHMIDT_SKIP_TOL) -> np.ndarray:
    """Extend k orthonormal columns to a full unitary, deterministically.

    Candidates are the canonical basis vectors in index order; each is
    Gram-Schmidt orthogonalized against the columns accepted so far and kept
    when its residual norm exceeds ``skip_tol``.  The supplied columns come
    first in the result, so round-tripping the leading k columns is exact.

    Raises NotOrthonormal when the input columns fail the Gram check.
    """
    cols = [np.asarray(c, dtype=np.complex128).ravel() for c in columns]
    if not cols:
        raise NotOrthonormal("need at least one column")
    d = cols[0].size
    if any(c.size != d for c in cols) or len(cols) > d:
        raise NotOrthonormal("columns must share one dimension, at most d of them")
    basis = np.column_stack(cols)
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(len(cols)))) > tol:
        raise NotOrthonormal(
            f"columns are not orthonormal within {tol:g}")

    accepted = list(basis.T)
    for i in range(d):
        if len(accepted) == d:
            break
        cand = np.zeros(d, dtype=np.complex128)
        cand[i] = 1.0
        # two passes of projection for numerical stability
        for _ in range(2):
            for b in accepted:
                cand = cand - (b.conj() @ cand) * b
        norm = np.linalg.norm(cand)
        if norm > skip_tol:
            accepted.append(cand / norm)
    if len(accepted) != d:
        raise NotOrthonormal("could not complete basis; inputs nearly dependent")
    return np.column_stack(accepted)


@dataclass(frozen=True)
class OrthogonalBlock:
    """One diagonal block of an orthogonal matrix in rotation normal form.

    kind is "rotation" (2x2 plane rotation by ``angle``), "+1" (fixed axis) or
    "-1" (flipped axis).
    """

    kind: str
    angle: float = 0.0

    def matrix(self) -> np.ndarray:
        if self.kind == "rotation":
            c, s = math.cos(self.angle), math.sin(self.angle)
            return np.array([[c, -s], [s, c]])
        return np.array([[1.0 if self.kind == "+1" else -1.0]])

    @property
    def size(self) -> int:
        return 2 if self.kind == "rotation" else 1


def blocks_to_matrix(blocks) -> np.ndarray:
    n = sum(b.size for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.size, at:at + b.size] = b.matrix()
        at += b.size
    return out


def blocks_det(blocks) -> int:
    """Determinant from the normal form: the product of the +-1 entries."""
    sign = 1
    for b in blocks:
        if b.kind == "-1":
            sign = -sign
    return sign


def rotation_block_decompose(u, tol: float = ORTHONORMAL_TOL,
                             recon_tol: float = RECONSTRUCTION_TOL):
    """Factor real orthogonal ``u`` as q @ B @ q.T with B in rotation normal form.

    Returns (q, blocks) where q is real orthogonal and blocks is a list of
    OrthogonalBlock describing B in a fixed order: the 2x2 rotations (angle
    in (0, pi)), then the +1 axes, then the -1 axes as a contiguous suffix.

    The blocks are read off scipy's real Schur form u = z @ t @ z.T: u is
    normal, so t is block diagonal up to roundoff, each 2x2 block a rotation
    and each 1x1 block a +-1 axis.  The routine certifies its own output and
    raises DecompositionError if the reconstruction residual exceeds
    ``recon_tol``.  It is the only real-orthogonality check on the way to a
    real root: input with an imaginary part above ``tol``, of the wrong
    shape, or not orthogonal within ``tol`` raises NotOrthogonal.
    """
    u = np.asarray(u)
    reason = _orthogonality_failure(u, tol)
    if reason is not None:
        raise NotOrthogonal(reason)
    u = u.real.astype(np.float64)
    n = u.shape[0]

    t, z = scipy.linalg.schur(u, output="real")
    rot_cols: list[int] = []
    angles: list[float] = []
    plus: list[int] = []
    minus: list[int] = []
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            # a 2x2 block is a rotation; swapping its two axes flips the
            # sign of its angle, which keeps the angle in (0, pi)
            s = (t[i + 1, i] - t[i, i + 1]) / 2.0
            c = (t[i, i] + t[i + 1, i + 1]) / 2.0
            rot_cols += [i, i + 1] if s > 0 else [i + 1, i]
            angles.append(math.atan2(abs(s), c))
            i += 2
        else:
            (plus if t[i, i] > 0 else minus).append(i)
            i += 1
    q = z[:, rot_cols + plus + minus]
    blocks = ([OrthogonalBlock("rotation", a) for a in angles]
              + [OrthogonalBlock("+1")] * len(plus) + [OrthogonalBlock("-1")] * len(minus))
    residual = float(np.max(np.abs(q @ blocks_to_matrix(blocks) @ q.T - u)))
    if residual > recon_tol:
        raise DecompositionError(
            f"reconstruction residual {residual:.3e} exceeds {recon_tol:g}")
    return q, blocks


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed sample from O(n) (QR of a Gaussian with sign fix)."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def haar_special_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q = haar_orthogonal(n, rng)
    if np.linalg.det(q) < 0:
        if n == 1:
            q = -q
        else:
            q = q.copy()
            q[:, [0, 1]] = q[:, [1, 0]]
    return q
