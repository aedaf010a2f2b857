"""Which linear maps preserve the p-norm?

For p = 2 the answer is the unitary group.  For every other p > 0 the only
preservers are generalized diagonal matrices: a permutation times a diagonal
of unimodular entries.  This module provides an executable version of that
dichotomy at three levels of rigor:

* ``preserves_pnorm_numeric``: sampled check for arbitrary matrices and p.
* ``preserves_pnorm_formal_even``: for real matrices and even p, expands both
  sides of sum_j x_j^p == sum_j (sum_k a_jk x_k)^p as formal polynomials and
  compares every coefficient (exactly, when the entries are rational).
* ``phase_invariance_check``: for complex inputs, sweeps a phase on one input
  coordinate and watches ||Ax||_p for relative variation, which for p != 2
  forces the column structure of a generalized diagonal matrix.

``island_scan`` hammers random matrix ensembles with the numeric check and
asserts that nothing except generalized diagonal matrices survives.

Every numeric residual |‖Ax‖_p − ‖x‖_p| comes from one kernel,
``_deviations``, which takes one matrix or a whole stack, and every matrix
a caller passes in goes through one entry check, ``_square_matrix``: a
square array of finite entries, or ValueError.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .linalg import _haar_from_gaussian, p_norm
from .report import CheckReport

NUMERIC_TOL = 1e-10
FORMAL_TOL = 1e-12


class UnsupportedP(ValueError):
    """Outside the formal expansion's domain (``formal_even_applies``), or a
    p that no check here takes."""


@dataclass
class GenDiagVerdict:
    """Classification of a matrix as permutation x diagonal (or not)."""

    is_generalized_diagonal: bool
    permutation: list[int] | None = None   # permutation[k] = row of column k's entry
    phases: list[complex] | None = None    # the diagonal entries, column order


@dataclass
class PreservationVerdict:
    preserves: bool
    witness_vector: np.ndarray | None = None
    residual: float = 0.0
    details: dict = field(default_factory=dict)


def _square_matrix(a) -> np.ndarray:
    """``a`` as a square complex128 array of finite entries; ValueError otherwise."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN or infinity)")
    return a


def _one_entry_per_line(big: np.ndarray) -> np.ndarray:
    """Whether each (..., n, n) boolean mask holds exactly one True in every
    row and every column."""
    return np.all(big.sum(axis=-2) == 1, axis=-1) & np.all(big.sum(axis=-1) == 1, axis=-1)


def is_generalized_diagonal(a, tol: float = NUMERIC_TOL) -> GenDiagVerdict:
    """True iff every row and column has exactly one entry with modulus > tol.

    On success the verdict carries the permutation and diagonal such that
    A reconstructs as P @ D with P[perm[k], k] = 1 and D[k, k] = phases[k].
    """
    a = _square_matrix(a)
    n = a.shape[0]
    big = np.abs(a) > tol
    if not _one_entry_per_line(big):
        return GenDiagVerdict(False)
    perm = [int(np.nonzero(big[:, k])[0][0]) for k in range(n)]
    phases = [complex(a[perm[k], k]) for k in range(n)]
    return GenDiagVerdict(True, perm, phases)


def _sample_vectors(n: int, trials: int, rng: np.random.Generator,
                    nonnegative: bool = False) -> np.ndarray:
    """Deterministic trial vectors: canonical basis first, then unit-sphere
    draws, nonnegative ones or else real for the first half, complex after."""
    rows = [np.eye(n, dtype=np.complex128)]
    remaining = max(0, trials - n)
    if nonnegative:
        draws = np.abs(rng.standard_normal((remaining, n)))
    else:
        re = rng.standard_normal((remaining, n))
        im = rng.standard_normal((remaining, n))
        im[:remaining // 2] = 0.0
        draws = re + 1j * im
    if remaining:
        norms = np.linalg.norm(draws, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        rows.append((draws / norms).astype(np.complex128))
    return np.vstack(rows)[:max(trials, n)]


def _deviations(mats: np.ndarray, vecs: np.ndarray, p: float,
                convention: str = "modulus") -> np.ndarray:
    """|‖Ax‖_p − ‖x‖_p| for each matrix A of ``mats``, one (n, n) or a stack
    (..., n, n), and each trial vector x, a row of ``vecs``: shape (..., trials).

    "split" reads a complex n-vector as 2n real coordinates.
    """
    outs = vecs @ np.swapaxes(mats, -1, -2)
    if convention == "split":
        vecs, outs = (np.concatenate([v.real, v.imag], axis=-1) for v in (vecs, outs))
    return np.abs(p_norm(outs, p, axis=-1) - p_norm(vecs, p, axis=-1))


def preserves_pnorm_numeric(a, p: float, trials: int = 64, seed: int | None = 0,
                            tol: float = NUMERIC_TOL, convention: str = "modulus",
                            nonnegative: bool = False) -> PreservationVerdict:
    """Sampled check of ||A x||_p == ||x||_p.

    Trial vectors are the canonical basis followed by seeded unit-sphere draws
    (real and complex; nonnegative only, when ``nonnegative`` is set, for the
    stochastic-matrix cone check at p = 1).  ``convention`` selects how complex
    entries enter the norm: "modulus" (default) or "split", which reads a
    complex n-vector as 2n real coordinates.

    Returns the first violating witness, or preserves=True with the largest
    deviation seen.
    """
    if convention not in ("modulus", "split"):
        raise ValueError("convention must be 'modulus' or 'split'")
    a = _square_matrix(a)
    rng = np.random.default_rng(seed)
    vecs = _sample_vectors(a.shape[0], trials, rng, nonnegative)
    devs = _deviations(a, vecs, p, convention)
    worst = float(devs.max()) if devs.size else 0.0
    bad = np.nonzero(devs > tol)[0]
    if bad.size:
        first = int(bad[0])
        return PreservationVerdict(False, vecs[first], float(devs[first]))
    return PreservationVerdict(True, None, worst)


def _monomials(n: int, p: int):
    """Exponent tuples alpha with |alpha| = p over n variables."""
    for combo in itertools.combinations_with_replacement(range(n), p):
        alpha = [0] * n
        for idx in combo:
            alpha[idx] += 1
        yield tuple(alpha)


def _multinomial(p: int, alpha: Sequence[int]) -> int:
    out = math.factorial(p)
    for a in alpha:
        out //= math.factorial(a)
    return out


def formal_even_applies(a, p: float, tol: float = FORMAL_TOL) -> bool:
    """True iff ``preserves_pnorm_formal_even`` takes (a, p): p in
    {2, 4, 6, 8}, at most 6 rows, and every imaginary part within ``tol``."""
    real = not (isinstance(a, np.ndarray) and np.iscomplexobj(a)) or np.abs(a.imag).max() <= tol
    return p in (2, 4, 6, 8) and len(a) <= 6 and real


def preserves_pnorm_formal_even(a, p: int, tol: float = FORMAL_TOL) -> PreservationVerdict:
    """Formal-polynomial preservation check for real matrices and even p.

    Expands sum_j (sum_k a_jk x_k)^p and compares against sum_k x_k^p term by
    term.  Entries given as int/Fraction are compared exactly; floats within
    ``tol``.  For p >= 4 the induced column conditions
    sum_j a_jk^(p-2) a_jl^2 == delta_kl are evaluated and reported in
    ``details`` as well (they are a subset of the coefficient equations).

    Raises UnsupportedP outside ``formal_even_applies``.
    """
    if not formal_even_applies(a, p, tol):
        raise UnsupportedP(f"formal expansion takes p in {{2,4,6,8}}, n <= 6 and real "
                           f"matrices, got p = {p}, n = {len(a)}; use the numeric check")
    p = int(p)
    if isinstance(a, np.ndarray) and np.iscomplexobj(a):
        a = a.real
    rows = [list(r) for r in (a.tolist() if isinstance(a, np.ndarray) else a)]
    n = len(rows)
    exact = all(isinstance(v, (int, Fraction)) for r in rows for v in r)
    if not exact:
        rows = _square_matrix(rows).real.tolist()
    elif any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")

    mismatches = []
    worst = Fraction(0) if exact else 0.0
    for alpha in _monomials(n, p):
        coeff = _multinomial(p, alpha)
        total = Fraction(0) if exact else 0.0
        for j in range(n):
            term = Fraction(1) if exact else 1.0
            for k, e in enumerate(alpha):
                if e:
                    term *= rows[j][k] ** e
            total += term
        rhs = coeff * total
        lhs = 1 if p in alpha and alpha.count(0) == n - 1 else 0
        diff = abs(rhs - lhs)
        worst = max(worst, diff)
        failed = (diff != 0) if exact else (diff > tol)
        if failed:
            mismatches.append({"monomial": alpha, "expected": lhs, "got": rhs})

    constraint_worst = Fraction(0) if exact else 0.0
    if p >= 4:
        for k in range(n):
            for l in range(n):
                s = sum(rows[j][k] ** (p - 2) * rows[j][l] ** 2 for j in range(n))
                target = 1 if k == l else 0
                constraint_worst = max(constraint_worst, abs(s - target))

    details = {
        "mode": "exact" if exact else "float",
        "coefficient_mismatches": len(mismatches),
        "worst_coefficient_residual": float(worst),
    }
    if p >= 4:
        details["column_condition_residual"] = float(constraint_worst)
    if not mismatches:
        return PreservationVerdict(True, None, float(worst), details)
    details["first_mismatch"] = mismatches[0]
    # surface a concrete violating vector alongside the coefficient data
    numeric = preserves_pnorm_numeric(np.asarray(rows, dtype=float), float(p),
                                      trials=256, seed=0, tol=tol)
    witness = numeric.witness_vector
    residual = numeric.residual if not numeric.preserves else float(worst)
    return PreservationVerdict(False, witness, residual, details)


def phase_invariance_check(a, p: float, grid_size: int = 24, trials: int = 8,
                           seed: int | None = 0, tol: float = NUMERIC_TOL) -> PreservationVerdict:
    """Sweep a phase on each input coordinate and watch ||Ax||_p.

    A p-norm preserver must hold that norm constant (the input's norm does
    not move under x_l -> e^{i theta} x_l).  Reports the largest variation
    seen over seeded base vectors, coordinates, and a theta grid, taken
    relative to the sweep's maximum, (max - min) / max of the scale-safe
    norms, so it means the same at every p and every scale of A; the witness
    is the offending configuration.
    """
    a = _square_matrix(a)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    vecs = _sample_vectors(n, trials, rng)
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    phases = np.exp(1j * thetas)
    worst = 0.0
    witness = None
    for x in vecs:
        for l in range(n):
            sweep = np.tile(x, (grid_size, 1))
            sweep[:, l] = phases * x[l]
            norms = p_norm(sweep @ a.T, p, axis=1)
            top = norms.max()
            variation = float((top - norms.min()) / top) if top > 0 else 0.0
            if variation > worst:
                worst = variation
                witness = (x.copy(), l)
    if worst > tol:
        x, l = witness
        return PreservationVerdict(False, x, worst, {"coordinate": l})
    return PreservationVerdict(True, None, worst)


def _random_generalized_diagonal(n: int, count: int, rng: np.random.Generator,
                                 real_signs: bool = False) -> np.ndarray:
    mats = np.zeros((count, n, n), dtype=np.complex128)
    cols = np.arange(n)
    for i in range(count):
        perm = rng.permutation(n)
        if real_signs:
            vals = rng.choice([-1.0, 1.0], size=n).astype(np.complex128)
        else:
            vals = np.exp(1j * rng.uniform(0, 2 * math.pi, size=n))
        mats[i, perm, cols] = vals
    return mats


def _random_column_stochastic(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.gamma(1.0, 1.0, size=(count, n, n))
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.complex128)


def island_scan(n: int, p: float, num_matrices: int = 1000, seed: int | None = 0,
                tol: float = 1e-8, trials: int = 24,
                nonnegative: bool = False) -> CheckReport:
    """Search random ensembles for p-norm preservers that should not exist.

    Ensembles: Haar orthogonal, perturbed generalized diagonal, and dense
    Gaussian, plus an ensemble of exact generalized diagonal matrices that
    must all pass.  Any matrix that numerically preserves the p-norm but is
    not classified generalized diagonal is a counterexample and fails the
    scan.  With ``nonnegative`` set (the p=1 cone check) vectors are drawn
    nonnegative, column-stochastic matrices replace the exact generalized
    diagonal ensemble as the expected preservers, and the claim becomes
    "preservers are column-stochastic".

    p = 2 is rejected: orthogonal matrices preserve it and the claim is false.
    """
    if p == 2 and not nonnegative:
        raise UnsupportedP("p = 2 is the exceptional case; the scan claim fails there")
    rng = np.random.default_rng(seed)
    vecs = _sample_vectors(n, trials, rng, nonnegative)

    per = max(1, num_matrices // 3)
    ensembles: dict[str, np.ndarray] = {}
    ensembles["haar_orthogonal"] = _haar_from_gaussian(
        rng.standard_normal((per, n, n))).astype(np.complex128)
    base = _random_generalized_diagonal(n, per, rng, real_signs=nonnegative)
    deltas = rng.uniform(1e-3, 1e-1, size=per)[:, None, None]
    ensembles["perturbed_generalized_diagonal"] = base + deltas * rng.standard_normal((per, n, n))
    ensembles["dense_gaussian"] = (rng.standard_normal((num_matrices - 2 * per, n, n))
                                   / math.sqrt(n)).astype(np.complex128)
    if nonnegative:
        expected_name = "column_stochastic"
        expected = _random_column_stochastic(n, max(1, num_matrices // 10), rng)
    else:
        expected_name = "generalized_diagonal"
        expected = _random_generalized_diagonal(n, max(1, num_matrices // 10), rng)

    preserving: dict[str, int] = {}
    witnesses = []
    near_miss = math.inf
    for name, mats in ensembles.items():
        viol = _deviations(mats, vecs, p).max(axis=-1)
        failing = viol[viol > tol]
        if failing.size:
            near_miss = min(near_miss, float(failing.min()))
        kept = mats[viol <= tol]
        acceptable = _one_entry_per_line(np.abs(kept) > max(tol, NUMERIC_TOL))
        if nonnegative:
            m = kept.real
            acceptable |= (np.all(m >= -tol, axis=(-2, -1))
                           & (np.max(np.abs(m.sum(axis=-2) - 1.0), axis=-1) <= max(tol, 1e-8)))
        witnesses.extend(kept[~acceptable])
        preserving[name] = len(kept)

    viol = _deviations(expected, vecs, p).max(axis=-1)
    expected_fail = int(np.sum(viol > tol))
    preserving[expected_name] = int(np.sum(viol <= tol))

    claim = (f"every numeric {p}-norm preserver (n={n}) is "
             + ("column-stochastic on the nonnegative cone" if nonnegative
                else "generalized diagonal"))
    passed = not witnesses and expected_fail == 0
    residuals = {
        "tolerance": tol,
        "nearest_miss_violation": None if math.isinf(near_miss) else near_miss,
        "expected_ensemble_failures": expected_fail,
    }
    residuals.update({f"{k}.preserving": v for k, v in preserving.items()})
    return CheckReport(claim=claim, passed=passed, witnesses=witnesses,
                       residuals=residuals, seed=seed)
