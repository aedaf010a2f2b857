import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlab.linalg import NonPositiveP, haar_orthogonal
from qvlab.normlaws import (NUMERIC_TOL, UnsupportedP, _deviations,
                            _random_generalized_diagonal, _sample_vectors,
                            is_generalized_diagonal, island_scan,
                            phase_invariance_check, preserves_pnorm_formal_even,
                            preserves_pnorm_numeric)

H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)

SIGNED_PERM_3 = np.array([
    [0.0, -1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
])


def test_classifier_accepts_signed_permutation():
    verdict = is_generalized_diagonal(SIGNED_PERM_3)
    assert verdict.is_generalized_diagonal
    rebuilt = np.zeros((3, 3), dtype=complex)
    for k, (row, phase) in enumerate(zip(verdict.permutation, verdict.phases)):
        rebuilt[row, k] = phase
    assert np.array_equal(rebuilt, SIGNED_PERM_3)


def test_classifier_accepts_complex_phases():
    m = np.diag(np.exp(1j * np.array([0.4, -1.1]))) @ np.array([[0, 1], [1, 0]])
    assert is_generalized_diagonal(m).is_generalized_diagonal


def test_classifier_rejects_hadamard_and_dense():
    assert not is_generalized_diagonal(H2).is_generalized_diagonal
    assert not is_generalized_diagonal(np.ones((2, 2))).is_generalized_diagonal


def test_classifier_tolerance_window():
    m = np.eye(2) + 1e-13 * np.ones((2, 2))
    assert is_generalized_diagonal(m, tol=1e-10).is_generalized_diagonal
    assert not is_generalized_diagonal(m, tol=1e-15).is_generalized_diagonal


@pytest.mark.parametrize("p", [1.0, 3.0, 4.0, 7.5])
def test_numeric_signed_permutation_preserves(p):
    verdict = preserves_pnorm_numeric(SIGNED_PERM_3, p)
    assert verdict.preserves
    assert verdict.residual <= 1e-10


def test_numeric_hadamard_fails_with_basis_witness():
    verdict = preserves_pnorm_numeric(H2, 4.0)
    assert not verdict.preserves
    # trial vectors start with the canonical basis, so e_0 is the witness
    assert np.allclose(verdict.witness_vector, [1.0, 0.0])
    assert verdict.residual == pytest.approx(1.0 - 0.5 ** 0.25, abs=1e-12)


def test_numeric_hadamard_passes_p2():
    assert preserves_pnorm_numeric(H2, 2.0).preserves


def test_numeric_convention_split_vs_modulus():
    m = np.diag([np.exp(0.3j), 1.0])
    assert preserves_pnorm_numeric(m, 4.0, convention="modulus").preserves
    assert not preserves_pnorm_numeric(m, 4.0, convention="split").preserves


def test_numeric_nonnegative_cone_stochastic():
    rng = np.random.default_rng(3)
    raw = rng.gamma(1.0, 1.0, size=(3, 3))
    stochastic = raw / raw.sum(axis=0, keepdims=True)
    assert preserves_pnorm_numeric(stochastic, 1.0, nonnegative=True).preserves
    # signed inputs see cancellation, so the same matrix fails the full check
    assert not preserves_pnorm_numeric(stochastic, 1.0).preserves


def test_numeric_validation():
    # p_norm is the one check of p behind every numeric law
    for p in (0.0, -1.0, math.nan):
        with pytest.raises(NonPositiveP):
            preserves_pnorm_numeric(H2, p)
        with pytest.raises(NonPositiveP):
            phase_invariance_check(H2, p)
        with pytest.raises(NonPositiveP):
            island_scan(2, p, num_matrices=30)
    with pytest.raises(ValueError):
        preserves_pnorm_numeric(H2, 3.0, convention="cartesian")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_matrices_are_rejected(bad):
    m = np.array([[bad, 0.0], [0.0, 1.0]])
    for check in (is_generalized_diagonal, lambda a: preserves_pnorm_numeric(a, 3.0),
                  lambda a: preserves_pnorm_formal_even(a, 4),
                  lambda a: phase_invariance_check(a, 3.0)):
        with pytest.raises(ValueError, match="finite"):
            check(m)
        with pytest.raises(ValueError, match="finite"):
            check(m.tolist())


def test_non_square_matrices_are_rejected():
    for m in (np.ones((2, 3)), np.ones(3), [[1.0, 0.0], [0.0]]):
        for check in (is_generalized_diagonal, lambda a: preserves_pnorm_numeric(a, 3.0),
                      lambda a: phase_invariance_check(a, 3.0)):
            with pytest.raises(ValueError):
                check(m)
    with pytest.raises(ValueError):
        preserves_pnorm_formal_even([[1.0, 0.0], [0.0]], 4)
    with pytest.raises(ValueError):
        preserves_pnorm_formal_even([[1, 0], [0]], 4)


@pytest.mark.parametrize("p", [2, 4, 6, 8])
def test_formal_signed_permutation_exact(p):
    m = [[0, -1], [1, 0]]
    verdict = preserves_pnorm_formal_even(m, p)
    assert verdict.preserves
    assert verdict.details["mode"] == "exact"
    assert verdict.details["worst_coefficient_residual"] == 0.0
    if p >= 4:
        assert verdict.details["column_condition_residual"] == 0.0


def test_formal_accepts_fractions():
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert preserves_pnorm_formal_even(m, 6).preserves


def test_formal_hadamard_fails():
    verdict = preserves_pnorm_formal_even(H2, 4)
    assert not verdict.preserves
    assert verdict.details["coefficient_mismatches"] > 0
    assert "first_mismatch" in verdict.details
    assert np.allclose(verdict.witness_vector, [1.0, 0.0])


def test_formal_p2_is_orthogonality():
    theta = 0.7
    rot = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    assert preserves_pnorm_formal_even(rot, 2).preserves
    assert not preserves_pnorm_formal_even(rot, 4).preserves


def test_formal_perturbation_fails():
    m = np.array([[0.0, -1.0], [1.0, 0.0]]) + 1e-4
    verdict = preserves_pnorm_formal_even(m, 4)
    assert not verdict.preserves


def test_formal_rejections():
    with pytest.raises(UnsupportedP):
        preserves_pnorm_formal_even(np.eye(2), 3)
    with pytest.raises(UnsupportedP):
        preserves_pnorm_formal_even(np.diag([1j, 1.0]), 4)
    with pytest.raises(ValueError):
        preserves_pnorm_formal_even(np.eye(7), 4)
    # complex dtype with negligible imaginary part is fine
    assert preserves_pnorm_formal_even(np.eye(2, dtype=complex), 4).preserves


def test_formal_agrees_with_numeric_spot_check():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.standard_normal((3, 3))
        formal = preserves_pnorm_formal_even(m, 4).preserves
        numeric = preserves_pnorm_numeric(m, 4.0).preserves
        assert formal == numeric


def test_phase_invariance():
    gen_diag = np.array([[0.0, np.exp(0.9j)], [1.0, 0.0]])
    # at p in the thousands the raw sums |Ax|^p overflow; the relative
    # variation of the scale-safe norms gives one verdict at every p
    for p in (4.0, 1100.0, 3000.0):
        assert phase_invariance_check(gen_diag, p).preserves
        assert phase_invariance_check(np.diag([2.0, 1.0]), p).preserves
        verdict = phase_invariance_check(H2, p)
        assert not verdict.preserves
        assert 0.1 < verdict.residual < 1.0
        assert "coordinate" in verdict.details


def test_island_scan_passes():
    report = island_scan(3, 4.0, num_matrices=300, seed=5)
    assert report.passed
    assert report.witnesses == []
    assert report.residuals["expected_ensemble_failures"] == 0
    assert report.residuals["generalized_diagonal.preserving"] == 30
    assert report.residuals["dense_gaussian.preserving"] == 0


def test_island_scan_rejects_p2():
    with pytest.raises(UnsupportedP):
        island_scan(2, 2.0)


def test_island_scan_nonnegative_cone():
    report = island_scan(3, 1.0, num_matrices=200, seed=8, nonnegative=True)
    assert report.passed
    assert report.residuals["column_stochastic.preserving"] == 20


def _scan_reference(n, p, num_matrices, seed, tol, trials, nonnegative):
    """island_scan's non-expected ensembles drawn and classified one matrix
    at a time: the preserving count per ensemble and the witnesses in order,
    which together fix each ensemble's count of classified preservers."""
    rng = np.random.default_rng(seed)
    vecs = _sample_vectors(n, trials, rng, nonnegative)
    per = max(1, num_matrices // 3)
    haar = [haar_orthogonal(n, rng).astype(complex) for _ in range(per)]
    base = _random_generalized_diagonal(n, per, rng, real_signs=nonnegative)
    deltas = rng.uniform(1e-3, 1e-1, size=per)[:, None, None]
    perturbed = base + deltas * rng.standard_normal((per, n, n))
    dense = (rng.standard_normal((num_matrices - 2 * per, n, n)) / math.sqrt(n)).astype(complex)
    preserving, witnesses = {}, []
    for name, mats in (("haar_orthogonal", haar),
                       ("perturbed_generalized_diagonal", perturbed),
                       ("dense_gaussian", dense)):
        preserving[name] = 0
        for m in mats:
            if not _deviations(m, vecs, p).max() <= tol:
                continue
            preserving[name] += 1
            ok = is_generalized_diagonal(m, tol=max(tol, NUMERIC_TOL)).is_generalized_diagonal
            if nonnegative:
                r = m.real
                ok = ok or bool(np.all(r >= -tol)
                                and np.max(np.abs(r.sum(axis=0) - 1.0)) <= max(tol, 1e-8))
            if not ok:
                witnesses.append(m)
    return preserving, witnesses


@pytest.mark.parametrize("nonnegative, p", [(False, 3.0), (True, 1.0)])
@pytest.mark.parametrize("tol", [0.5, 10.0])
def test_island_scan_classifies_like_the_per_matrix_reference(nonnegative, p, tol):
    # at these tolerances numeric preservers abound: at 0.5 some classify
    # and some are counterexamples, at 10 every matrix preserves
    n, num_matrices, seed, trials = 3, 300, 4, 24
    report = island_scan(n, p, num_matrices=num_matrices, seed=seed, tol=tol,
                         trials=trials, nonnegative=nonnegative)
    preserving, witnesses = _scan_reference(n, p, num_matrices, seed, tol, trials, nonnegative)
    for name, count in preserving.items():
        assert report.residuals[f"{name}.preserving"] == count
    assert len(report.witnesses) == len(witnesses)
    for got, want in zip(report.witnesses, witnesses):
        assert np.array_equal(got, want)
    assert report.passed == (not witnesses and report.residuals["expected_ensemble_failures"] == 0)
    if tol == 10.0:
        assert set(preserving.values()) == {100}
    else:
        assert 0 < len(witnesses) < sum(preserving.values())


@given(seed=st.integers(min_value=0, max_value=2 ** 31),
       p=st.floats(min_value=0.5, max_value=9.0))
@settings(max_examples=50, deadline=None)
def test_generalized_diagonal_always_preserves(seed, p):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = np.zeros((n, n), dtype=complex)
    m[rng.permutation(n), np.arange(n)] = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    assert preserves_pnorm_numeric(m, p, trials=16, seed=seed).preserves
