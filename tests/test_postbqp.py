import itertools
import math

import numpy as np
import pytest

from qvlab.engine import (Gate, MeasurementRule, StateVector, apply_gate,
                          hadamard, marginal_distribution)
from qvlab.linalg import NonPositiveP, PEqualsTwo
from qvlab.postbqp import (EXACT_THRESHOLD, OVERLAP_HIGH_S, OVERLAP_LOW_S,
                           SAMPLED_THRESHOLD, BooleanFunction,
                           PaddingViolation,
                           count_state_exact, count_state_weight,
                           gadget_factor, gadget_size, or_solve_nonunitary,
                           plus_overlap, plus_overlap_simulated,
                           postbqp_decide, postbqp_decide_pnorm,
                           postselection_gadget, prepare_count_state)


def table_with_count(n, s, seed=0):
    rng = np.random.default_rng(seed)
    table = np.zeros(2 ** n, dtype=int)
    table[rng.choice(2 ** n, size=s, replace=False)] = 1
    return BooleanFunction(n, table)


def test_boolean_function_basics():
    f = BooleanFunction(2, [0, 1, 1, 0])
    assert f.num_inputs == 2
    assert f.ones_count == 2
    assert [f(x) for x in range(4)] == [0, 1, 1, 0]


def test_boolean_function_parsing():
    f = BooleanFunction.from_string("3\n01000001\n")
    assert (f.num_inputs, f.ones_count) == (3, 2)
    g = BooleanFunction.from_string("3\n0xbd")
    assert g.ones_count == 6
    assert [g(x) for x in range(8)] == [1, 0, 1, 1, 1, 1, 0, 1]
    round_tripped = BooleanFunction.from_string(f.to_string())
    assert np.array_equal(round_tripped.table, f.table)


def test_boolean_function_rejects_garbage():
    with pytest.raises(ValueError):
        BooleanFunction(2, [0, 1, 1])
    with pytest.raises(ValueError):
        BooleanFunction(1, [0, 2])
    with pytest.raises(ValueError):
        BooleanFunction.from_string("3\n0101")
    with pytest.raises(ValueError):
        BooleanFunction.from_string("0101")


def test_boolean_function_from_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("2\n0110\n")
    assert BooleanFunction.from_file(path).ones_count == 2


@pytest.mark.parametrize("s", range(0, 9))
def test_count_state_circuit_matches_closed_form(s):
    f = table_with_count(3, s)
    state = prepare_count_state(f)
    assert np.allclose(state.amplitudes, count_state_exact(s, 3), atol=1e-12)


def test_count_state_weight_example():
    f = table_with_count(3, 2)
    # 4^-n ((2^n - s)^2 + s^2) = (36 + 4) / 64
    assert count_state_weight(f) == pytest.approx(40 / 64, abs=1e-12)


def test_count_state_weight_never_below_quarter():
    for n in (1, 2, 3):
        for s in range(2 ** n + 1):
            w = 4.0 ** (-n) * ((2 ** n - s) ** 2 + s ** 2)
            assert w >= 0.25
            assert count_state_weight(table_with_count(n, s)) == pytest.approx(w, abs=1e-12)


def test_plus_overlap_peak_value():
    assert plus_overlap(1, 2, -1) == pytest.approx(OVERLAP_LOW_S, abs=1e-12)
    assert OVERLAP_LOW_S == pytest.approx((1 + math.sqrt(2)) / math.sqrt(6), abs=0)


def test_plus_overlap_ceiling_when_count_large():
    for n in (2, 3, 4):
        for s in range(2 ** (n - 1) + 1, 2 ** n + 1):
            for i in range(-n, n + 1):
                assert plus_overlap(s, n, i) <= OVERLAP_HIGH_S + 1e-12


def test_plus_overlap_peak_reached_when_count_small():
    for n in (2, 3, 4):
        for s in range(1, 2 ** (n - 1)):
            best = max(plus_overlap(s, n, i) for i in range(-n, n + 1))
            assert best >= EXACT_THRESHOLD


def test_plus_overlap_simulation_agrees():
    for s, n, i in itertools.product((1, 2, 3), (2, 3), range(-3, 4)):
        if s > 2 ** n:
            continue
        assert plus_overlap_simulated(s, n, i) == pytest.approx(
            plus_overlap(s, n, i), abs=1e-12)


def test_decide_exact_small_oracle():
    n = 2
    for bits in itertools.product((0, 1), repeat=4):
        s = sum(bits)
        f = BooleanFunction(n, bits)
        if s in (0, 2):
            with pytest.raises(PaddingViolation):
                postbqp_decide(f)
            continue
        decision = postbqp_decide(f)
        assert decision.says_less_than_half == (s < 2)
        assert decision.mode == "exact"
        assert len(decision.per_i) == 2 * n + 1


def test_decide_sampled_deterministic_and_consistent():
    f = table_with_count(3, 2, seed=4)
    a = postbqp_decide(f, mode="sampled", seed=11)
    b = postbqp_decide(f, mode="sampled", seed=11)
    assert a.to_dict() == b.to_dict()
    assert a.mode == "sampled"
    assert a.trials == 3
    # with plenty of trials the sampled verdict matches the exact one
    for s in (1, 2, 3, 5, 6, 7):
        g = table_with_count(3, s, seed=s)
        exact = postbqp_decide(g)
        sampled = postbqp_decide(g, mode="sampled", seed=0, trials=4000)
        assert sampled.verdict == exact.verdict


def test_decide_rejects_bad_mode_and_padding():
    f = table_with_count(3, 2)
    with pytest.raises(ValueError):
        postbqp_decide(f, mode="guess")
    with pytest.raises(PaddingViolation):
        postbqp_decide(table_with_count(3, 0))
    with pytest.raises(PaddingViolation):
        postbqp_decide(table_with_count(3, 4))


def test_or_solve_examples():
    f = BooleanFunction(2, [0, 1, 0, 0])
    decision = or_solve_nonunitary(f)
    assert decision.value
    assert decision.prob_one == pytest.approx(256 / 259, rel=1e-12)

    zero = or_solve_nonunitary(BooleanFunction(2, [0, 0, 0, 0]))
    assert not zero.value
    assert zero.prob_one == 0.0


def test_or_solve_probability_floor():
    for n in (2, 3):
        for s in range(1, 2 ** n + 1):
            decision = or_solve_nonunitary(table_with_count(n, s, seed=s))
            assert decision.value
            assert decision.prob_one >= 1.0 - 2.0 ** (-3 * n)


def test_gadget_factor_and_size():
    assert gadget_factor(1.0, 4) == 4.0
    assert gadget_factor(4.0, 3) == 0.125
    assert gadget_factor(0.5, 2) == 2.0 ** 1.5
    assert gadget_size(1.0, 3) == 30
    assert gadget_size(4.0, 3) == 60
    with pytest.raises(PEqualsTwo):
        gadget_size(2.0, 3)


def test_gadget_worked_example():
    state = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    out, report = postselection_gadget(state, 0, 1.0, 4)
    assert out.num_qubits == 5
    p1 = marginal_distribution(out, [0], MeasurementRule(1.0))[1]
    assert p1 == pytest.approx(4 / 5, abs=1e-12)
    assert report.closed_form_factor == 4.0
    assert report.measured_factor == pytest.approx(4.0, rel=1e-12)
    assert report.conditioned_bit == 1


def test_gadget_favoring_zero():
    state = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    out, report = postselection_gadget(state, 0, 1.0, 4, bit=0)
    p0 = marginal_distribution(out, [0], MeasurementRule(1.0))[0]
    assert p0 == pytest.approx(4 / 5, abs=1e-12)
    assert report.conditioned_bit == 0


def test_gadget_above_two_conditions_other_branch():
    state = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    out, report = postselection_gadget(state, 0, 4.0, 2)
    assert report.conditioned_bit == 0
    assert report.closed_form_factor == 0.25
    assert report.measured_factor == pytest.approx(0.25, rel=1e-12)
    p1 = marginal_distribution(out, [0], MeasurementRule(4.0))[1]
    # 4-norm weights: favored branch 1 vs suppressed branch 2^-2
    assert p1 == pytest.approx(1.0 / (1.0 + 0.25), abs=1e-12)


def test_gadget_certificate_in_log2_at_large_p():
    state = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    for p in (1100.0, 3000.0):
        _, report = postselection_gadget(state, 0, p, 4)
        assert report.closed_form_log2 == 4 * (1.0 - p / 2.0)
        assert report.measured_log2 == pytest.approx(report.closed_form_log2, rel=1e-12)


def test_gadget_empty_branches():
    _, report = postselection_gadget(StateVector(np.array([1.0, 0.0])), 0, 1.0, 2)
    assert report.measured_log2 is None and report.measured_factor is None
    _, report = postselection_gadget(StateVector(np.array([0.0, 1.0])), 0, 1.0, 2)
    assert report.measured_log2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_gadget_fan_out_matches_step_by_step(bit, p):
    """The fused fan-out grows the state that m separate conditioned
    Hadamards grow, for every m up to 12 and every qubit of a 3-qubit input."""
    rng = np.random.default_rng([int(p), bit])
    state = StateVector(rng.normal(size=8) + 1j * rng.normal(size=8)).normalized()
    for qubit in range(3):
        for m in range(13):
            grown, report = postselection_gadget(state, qubit, p, m, bit=bit)
            c = report.conditioned_bit
            cond_h = np.eye(4, dtype=complex)
            cond_h[2 * c:2 * c + 2, 2 * c:2 * c + 2] = hadamard().matrix
            cond_h = Gate(cond_h, name="cH")
            amps = np.zeros(2 ** (3 + m), dtype=complex)
            amps[np.arange(8) << m] = state.amplitudes
            want = StateVector(amps)
            for ancilla in range(3, 3 + m):
                want = apply_gate(want, cond_h, [qubit, ancilla])
            assert np.max(np.abs(grown.amplitudes - want.amplitudes)) <= 1e-15, (qubit, m)


def test_gadget_rejections_and_degenerate_sizes():
    state = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    with pytest.raises(PEqualsTwo):
        postselection_gadget(state, 0, 2.0, 3)
    with pytest.raises(ValueError):
        postselection_gadget(state, 0, -1.0, 3)
    with pytest.raises(ValueError):
        postselection_gadget(state, 0, 1.0, -2)
    for qubit in (-1, 1):
        with pytest.raises(ValueError, match=f"qubit {qubit}"):
            postselection_gadget(state, qubit, 1.0, 2)
    out, report = postselection_gadget(state, 0, 1.0, 0)
    assert np.allclose(out.amplitudes, state.amplitudes)
    assert report.measured_factor == pytest.approx(1.0)


def test_decide_pnorm_matches_exact_oracle():
    n = 2
    for p in (1.0, 4.0):
        for bits in itertools.product((0, 1), repeat=4):
            s = sum(bits)
            if s in (0, 2):
                continue
            f = BooleanFunction(n, bits)
            decision = postbqp_decide_pnorm(f, p)
            assert decision.says_less_than_half == (s < 2), (bits, p)
            assert decision.mode == "pnorm-gadget"
            assert decision.threshold == SAMPLED_THRESHOLD
            assert decision.details["gadgets"] == n + 1
            gadgets = decision.to_dict()["details"]["gadgets"]
            assert gadgets == n + 1 and isinstance(gadgets, int)
    # Near p = 2 the gadgets carry factors 2^(m(1-p/2)) far beyond float64
    # (n=10 at p=1.99 and n=12 at p=1.9 once overflowed to NaN verdicts).
    for n in range(3, 13):
        for s in {1, 2 ** (n - 1) - 1, 2 ** (n - 1) + 1, 2 ** n - 1}:
            f = table_with_count(n, s)
            want = postbqp_decide(f).verdict
            for p in (1.0, 1.9, 1.99, 3.0, 4.0, 6.0):
                decision = postbqp_decide_pnorm(f, p)
                assert decision.verdict == want, (n, s, p)
                assert all(math.isfinite(v) for _, v in decision.per_i), (n, s, p)


def test_decide_pnorm_rejections():
    f = table_with_count(2, 1)
    with pytest.raises(PEqualsTwo):
        postbqp_decide_pnorm(f, 2.0)
    with pytest.raises(PaddingViolation):
        postbqp_decide_pnorm(table_with_count(2, 2), 4.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonPositiveP):
            postbqp_decide_pnorm(f, bad)


def test_decide_pnorm_weight_tracking_matches_real_ancillas():
    """The gadget log2 gains must agree exactly with materialized gadgets."""
    n = 2
    f = BooleanFunction(n, [0, 1, 0, 0])
    h = hadamard()
    ctrl_h = Gate(np.block([[np.eye(2), np.zeros((2, 2))],
                            [np.zeros((2, 2)), h.matrix]]), name="cH")
    for p in (1.0, 1.5, 3.0, 4.0):
        for m in (2, 3):
            decision = postbqp_decide_pnorm(f, p, ancillas_per_gadget=m)
            for i, shortcut in decision.per_i:
                r = 2.0 ** i
                alpha = 1.0 / math.sqrt(1.0 + r * r)
                beta = r * alpha
                amps = np.zeros(2 ** (n + 2), dtype=complex)
                for x in range(2 ** n):
                    amps[(x << 2) | (f(x) << 1)] = 2.0 ** (-n / 2)
                state = StateVector(amps)
                for q in range(n):
                    state = apply_gate(state, h, [q])
                for q in range(n):
                    state, _ = postselection_gadget(state, q, p, m, bit=0)
                state = apply_gate(state, Gate([[alpha, -beta], [beta, alpha]], name="mix"),
                                   [n + 1])
                state = apply_gate(state, ctrl_h, [n + 1, n])
                state, _ = postselection_gadget(state, n, p, m, bit=1)
                state = apply_gate(state, h, [n + 1])
                assert state.num_qubits == n + 2 + (n + 1) * m
                materialized = marginal_distribution(state, [n + 1], MeasurementRule(p))[0]
                assert shortcut == pytest.approx(materialized, abs=1e-12), (p, m, i)


def test_majority_decision_dict_shape():
    d = postbqp_decide(table_with_count(3, 2)).to_dict()
    assert set(d) == {"verdict", "per_i", "trials", "mode", "threshold", "details"}
    assert all(isinstance(i, int) and isinstance(v, float) for i, v in d["per_i"])
