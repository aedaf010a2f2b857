import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qvlab.engine import (Circuit, Gate, IllConditionedGate, MeasurementRule,
                          NonUnitaryInModeI, StateVector, ZeroBranch,
                          ZeroProbabilityBranch, apply_gate, apply_nonlinear,
                          basis_index, bell_pair, cnot, hadamard,
                          marginal_distribution, measure_distribution,
                          phase_twist_map, postselect, quadratic_map,
                          run_circuit, sample)
from qvlab.linalg import NonPositiveP

RNG = np.random.default_rng(101)


def random_state(n):
    amps = RNG.normal(size=2 ** n) + 1j * RNG.normal(size=2 ** n)
    return StateVector(amps)


def full_matrix(gate_matrix, targets, n):
    """Entry-wise kron oracle, independent of the reshape kernel.

    Row/column i agree on all non-target bits; the gate entry is indexed by
    the target bits with targets[0] most significant.
    """
    k = len(targets)
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for row in range(dim):
        for col in range(dim):
            if any((row >> (n - 1 - q)) & 1 != (col >> (n - 1 - q)) & 1
                   for q in rest):
                continue
            gr = gc = 0
            for pos, q in enumerate(targets):
                gr |= ((row >> (n - 1 - q)) & 1) << (k - 1 - pos)
                gc |= ((col >> (n - 1 - q)) & 1) << (k - 1 - pos)
            out[row, col] = gate_matrix[gr, gc]
    return out


def test_state_vector_rejects_zero():
    with pytest.raises(ValueError):
        StateVector(np.zeros(4))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]))  # not a power of two


def test_basis_index_conventions():
    assert basis_index(3, "101") == 5
    assert basis_index(3, 6) == 6
    assert basis_index(2, "10") == 2  # qubit 0 is the most significant bit
    with pytest.raises(ValueError):
        basis_index(2, "012")
    with pytest.raises(ValueError):
        basis_index(2, 4)


def test_hadamard_on_ground():
    state = apply_gate(StateVector.ground(1), hadamard(), [0])
    assert np.allclose(state.amplitudes, np.array([1, 1]) / math.sqrt(2))


def test_bell_preparation():
    state = bell_pair()
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, want, atol=1e-12)


@pytest.mark.parametrize("targets", [[0], [2], [0, 1], [2, 0], [1, 3]])
def test_apply_gate_matches_kron_oracle(targets):
    n = 4
    k = len(targets)
    m = unitary_group.rvs(2 ** k, random_state=5 + len(targets))
    state = random_state(n)
    got = apply_gate(state, Gate(m, name="rand"), targets)
    want = full_matrix(m, targets, n) @ state.amplitudes
    assert np.allclose(got.amplitudes, want, atol=1e-12)


def test_cnot_targets_order():
    # control is targets[0]; |10> flips the second qubit
    state = StateVector.from_basis(2, "10")
    got = apply_gate(state, cnot(), [0, 1])
    assert np.allclose(got.amplitudes, StateVector.from_basis(2, "11").amplitudes)
    # reversed targets: control is qubit 1, which is 0 here, so nothing moves
    got = apply_gate(state, cnot(), [1, 0])
    assert np.allclose(got.amplitudes, state.amplitudes)


def test_mode_i_rejects_non_unitary():
    g = Gate(np.diag([1.0, 0.5]), name="damp")
    with pytest.raises(NonUnitaryInModeI):
        apply_gate(StateVector.ground(1), g, [0], "unitary")


def test_condition_guard():
    with pytest.raises(IllConditionedGate):
        Gate(np.diag([1.0, 1e-15]))
    g = Gate(np.diag([1.0, 1e-15]), condition_override=True)
    out = apply_gate(StateVector(np.array([1.0, 1.0])), g, [0], "global")
    assert out.amplitudes[1] == pytest.approx(1e-15)


def test_global_mode_worked_example():
    """Linear action with no renormalization until measurement."""
    a, b, c, d = 0.1, 0.7, -0.3, 0.64
    q, r, s, t = 2.0, 0.25, -1.0, 0.5
    state = StateVector(np.array([a, b, c, d]))
    gate = Gate(np.array([[q, r], [s, t]]), name="m")
    out = apply_gate(state, gate, [1], "global")
    want = np.array([q * a + r * b, s * a + t * b, q * c + r * d, s * c + t * d])
    assert np.allclose(out.amplitudes, want, atol=1e-12)
    dist = measure_distribution(out, 2.0)
    assert np.allclose(dist, want ** 2 / np.sum(want ** 2), atol=1e-12)


def test_local_mode_worked_example():
    """Each branch keeps its prior 2-norm weight after the gate."""
    a, b, c, d = 0.1, 0.7, -0.3, 0.64
    q, r, s, t = 2.0, 0.25, -1.0, 0.5
    state = StateVector(np.array([a, b, c, d]))
    gate = Gate(np.array([[q, r], [s, t]]), name="m")
    out = apply_gate(state, gate, [1], "local")
    top = np.array([q * a + r * b, s * a + t * b])
    bot = np.array([q * c + r * d, s * c + t * d])
    want = np.concatenate([
        math.sqrt(a * a + b * b) / np.linalg.norm(top) * top,
        math.sqrt(c * c + d * d) / np.linalg.norm(bot) * bot,
    ])
    assert np.allclose(out.amplitudes, want, atol=1e-12)


def test_local_mode_conserves_branch_weights():
    state = random_state(3)
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    out = apply_gate(state, Gate(m, name="m"), [1], "local")
    before = np.abs(state.amplitudes.reshape(2, 2, 2)) ** 2
    after = np.abs(out.amplitudes.reshape(2, 2, 2)) ** 2
    # branches are assignments of qubits 0 and 2
    assert np.allclose(before.sum(axis=1), after.sum(axis=1), atol=1e-12)


def test_local_mode_zero_branch():
    state = StateVector(np.array([1.0, 0.0, 0.0, 1.0]))
    annihilate = Gate(np.array([[0.0, 1.0], [0.0, 0.0]]), condition_override=True)
    with pytest.raises(ZeroBranch):
        apply_gate(state, annihilate, [1], "local")


def test_local_equals_global_on_unentangled_register():
    """On a product state, local and global agree up to a positive scalar."""
    left = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    right = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    state = StateVector(np.kron(right.reshape(4), left))  # qubit 2 is 'left'
    m = RNG.normal(size=(2, 2))
    g = Gate(m, name="m")
    loc = apply_gate(state, g, [2], "local").amplitudes
    glo = apply_gate(state, g, [2], "global").amplitudes
    ratio = loc[np.argmax(np.abs(glo))] / glo[np.argmax(np.abs(glo))]
    assert ratio.real > 0 and abs(ratio.imag) < 1e-12
    assert np.allclose(loc, ratio * glo, atol=1e-10)


def test_measure_distribution_examples():
    assert np.allclose(measure_distribution(StateVector(np.ones(4) / 2), 3.0),
                       np.full(4, 0.25))
    assert np.allclose(measure_distribution(StateVector(np.array([1.0, 0.0])), 0.7),
                       [1.0, 0.0])
    assert np.allclose(measure_distribution(StateVector(np.array([2.0, 1.0])), 1.0),
                       [2 / 3, 1 / 3])
    # 0.5^1100 underflows; the rule itself must not
    assert measure_distribution(StateVector(np.array([0.5, 0.5])), 1100).tolist() == [0.5, 0.5]


def test_measurement_rule_validation():
    with pytest.raises(NonPositiveP):
        MeasurementRule(0.0)
    with pytest.raises(NonPositiveP):
        MeasurementRule(-2.0)
    with pytest.raises(NonPositiveP):
        MeasurementRule(math.inf)  # the max-norm flag belongs to p_norm, not here


@given(p=st.floats(min_value=1e-3, max_value=1e4),
       log10_scale=st.floats(min_value=-300, max_value=300),
       phase=st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=100, deadline=None)
def test_scale_invariance(p, log10_scale, phase):
    c = 10.0 ** log10_scale * complex(math.cos(phase), math.sin(phase))
    state = StateVector(np.array([0.3, -0.2 + 0.9j, 0.0, 1.1]))
    scaled = StateVector(c * state.amplitudes)
    dist = measure_distribution(scaled, p)
    assert np.all(np.isfinite(dist)) and np.all(dist >= 0.0)
    assert abs(dist.sum() - 1.0) <= 1e-12
    assert np.allclose(measure_distribution(state, p), dist, atol=1e-10)


def test_marginal_distribution_matches_manual_sum():
    state = random_state(3)
    rule = MeasurementRule(4.0)
    full = measure_distribution(state, rule)
    got = marginal_distribution(state, [0, 2], rule)
    want = np.zeros(4)
    for idx in range(8):
        b0, b2 = (idx >> 2) & 1, idx & 1
        want[2 * b0 + b2] += full[idx]
    assert np.allclose(got, want, atol=1e-12)


def test_postselect_examples():
    state = bell_pair()
    out = postselect(state, 0, 1)
    assert np.allclose(out.amplitudes, StateVector.from_basis(2, "11").amplitudes)

    state = StateVector(np.array([0.0, 0.0, 3 / 5, 4 / 5]))
    out = postselect(state, 1, 1)
    assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    with pytest.raises(ZeroProbabilityBranch):
        postselect(StateVector.ground(1), 0, 1)


def test_sample_deterministic_and_calibrated():
    state = StateVector(np.array([2.0, 1.0, 1.0, 0.0]))
    assert sample(state, 2.0, seed=9) == sample(state, 2.0, seed=9)
    assert sample(StateVector(np.array([1.0, 0.0])), 2.0, seed=4) == 0
    draws = sample(state, 1.0, seed=12, size=100_000)
    freq = np.bincount(draws, minlength=4) / 100_000
    dist = measure_distribution(state, 1.0)
    sigma = np.sqrt(dist * (1 - dist) / 100_000)
    assert np.all(np.abs(freq - dist) <= 3 * sigma + 1e-12)


def test_phase_twist_map_values():
    assert phase_twist_map(1.0, 0.0) == (1.0, 0.0)
    x, y = phase_twist_map(0.5, 2.0)
    assert x == 0.5
    assert y == pytest.approx(np.exp(2j) * 2.0)


def test_quadratic_map_values():
    x, y = quadratic_map(0.0, 1.0)
    assert (x, y) == pytest.approx((-1.0, 0.0))
    # 2-norm squares under the map, for complex inputs too
    v = np.array([0.3 - 0.4j, 0.1 + 0.86j])
    gx, gy = quadratic_map(v[0], v[1])
    assert math.hypot(abs(gx), abs(gy)) == pytest.approx(
        np.linalg.norm(v) ** 2, rel=1e-12)


def test_apply_nonlinear_branchwise():
    state = random_state(3)
    out = apply_nonlinear(state, "G", 2)
    cols = state.amplitudes.reshape(4, 2)
    for row in range(4):
        gx, gy = quadratic_map(cols[row, 0], cols[row, 1])
        assert out.amplitudes[2 * row] == pytest.approx(gx, rel=1e-12)
        assert out.amplitudes[2 * row + 1] == pytest.approx(gy, rel=1e-12)


def test_nonlinear_gate_mode_restrictions():
    from qvlab.engine import phase_twist_gate
    g = phase_twist_gate()
    with pytest.raises(NonUnitaryInModeI):
        apply_gate(StateVector.ground(1), g, [0], "unitary")
    out = apply_gate(StateVector(np.array([1.0, 2.0])), g, [0], "global")
    assert out.amplitudes[1] == pytest.approx(np.exp(2j) * 2.0)


def test_circuit_json_round_trip():
    circuit = Circuit(2)
    circuit.gate(hadamard(), [0])
    circuit.gate(cnot(), [0, 1])
    circuit.gate(Gate(np.diag([1.0, 0.5]), name="damp"), [1], "global")
    circuit.postselect(0, 1)
    text = circuit.to_json()
    again = Circuit.from_json(text)
    assert again.to_json() == text
    data = json.loads(text)
    assert data["qubits"] == 2
    assert data["steps"][3] == {"postselect": {"qubit": 0, "bit": 1}}


def test_circuit_json_rejects_unknown_gate():
    with pytest.raises(ValueError):
        Circuit.from_json('{"qubits": 1, "steps": [{"gate": "Q", "targets": [0]}]}')


def test_run_circuit_empty_returns_initial():
    state = random_state(2)
    assert np.allclose(run_circuit(Circuit(2), state).amplitudes, state.amplitudes)


def test_duplicate_targets_rejected():
    with pytest.raises(ValueError):
        apply_gate(StateVector.ground(2), cnot(), [1, 1])


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_unitary_preserves_two_norm(seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(amps)
    u = unitary_group.rvs(4, random_state=seed)
    out = apply_gate(state, Gate(u), [0, 2])
    assert out.norm() == pytest.approx(state.norm(), rel=1e-12)
