import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from circuitgen import random_mixed_circuit
from scipy.stats import unitary_group

from qvlab.engine import (AmplitudeOverflow, Circuit, Gate, GateStep, StateVector,
                          ZeroBranch, bell_pair, cnot, hadamard, pauli_x,
                          phase_twist_gate, quadratic_gate, run_circuit)
from qvlab.pathsum import PathSumTooDeep, amplitude_recursive, ground_amplitude

ATOL = 1e-10   # criterion 08's AMP_TOL


def bell_circuit():
    return Circuit(2).gate(hadamard(), [0]).gate(cnot(), [0, 1])


def test_bell_amplitudes():
    circuit = bell_circuit()
    want = bell_pair().amplitudes
    got = [amplitude_recursive(circuit, x) for x in range(4)]
    assert np.allclose(got, want, atol=ATOL)


def test_ground_amplitude_callable():
    assert ground_amplitude(0) == 1.0
    assert ground_amplitude(3) == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_matches_dense_run(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(2, 6))
    circuit = random_mixed_circuit(rng, n, max_gates=8, budget=256)
    dense = run_circuit(circuit).amplitudes
    got = np.array([amplitude_recursive(circuit, x) for x in range(2 ** n)])
    assert np.allclose(got, dense, atol=ATOL)


def test_matches_dense_run_with_initial_state():
    rng = np.random.default_rng(77)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    initial = StateVector(amps)
    circuit = random_mixed_circuit(rng, 3, max_gates=6, budget=128)
    dense = run_circuit(circuit, initial).amplitudes
    got = np.array([amplitude_recursive(circuit, x, initial=initial)
                    for x in range(8)])
    assert np.allclose(got, dense, atol=ATOL)


def test_initial_as_callable():
    def warm(idx):
        return complex(idx + 1, -idx)

    circuit = bell_circuit()
    dense_initial = StateVector(np.array([warm(i) for i in range(4)]))
    dense = run_circuit(circuit, dense_initial).amplitudes
    got = [amplitude_recursive(circuit, x, initial=warm) for x in range(4)]
    assert np.allclose(got, dense, atol=ATOL)


def test_step_prefix():
    rng = np.random.default_rng(9)
    circuit = random_mixed_circuit(rng, 3, max_gates=7, budget=128)
    for t in range(len(circuit.steps) + 1):
        prefix = Circuit(3)
        prefix.steps.extend(circuit.steps[:t])
        dense = run_circuit(prefix).amplitudes
        got = [amplitude_recursive(circuit, x, t=t) for x in range(8)]
        assert np.allclose(got, dense, atol=ATOL), f"diverges at t={t}"


def test_basis_label_string():
    circuit = bell_circuit()
    assert amplitude_recursive(circuit, "11") == pytest.approx(
        amplitude_recursive(circuit, 3))


def test_rejects_postselection():
    circuit = bell_circuit().postselect(0, 1)
    with pytest.raises(ValueError, match="postselect"):
        amplitude_recursive(circuit, 0)
    # ... unless the prefix stops before the postselect step
    assert amplitude_recursive(circuit, 0, t=2) == pytest.approx(1 / np.sqrt(2))
    # steps with bad targets are refused when added, so no amplitude comes
    # out of them (repeated, negative, or too many for a nonlinear gate)
    for gate, targets in ((cnot(), [0, 0]), (hadamard(), [-1]),
                          (phase_twist_gate(), [0, 1])):
        with pytest.raises(ValueError):
            amplitude_recursive(Circuit(3).gate(gate, targets, "global"), 0)


@pytest.mark.parametrize("gate, targets", [(hadamard(), (3,)), (hadamard(), (-1,)),
                                           (cnot(), (0, 0)), (cnot(), (0,))],
                         ids=["out-of-range", "negative", "repeated", "arity"])
def test_appended_steps_are_checked_as_run_circuit_checks_them(gate, targets):
    # a step appended to circuit.steps skips Circuit.gate's check; both
    # evaluators still refuse it, with the same message
    circuit = Circuit(2)
    circuit.steps.append(GateStep(gate, targets))
    with pytest.raises(ValueError) as dense:
        run_circuit(circuit)
    with pytest.raises(ValueError) as paths:
        amplitude_recursive(circuit, 0)
    assert str(paths.value) == str(dense.value)


@pytest.mark.parametrize("mode", ["unitary", "global", "local"])
def test_three_target_gates_match_dense_run(mode):
    """A Haar 8x8 on every ordered triple of 4 qubits, from a random state."""
    rng = np.random.default_rng(83)
    initial = StateVector(rng.normal(size=16) + 1j * rng.normal(size=16))
    for targets in itertools.permutations(range(4), 3):
        u = unitary_group.rvs(8, random_state=int(rng.integers(2 ** 31)))
        circuit = Circuit(4).gate(Gate(u), targets, mode)
        dense = run_circuit(circuit, initial).amplitudes
        got = np.array([amplitude_recursive(circuit, x, initial=initial)
                        for x in range(16)])
        assert np.max(np.abs(got - dense)) <= ATOL * np.abs(dense).max(), targets


def test_depth_past_the_recursion_limit_is_typed():
    # one stack frame per step: past the interpreter's limit the path sum
    # raises a RecursionError subclass that names the depth and the limit
    steps = sys.getrecursionlimit() + 200
    circuit = Circuit(2)
    for _ in range(steps):
        circuit.gate(pauli_x(), [0])
    with pytest.raises(PathSumTooDeep, match=f"{steps} steps") as info:
        amplitude_recursive(circuit, 0)
    assert isinstance(info.value, RecursionError)
    assert f"limit of {sys.getrecursionlimit()}" in str(info.value)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
def test_local_mode_matches_dense_at_any_scale(scale):
    # both evaluators share one scale-safe rescale: no empty-branch shortcut
    # to 0 at tiny scales, no NaN at large ones
    circuit = (Circuit(2).gate(hadamard(), [0]).gate(hadamard(), [1])
               .gate(Gate(np.diag([2.0, 0.5]), name="d"), [1], "local"))
    initial = StateVector(np.array([scale, 0.0, 0.0, 0.0]))
    dense = run_circuit(circuit, initial).amplitudes
    got = np.array([amplitude_recursive(circuit, x, initial=initial)
                    for x in range(4)])
    assert np.all(np.isfinite(dense)) and np.all(dense != 0)
    assert np.allclose(got, dense, rtol=1e-12, atol=0.0)


def test_quadratic_overflow_raises_like_dense():
    # G squares amplitudes: at 1e160 both evaluators refuse, neither returns NaN
    circuit = Circuit(1).gate(quadratic_gate(), [0], "global")
    initial = StateVector(np.array([1.0, 1.0]) * 1e160)
    with pytest.raises(AmplitudeOverflow):
        run_circuit(circuit, initial)
    for x in range(2):
        with pytest.raises(AmplitudeOverflow):
            amplitude_recursive(circuit, x, initial=initial)


def test_local_mode_zero_branch_raises():
    initial = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    annihilate = Gate(np.array([[0.0, 1.0], [0.0, 0.0]]), condition_override=True)
    circuit = Circuit(2).gate(annihilate, [1], "local")
    with pytest.raises(ZeroBranch):
        amplitude_recursive(circuit, 0, initial=initial)


def test_wide_register_memory_stays_flat():
    """24 qubits would need a 256 MB dense vector; recursion must not build one."""
    n = 24
    circuit = Circuit(n)
    circuit.gate(hadamard(), [0])
    circuit.gate(hadamard(), [1])
    circuit.gate(cnot(), [0, 5])
    circuit.gate(pauli_x(), [23])
    circuit.gate(hadamard(), [2])

    aligned = (1 << (n - 1 - 23)) | (1 << (n - 1 - 5)) | (1 << (n - 1))
    tracemalloc.start()
    amp = amplitude_recursive(circuit, aligned)
    zero = amplitude_recursive(circuit, 0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert abs(amp) == pytest.approx((1 / np.sqrt(2)) ** 3)
    assert zero == 0.0
    assert peak < 8 * 1024 * 1024
