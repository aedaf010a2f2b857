"""Random mixed-mode circuits with a bounded branching budget.

The recursive amplitude evaluator costs the product of per-step fan-ins, so
the generators track that product and stop adding branching gates once a
budget is reached.  Permutation-like gates (X, CNOT, diagonals) are free.

``random_mixed_circuit`` draws only steps the engine accepts.
``random_contract_circuit`` draws every gate kind in every mode, allowed or
not, partly as raw ``GateStep``s appended to ``circuit.steps``, for the test
that both evaluators accept and refuse the same circuits.
"""
import numpy as np
from scipy.stats import unitary_group

from qvlab.engine import (Circuit, Gate, GateStep, NormalizationMode, cnot, hadamard, pauli_x,
                          quadratic_gate, phase_twist_gate)


def _dense_invertible(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m += 2.0 * np.eye(2)  # keep it comfortably conditioned
    return Gate(m, kind="invertible", name="custom")


def _diagonal(rng):
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)) * rng.uniform(0.5, 2.0, size=2)
    return Gate(np.diag(d), kind="invertible", name="custom")


def random_mixed_circuit(rng, num_qubits, max_gates=20, budget=4096,
                         max_nonlinear=2):
    """A circuit drawing from every normalization mode the engine supports."""
    circuit = Circuit(num_qubits)
    paths = 1
    nonlinear_used = 0
    for _ in range(max_gates):
        kind = rng.integers(0, 8)
        if kind == 0:
            circuit.gate(pauli_x(), [rng.integers(num_qubits)])
        elif kind == 1 and num_qubits >= 2:
            pair = rng.choice(num_qubits, size=2, replace=False)
            circuit.gate(cnot(), list(pair))
        elif kind == 2:
            circuit.gate(_diagonal(rng), [rng.integers(num_qubits)], "global")
        elif kind == 3 and paths * 2 <= budget:
            circuit.gate(hadamard(), [rng.integers(num_qubits)])
            paths *= 2
        elif kind == 4 and paths * 2 <= budget:
            u = unitary_group.rvs(2, random_state=int(rng.integers(2 ** 31)))
            circuit.gate(Gate(u, name="custom"), [rng.integers(num_qubits)])
            paths *= 2
        elif kind == 5 and num_qubits >= 2 and paths * 4 <= budget:
            u = unitary_group.rvs(4, random_state=int(rng.integers(2 ** 31)))
            pair = rng.choice(num_qubits, size=2, replace=False)
            circuit.gate(Gate(u, name="custom"), list(pair))
            paths *= 4
        elif kind == 6 and paths * 2 <= budget:
            mode = "global" if rng.integers(2) else "local"
            circuit.gate(_dense_invertible(rng), [rng.integers(num_qubits)], mode)
            paths *= 2
        elif kind == 7 and paths * 2 <= budget and nonlinear_used < max_nonlinear:
            gate = phase_twist_gate() if rng.integers(2) else quadratic_gate()
            circuit.gate(gate, [rng.integers(num_qubits)], "global")
            paths *= 2
            nonlinear_used += 1
    return circuit


def _controlled(rng):
    """A unitary U on targets[1] where targets[0] has bit 0 or 1."""
    u = np.eye(4, dtype=complex)
    half = slice(2, 4) if rng.integers(2) else slice(0, 2)
    u[half, half] = unitary_group.rvs(2, random_state=rng)
    return Gate(u, name="cu")


# (gate maker, arity, fan-in of a linear step): the built-ins, Haar unitaries
# on one and two qubits, a controlled unitary, invertible gates and both
# nonlinear maps
CONTRACT_GATES = (
    (lambda rng: hadamard(), 1, 2),
    (lambda rng: pauli_x(), 1, 1),
    (lambda rng: cnot(), 2, 1),
    (lambda rng: Gate(unitary_group.rvs(2, random_state=rng), name="u"), 1, 2),
    (lambda rng: Gate(unitary_group.rvs(4, random_state=rng), name="u2"), 2, 4),
    (_controlled, 2, 2),
    (_diagonal, 1, 1),
    (_dense_invertible, 1, 2),
    (lambda rng: Gate(unitary_group.rvs(4, random_state=rng) @ np.diag(rng.uniform(0.5, 2.0, 4)),
                      name="m2"), 2, 4),
    (lambda rng: phase_twist_gate(), 1, 2),
    (lambda rng: quadratic_gate(), 1, 2),
)
MODES = ("unitary", "global", "local")
ALLOWED = {"unitary": MODES, "invertible": ("global", "local"),
           "nonlinear-W": ("global",), "nonlinear-G": ("global",)}


def random_contract_circuit(rng, num_qubits, max_steps=5, budget=8, any_mode=0.1,
                            raw=0.2, stray=0.05):
    """Steps of every kind in every mode.  Each step's mode is one its gate's
    kind allows, except with probability ``any_mode``, when it is any mode.
    A step is added by ``Circuit.gate`` (mode as a string or an enum), or
    with probability ``raw`` built as a ``GateStep`` and appended by hand,
    whose targets are out of range with probability ``stray``.  Refused
    steps raise here, when they are made, or when the circuit runs."""
    circuit = Circuit(num_qubits)
    paths = 1
    for _ in range(int(rng.integers(1, max_steps + 1))):
        make, arity, fan_in = CONTRACT_GATES[rng.integers(len(CONTRACT_GATES))]
        if arity > num_qubits:
            continue
        gate = make(rng)
        modes = MODES if rng.random() < any_mode else ALLOWED[gate.kind]
        mode = modes[rng.integers(len(modes))]
        if mode == "local":   # the path sum rescales from all 2^k parents
            fan_in = 2 ** arity
        if paths * fan_in > budget:
            continue
        paths *= fan_in
        targets = tuple(int(q) for q in rng.choice(num_qubits, size=arity, replace=False))
        if rng.integers(2):
            mode = NormalizationMode(mode)
        if rng.random() < raw:
            if rng.random() < stray:
                targets = targets[:-1] + (num_qubits,)
            circuit.steps.append(GateStep(gate, targets, mode))
        else:
            circuit.gate(gate, targets, mode)
    return circuit
