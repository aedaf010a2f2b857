"""One step contract for the two evaluators.

A step's mode is normalised and its gate's kind admitted when the step is
made (``GateStep``), and both ``run_circuit`` and ``amplitude_recursive``
make one shared check of the targets and the initial state before any step
runs.  So the dense engine and the path sum accept the same circuits, agree
on their amplitudes, and refuse the rest with the same error.
"""
import ast
import json
from pathlib import Path

import numpy as np
import pytest
from circuitgen import ALLOWED, random_contract_circuit

import qvlab
from qvlab.cli import main
from qvlab.engine import (Circuit, Gate, GateStep, NonUnitaryInModeI, NormalizationMode,
                          StateVector, hadamard, pauli_x, phase_twist_gate, run_circuit)
from qvlab.pathsum import amplitude_recursive

AMP_TOL = 1e-10   # criterion 08's


def test_a_mode_is_checked_when_the_step_is_made():
    # checked only at run time, each would run in the path sum and be
    # refused by the dense engine
    damp = Gate(np.diag([2.0, 0.5]))
    with pytest.raises(NonUnitaryInModeI, match="^mode 'unitary' rejects kind 'invertible'$"):
        Circuit(1).gate(pauli_x(), [0]).gate(damp, [0])
    with pytest.raises(NonUnitaryInModeI, match="^nonlinear gates are not unitary; use global"):
        Circuit(1).gate(hadamard(), [0]).gate(phase_twist_gate(), [0], "local")
    with pytest.raises(NonUnitaryInModeI, match="^mode 'unitary' rejects kind 'invertible'$"):
        GateStep(damp, (0,))
    with pytest.raises(ValueError, match="is not a valid NormalizationMode"):
        GateStep(hadamard(), (0,), "bogus")


def test_a_raw_step_with_a_string_mode_runs_in_that_mode_in_both_evaluators():
    step = GateStep(Gate(np.diag([2.0, 1.0])), (0,), "local")
    assert step.mode is NormalizationMode.LOCAL
    circuit = Circuit(1).gate(hadamard(), [0])
    circuit.steps.append(step)
    dense = run_circuit(circuit).amplitudes
    paths = [amplitude_recursive(circuit, x) for x in range(2)]
    assert np.allclose(dense, [2 / np.sqrt(5), 1 / np.sqrt(5)], rtol=1e-12)
    assert np.allclose(paths, dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("step, message", [
    ({"gate": "custom", "matrix": [[2, 0], [0, 0.5]], "targets": [0], "mode": "unitary"},
     "mode 'unitary' rejects kind 'invertible'"),
    ({"gate": "W", "targets": [0], "mode": "local"},
     "nonlinear gates are not unitary; use global mode"),
])
def test_cli_refuses_a_step_its_mode_forbids(tmp_path, capsys, step, message):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"qubits": 1, "steps": [{"gate": "X", "targets": [0]}, step]}))
    assert main(["simulate", "--circuit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"qvlab simulate: {message}\n"


def test_both_evaluators_check_the_initial_size():
    # without the check a 2-qubit state runs through a 1-qubit circuit and
    # the path sum reads 0.707 off it
    circuit = Circuit(1).gate(hadamard(), [0])
    initial = StateVector(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="^initial state size does not match circuit$"):
        run_circuit(circuit, initial)
    with pytest.raises(ValueError, match="^initial state size does not match circuit$"):
        amplitude_recursive(circuit, 0, initial=initial)


def _outcome(evaluate):
    try:
        return evaluate()
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def test_the_evaluators_agree_on_every_circuit():
    """2000 seeded circuits of 1-3 qubits: the two evaluators return the
    same amplitudes, within AMP_TOL of the largest, or raise the same error.
    A step that its mode forbids is refused when it is made, so no circuit
    holds one.  Initial states are the ground state, a random state, or one
    of the wrong size."""
    rng = np.random.default_rng(31)
    refused, raised, agreed, seen = 0, 0, 0, set()
    for _ in range(2000):
        n = int(rng.integers(1, 4))
        try:
            circuit = random_contract_circuit(rng, n)
        except NonUnitaryInModeI:
            refused += 1
            continue
        seen.update((step.gate.kind, NormalizationMode(step.mode).value) for step in circuit.steps)
        size = n + 1 if rng.random() < 0.05 else n
        initial = (None if rng.integers(2) else
                   StateVector(rng.normal(size=2 ** size) + 1j * rng.normal(size=2 ** size)))
        dense = _outcome(lambda: run_circuit(circuit, initial).amplitudes)
        paths = _outcome(lambda: np.array([amplitude_recursive(circuit, x, initial=initial)
                                           for x in range(2 ** n)]))
        if isinstance(dense, tuple) or isinstance(paths, tuple):
            assert isinstance(dense, tuple) and isinstance(paths, tuple) and dense == paths
            raised += 1
        else:
            assert np.abs(paths - dense).max() <= AMP_TOL * np.abs(dense).max()
            agreed += 1
    assert seen == {(kind, mode) for kind, modes in ALLOWED.items() for mode in modes}
    assert refused >= 50 and raised >= 50 and agreed >= 1500


def _enclosing(tree):
    """(node, names of the classes and functions around it) for every node."""
    stack = [(tree, ())]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def test_only_gate_step_normalises_a_mode_or_refuses_one():
    """``NormalizationMode(...)`` is called, and ``NonUnitaryInModeI`` raised
    for a mode, inside ``GateStep`` alone, so there is one rule to keep."""
    outside = []
    for path in sorted(Path(qvlab.__file__).parent.glob("*.py")):
        for node, scope in _enclosing(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                texts = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant)
                         and isinstance(c.value, str)]
                for_mode = name == "NonUnitaryInModeI" and any("mode" in t for t in texts)
                if (name == "NormalizationMode" or for_mode) and "GateStep" not in scope:
                    outside.append(f"{path.name}:{node.lineno} {name} in {'.'.join(scope)}")
    assert outside == []
