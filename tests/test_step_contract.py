"""One step contract for the two evaluators.

A step's qubits and bits are made ints, its mode normalised and its gate's
kind admitted when the step is made (``GateStep``, ``PostselectStep``), and
both ``run_circuit`` and ``amplitude_recursive`` make one shared check of
the targets and the initial state before any step runs.  So the dense
engine and the path sum accept the same circuits, agree on their
amplitudes, and refuse the rest with the same error.  Both apply one
overflow rule to the nonlinear maps, per pair of amplitudes.  Every engine
operation is a one-step circuit, run by ``engine._run_step`` or
``engine._apply_run``.
"""
import ast
import json
from pathlib import Path

import numpy as np
import pytest
from circuitgen import ALLOWED, random_contract_circuit

import qvlab
from qvlab.cli import main
from qvlab.engine import (AmplitudeOverflow, Circuit, Gate, GateStep, NonUnitaryInModeI,
                          NormalizationMode, PostselectStep, StateVector, ZeroProbabilityBranch,
                          apply_nonlinear, bell_pair, hadamard, marginal_distribution, pauli_x,
                          phase_twist_gate, postselect, quadratic_gate, run_circuit)
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


def test_a_qubit_or_bit_that_is_not_an_integer_is_refused():
    # a truncating int() would run most of these on qubit or bit 1
    state = bell_pair()
    with pytest.raises(ValueError, match=r"^qubit 1\.7 is not an integer$"):
        Circuit(2).gate(hadamard(), [1.7])
    with pytest.raises(ValueError, match=r"^postselected bit 1\.9 is not an integer$"):
        Circuit(2).postselect(0, 1.9)
    with pytest.raises(ValueError, match=r"^postselected bit 1\.5 is not an integer$"):
        postselect(state, 0, 1.5)
    with pytest.raises(ValueError, match=r"^qubit 0\.5 is not an integer$"):
        postselect(state, 0.5, 1)
    with pytest.raises(ValueError, match=r"^qubit 1\.5 is not an integer$"):
        GateStep(hadamard(), (1.5,))
    with pytest.raises(ValueError, match=r"^postselected bit nan is not an integer$"):
        PostselectStep(0, float("nan"))
    with pytest.raises(ValueError, match=r"^qubit '1' is not an integer$"):
        marginal_distribution(state, ["1"])
    with pytest.raises(ValueError, match=r"^postselected bit 0\.5 is not an integer$"):
        Circuit.from_json_dict({"qubits": 1, "steps": [{"postselect": {"qubit": 0, "bit": 0.5}}]})


def test_integral_floats_and_numpy_ints_are_qubits_in_both_evaluators():
    # without the rule a hand-built step on 1.0 passes the pre-run check, then
    # each evaluator raises its own TypeError
    circuit = Circuit(2).gate(hadamard(), [np.float64(0.0)])
    circuit.steps.append(GateStep(hadamard(), (1.0,)))
    circuit.steps.append(GateStep(Gate(np.diag([2.0, 1.0])), (np.int64(1),), "global"))
    assert [step.targets for step in circuit.steps] == [(0,), (1,), (1,)]
    assert all(type(q) is int for step in circuit.steps for q in step.targets)
    dense = run_circuit(circuit).amplitudes
    paths = [amplitude_recursive(circuit, x) for x in range(4)]
    assert np.allclose(dense, [1.0, 0.5, 1.0, 0.5], rtol=1e-12, atol=0.0)
    assert np.allclose(paths, dense, rtol=1e-12, atol=0.0)
    step = PostselectStep(np.int64(1), 1.0)
    assert (step.qubit, step.bit) == (1, 1) and type(step.bit) is int
    assert np.allclose(postselect(bell_pair(), 1.0, np.int32(1)).amplitudes, [0, 0, 0, 1])
    assert np.allclose(marginal_distribution(bell_pair(), [np.float32(1.0)]), [0.5, 0.5])


def test_one_overflow_rule_per_pair_in_both_evaluators():
    # G sends the pair (1e200, 1e-200) to (inf, 2): checking only the output
    # it selects, the path sum would return 2.0 for |1>
    circuit = Circuit(1).gate(quadratic_gate(), [0], "global")
    initial = StateVector(np.array([1e200, 1e-200]))
    with pytest.raises(AmplitudeOverflow, match="^the G map sends finite amplitudes"):
        run_circuit(circuit, initial)
    for x in range(2):
        with pytest.raises(AmplitudeOverflow, match="^the G map sends finite amplitudes"):
            amplitude_recursive(circuit, x, initial=initial)


def test_a_pair_off_the_path_overflows_in_the_engine_only():
    # G on qubit 1 pairs (a00, a01) and (a10, a11); only the second
    # overflows, and amplitudes |00> and |01> read the first alone
    circuit = Circuit(2).gate(quadratic_gate(), [1], "global")
    initial = StateVector(np.array([1.0, 0.5, 1e200, 0.0]))
    with pytest.raises(AmplitudeOverflow):
        run_circuit(circuit, initial)
    assert [amplitude_recursive(circuit, x, initial=initial) for x in range(2)] == [0.75, 1.0]
    for x in range(2, 4):
        with pytest.raises(AmplitudeOverflow):
            amplitude_recursive(circuit, x, initial=initial)


def test_an_overflowing_pair_raises_beside_a_non_finite_one():
    # the rule is per pair: an inf elsewhere in the register does not excuse it
    circuit = Circuit(2).gate(quadratic_gate(), [1], "global")
    initial = StateVector(np.array([np.inf, 0.0, 1e200, 0.0]))
    with pytest.raises(AmplitudeOverflow):
        run_circuit(circuit, initial)
    with pytest.raises(AmplitudeOverflow):
        amplitude_recursive(circuit, 2, initial=initial)


@pytest.mark.parametrize("call, error, message", [
    (lambda s: postselect(s, 2, 0), ValueError, "qubit 2 is out of range for 2 qubits"),
    (lambda s: postselect(s, -1, 0), ValueError, "qubit -1 is out of range for 2 qubits"),
    (lambda s: postselect(s, 0, 2), ValueError, "postselected bit must be 0 or 1, got 2"),
    (lambda s: postselect(s, 0, -1), ValueError, "postselected bit must be 0 or 1, got -1"),
    (lambda s: postselect(StateVector.ground(2), 0, 1), ZeroProbabilityBranch,
     "no amplitude on qubit 0 == 1"),
    (lambda s: apply_nonlinear(s, "G", 2), ValueError, "qubit 2 is out of range for 2 qubits"),
    (lambda s: apply_nonlinear(s, "nonlinear-W", -1), ValueError,
     "qubit -1 is out of range for 2 qubits"),
    (lambda s: apply_nonlinear(s, "H", 0), ValueError, "unknown nonlinear kind 'H'"),
    (lambda s: apply_nonlinear(s, "nonlinear-Q", 0), ValueError,
     "unknown nonlinear kind 'nonlinear-Q'"),
    (lambda s: apply_nonlinear(StateVector(np.array([1e200, 0.0, 0.0, 0.0])), "G", 0),
     AmplitudeOverflow, "the G map sends finite amplitudes to inf or NaN; scale the state "
     "down before it"),
])
def test_one_step_operations_keep_their_errors(call, error, message):
    with pytest.raises(error) as info:
        call(bell_pair())
    assert type(info.value) is error and str(info.value) == message


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


def _raised(node):
    """The name of the exception class a ``raise`` statement raises, if any."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_only_the_step_executors_raise_step_errors_or_read_the_pair_maps():
    """``ZeroProbabilityBranch`` and ``AmplitudeOverflow`` are raised, and
    ``_PAIR_MAPS`` read, inside ``engine._run_step`` and ``pathsum._amp``
    alone: one site per evaluator for each step rule."""
    allowed = {"engine.py": "_run_step", "pathsum.py": "_amp"}
    outside = []
    for path in sorted(Path(qvlab.__file__).parent.glob("*.py")):
        for node, scope in _enclosing(ast.parse(path.read_text())):
            raised = isinstance(node, ast.Raise) and _raised(node) in (
                "ZeroProbabilityBranch", "AmplitudeOverflow")
            read = (isinstance(node, ast.Name) and node.id == "_PAIR_MAPS"
                    and isinstance(node.ctx, ast.Load))
            if (raised or read) and allowed.get(path.name) not in scope:
                outside.append(f"{path.name}:{node.lineno} in {'.'.join(scope)}")
    assert outside == []


def test_only_the_step_executors_make_a_register_in_the_engine():
    """In ``engine``, a ``StateVector`` is built only by its own
    constructors, by ``_run_step`` (one step) and by ``_apply_run`` (one
    fused run): ``apply_gate``, ``apply_nonlinear`` and ``postselect`` are
    one-step circuits."""
    makers = {"StateVector", "_run_step", "_apply_run"}
    source = (Path(qvlab.__file__).parent / "engine.py").read_text()
    outside = [f"engine.py:{node.lineno} in {'.'.join(scope)}"
               for node, scope in _enclosing(ast.parse(source))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "StateVector" and not makers & set(scope)]
    assert outside == []
