"""State-vector engine for small registers under variant evolution rules.

Amplitude indexing: qubit 0 is the most significant bit of the basis index,
so ``amps.reshape([2] * n)`` puts qubit i on axis i.

Three normalization modes govern how a gate acts:

* ``unitary``  -- the gate matrix must be unitary; plain linear action.
* ``global``   -- any well-conditioned invertible matrix; linear action with
  no renormalization (probabilities are normalized at measurement time).
* ``local``    -- after the linear action, every branch over the non-target
  qubits is rescaled back to the 2-norm weight it had before the gate.

Two nonlinear single-qubit maps act branchwise on (target=0, target=1)
amplitude pairs with no renormalization: the phase-twist map
(x, y) -> (x, e^{iy} y) and the quadratic map (x, y) -> (x^2 - conj(y)^2,
2 Re(x y)).  How a 2-component nonlinear map should act on an entangled
register is a modeling choice; branchwise application is the one used
throughout this package.  Nonlinear steps are only accepted in global mode.

States are never silently renormalized and the all-zero state is rejected
wherever it would arise; measurement is scale invariant, so unnormalized
states are first-class values.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .linalg import NonPositiveP, is_unitary, p_distribution, p_norm

UNITARY_TOL = 1e-10
CONDITION_LIMIT = 1e12


class ZeroBranch(RuntimeError):
    """A nonzero branch was mapped to zero under local normalization."""


class NonUnitaryInModeI(ValueError):
    """Unitary mode admits unitary gates only."""


class ZeroProbabilityBranch(RuntimeError):
    """Postselection on an outcome with no amplitude."""


class IllConditionedGate(ValueError):
    """Invertible gates must keep condition number <= 1e12 (or override)."""


class NormalizationMode(Enum):
    UNITARY = "unitary"
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class MeasurementRule:
    """Measurement assigns outcome x probability |a_x|^p / sum_y |a_y|^p."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p > 0) or math.isinf(self.p) or math.isnan(self.p):
            raise NonPositiveP(f"measurement exponent must be finite and positive, got {self.p}")


class Gate:
    """A register operation: a matrix with a kind tag, or a nonlinear map.

    kind is one of "unitary", "invertible", "nonlinear-W" (phase twist) or
    "nonlinear-G" (quadratic).  Matrix gates of arity k carry a 2^k x 2^k
    matrix whose own index treats targets[0] as most significant.
    """

    def __init__(self, matrix=None, kind: str | None = None, name: str = "custom",
                 condition_override: bool = False):
        self.name = name
        if kind in ("nonlinear-W", "nonlinear-G"):
            self.kind = kind
            self.matrix = None
            self.arity = 1
            return
        if matrix is None:
            raise ValueError("matrix gates need a matrix")
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("gate matrix must be square")
        arity = int(round(math.log2(m.shape[0])))
        if 2 ** arity != m.shape[0]:
            raise ValueError("gate dimension must be a power of two")
        unitary = is_unitary(m, UNITARY_TOL)
        if kind is None:
            kind = "unitary" if unitary else "invertible"
        if kind == "unitary" and not unitary:
            raise NonUnitaryInModeI(f"matrix is not unitary within {UNITARY_TOL:g}")
        if kind == "invertible" and not condition_override:
            cond = np.linalg.cond(m)
            if not np.isfinite(cond) or cond > CONDITION_LIMIT:
                raise IllConditionedGate(
                    f"condition number {cond:.3e} exceeds {CONDITION_LIMIT:g}; "
                    "pass condition_override=True to force")
        self.kind = kind
        self.matrix = m
        self.arity = arity

    def __repr__(self):
        return f"Gate({self.name}, kind={self.kind}, arity={self.arity})"


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def hadamard() -> Gate:
    return Gate([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], name="H")


def pauli_x() -> Gate:
    return Gate([[0, 1], [1, 0]], name="X")


def cnot() -> Gate:
    """Controlled NOT; control is targets[0], flipped qubit is targets[1]."""
    return Gate([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                name="CNOT")


def phase_twist_gate() -> Gate:
    """Nonlinear (x, y) -> (x, e^{iy} y).  JSON tag "W"."""
    return Gate(kind="nonlinear-W", name="W")


def quadratic_gate() -> Gate:
    """Nonlinear (x, y) -> (x^2 - conj(y)^2, 2 Re(x y)).  JSON tag "G".

    Sends unit 2-norm vectors to unit 2-norm vectors: |output|_2 = |input|_2^2.
    """
    return Gate(kind="nonlinear-G", name="G")


def phase_twist_map(x: complex, y: complex) -> tuple[complex, complex]:
    return x, cmath.exp(1j * y) * y


def quadratic_map(x: complex, y: complex) -> tuple[complex, complex]:
    return x * x - np.conj(y) ** 2, 2.0 * (x * y).real


class StateVector:
    """Amplitudes for n qubits; not necessarily 2-norm normalized."""

    def __init__(self, amplitudes, num_qubits: int | None = None):
        amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
        n = int(round(math.log2(amps.size))) if amps.size else 0
        if 2 ** n != amps.size:
            raise ValueError("amplitude count must be a power of two")
        if num_qubits is not None and num_qubits != n:
            raise ValueError(f"expected {2 ** num_qubits} amplitudes, got {amps.size}")
        if not np.any(amps):
            raise ValueError("the all-zero state is not a valid state")
        self.amplitudes = amps
        self.num_qubits = n

    @classmethod
    def ground(cls, num_qubits: int) -> "StateVector":
        amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps)

    @classmethod
    def from_basis(cls, num_qubits: int, label: int | str) -> "StateVector":
        idx = basis_index(num_qubits, label)
        amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
        amps[idx] = 1.0
        return cls(amps)

    def norm(self, p: float = 2.0) -> float:
        return p_norm(self.amplitudes, p)

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm(2.0))

    def bit(self, index: int, qubit: int) -> int:
        return (index >> (self.num_qubits - 1 - qubit)) & 1

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy())

    def __repr__(self):
        return f"StateVector(n={self.num_qubits})"


def basis_index(num_qubits: int, label: int | str) -> int:
    """Basis label to amplitude index.  Strings list qubit 0 first ('10' = q0=1)."""
    if isinstance(label, str):
        if len(label) != num_qubits or set(label) - {"0", "1"}:
            raise ValueError(f"basis string must be {num_qubits} bits")
        return int(label, 2)
    idx = int(label)
    if not 0 <= idx < 2 ** num_qubits:
        raise ValueError("basis index out of range")
    return idx


def _check_targets(n: int, targets: Sequence[int], arity: int):
    targets = tuple(int(t) for t in targets)
    if len(targets) != arity:
        raise ValueError(f"gate arity {arity} but {len(targets)} targets")
    if len(set(targets)) != len(targets):
        raise ValueError("targets must be distinct")
    if any(not 0 <= t < n for t in targets):
        raise ValueError("target out of range")
    return targets


def _target_columns(state: StateVector, targets: tuple[int, ...]) -> np.ndarray:
    """View the register as (2^k, branches): one column per non-target assignment."""
    n = state.num_qubits
    k = len(targets)
    tensor = state.amplitudes.reshape([2] * n) if n else state.amplitudes.reshape(())
    moved = np.moveaxis(tensor, targets, range(k))
    return moved.reshape(2 ** k, -1), moved.shape


def _columns_to_amps(cols: np.ndarray, shape, targets: tuple[int, ...], n: int) -> np.ndarray:
    k = len(targets)
    tensor = cols.reshape(shape)
    return np.moveaxis(tensor, range(k), targets).reshape(-1)


def apply_gate(state: StateVector, gate: Gate, targets: Sequence[int],
               mode: NormalizationMode = NormalizationMode.UNITARY) -> StateVector:
    """Apply a matrix gate to ``targets`` under the given normalization mode."""
    if isinstance(mode, str):
        mode = NormalizationMode(mode)
    if gate.matrix is None:
        if mode is not NormalizationMode.GLOBAL:
            raise NonUnitaryInModeI(
                "nonlinear gates are not unitary; use global mode")
        return apply_nonlinear(state, gate.kind, targets[0])
    targets = _check_targets(state.num_qubits, targets, gate.arity)
    if mode is NormalizationMode.UNITARY and gate.kind != "unitary":
        raise NonUnitaryInModeI(f"mode 'unitary' rejects kind '{gate.kind}'")

    cols, shape = _target_columns(state, targets)
    new_cols = gate.matrix @ cols
    if mode is NormalizationMode.LOCAL:
        before = np.linalg.norm(cols, axis=0)
        after = np.linalg.norm(new_cols, axis=0)
        dead = (before > 0.0) & (after == 0.0)
        if np.any(dead):
            raise ZeroBranch(
                "a branch with nonzero weight was annihilated under local normalization")
        scale = np.ones_like(before)
        live = before > 0.0
        scale[live] = before[live] / after[live]
        new_cols = new_cols * scale[np.newaxis, :]
    amps = _columns_to_amps(new_cols, shape, targets, state.num_qubits)
    return StateVector(amps)


def apply_nonlinear(state: StateVector, kind: str, target: int) -> StateVector:
    """Apply a nonlinear pair map branchwise to one qubit.  No renormalization."""
    targets = _check_targets(state.num_qubits, [target], 1)
    cols, shape = _target_columns(state, targets)
    x, y = cols[0], cols[1]
    if kind in ("nonlinear-W", "W"):
        new = np.vstack([x, np.exp(1j * y) * y])
    elif kind in ("nonlinear-G", "G"):
        new = np.vstack([x * x - np.conj(y) ** 2, 2.0 * (x * y).real])
    else:
        raise ValueError(f"unknown nonlinear kind {kind!r}")
    amps = _columns_to_amps(new, shape, targets, state.num_qubits)
    return StateVector(amps)


def measure_distribution(state: StateVector, rule: MeasurementRule | float = 2.0) -> np.ndarray:
    """Outcome distribution |a_x|^p / sum_y |a_y|^p over all basis states."""
    p = rule.p if isinstance(rule, MeasurementRule) else MeasurementRule(float(rule)).p
    return p_distribution(state.amplitudes, p)


def marginal_distribution(state: StateVector, qubits: Sequence[int],
                          rule: MeasurementRule | float = 2.0) -> np.ndarray:
    """Distribution of the given qubits, other outcomes summed out."""
    probs = measure_distribution(state, rule)
    n = state.num_qubits
    qubits = tuple(int(q) for q in qubits)
    tensor = probs.reshape([2] * n)
    others = tuple(ax for ax in range(n) if ax not in qubits)
    marg = tensor.sum(axis=others) if others else tensor
    # summed tensor axes follow sorted(qubits); restore the requested order
    ranks = np.argsort(np.argsort(qubits))
    return np.transpose(marg, ranks).reshape(-1)


def postselect(state: StateVector, qubit: int, bit: int) -> StateVector:
    """Project onto qubit == bit and renormalize to unit 2-norm."""
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise ValueError("qubit out of range")
    idx = np.arange(2 ** n)
    keep = ((idx >> (n - 1 - qubit)) & 1) == int(bit)
    amps = np.where(keep, state.amplitudes, 0.0)
    weight = np.linalg.norm(amps)
    if weight == 0.0:
        raise ZeroProbabilityBranch(f"no amplitude on qubit {qubit} == {bit}")
    return StateVector(amps / weight)


def sample(state: StateVector, rule: MeasurementRule | float = 2.0,
           seed: int | None = None, size: int | None = None):
    """Draw outcome indices by inverse CDF; deterministic for a fixed seed."""
    probs = measure_distribution(state, rule)
    cdf = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    u = rng.random() if size is None else rng.random(size)
    out = np.searchsorted(cdf, u, side="right")
    out = np.minimum(out, probs.size - 1)
    return int(out) if size is None else out


@dataclass(frozen=True)
class GateStep:
    gate: Gate
    targets: tuple[int, ...]
    mode: NormalizationMode = NormalizationMode.UNITARY


@dataclass(frozen=True)
class PostselectStep:
    qubit: int
    bit: int


@dataclass
class Circuit:
    num_qubits: int
    steps: list = field(default_factory=list)

    def gate(self, gate: Gate, targets: Iterable[int],
             mode: NormalizationMode | str = NormalizationMode.UNITARY) -> "Circuit":
        if isinstance(mode, str):
            mode = NormalizationMode(mode)
        self.steps.append(GateStep(gate, tuple(targets), mode))
        return self

    def postselect(self, qubit: int, bit: int) -> "Circuit":
        self.steps.append(PostselectStep(int(qubit), int(bit)))
        return self

    def to_json_dict(self) -> dict:
        from .report import matrix_to_json
        steps = []
        for step in self.steps:
            if isinstance(step, PostselectStep):
                steps.append({"postselect": {"qubit": step.qubit, "bit": step.bit}})
                continue
            entry: dict = {"targets": list(step.targets), "mode": step.mode.value}
            name = step.gate.name
            if name in ("H", "X", "CNOT", "W", "G"):
                entry["gate"] = name
            else:
                entry["gate"] = "custom"
                entry["matrix"] = matrix_to_json(step.gate.matrix)
            steps.append(entry)
        return {"qubits": self.num_qubits, "steps": steps}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Circuit":
        from .report import json_to_matrix
        circuit = cls(int(data["qubits"]))
        named: dict[str, Callable[[], Gate]] = {
            "H": hadamard, "X": pauli_x, "CNOT": cnot,
            "W": phase_twist_gate, "G": quadratic_gate,
        }
        for step in data.get("steps", []):
            if "postselect" in step:
                ps = step["postselect"]
                circuit.postselect(int(ps["qubit"]), int(ps["bit"]))
                continue
            name = step["gate"]
            if name in named:
                gate = named[name]()
            elif name == "custom":
                gate = Gate(json_to_matrix(step["matrix"]),
                            condition_override=bool(step.get("condition_override", False)))
            else:
                raise ValueError(f"unknown gate {name!r}")
            circuit.gate(gate, step["targets"], step.get("mode", "unitary"))
        return circuit

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls.from_json_dict(json.loads(text))


def run_circuit(circuit: Circuit, initial: StateVector | None = None) -> StateVector:
    state = initial if initial is not None else StateVector.ground(circuit.num_qubits)
    if state.num_qubits != circuit.num_qubits:
        raise ValueError("initial state size does not match circuit")
    for step in circuit.steps:
        if isinstance(step, PostselectStep):
            state = postselect(state, step.qubit, step.bit)
        else:
            state = apply_gate(state, step.gate, step.targets, step.mode)
    return state


def bell_pair() -> StateVector:
    """(|00> + |11>)/sqrt(2), built by running H then CNOT on |00>."""
    circuit = Circuit(2)
    circuit.gate(hadamard(), [0])
    circuit.gate(cnot(), [0, 1])
    return run_circuit(circuit)
