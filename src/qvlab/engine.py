"""State-vector engine for small registers under variant evolution rules.

Amplitude indexing: qubit 0 is the most significant bit of the basis index,
so ``amps.reshape([2] * n)`` puts qubit i on axis i.

Gate kernel.  A one-target gate on qubit q acts on the view
``amps.reshape(2**q, 2, b)``, b = 2**(n-q-1) the amplitudes below the target,
with no copy of the register: matrix gates, local-mode branch norms and the
two nonlinear maps all read their (target=0, target=1) pairs from it.  The
product is chosen by b, read off the input:

* b >= 16: ``np.matmul(m, view)``, one 2 x 2 by 2 x b product per slice;
* b < 16: one GEMM of ``amps.reshape(-1, 2b)`` against ``m.T (x) I_b``
  (``m.T`` itself at b = 1).

The cut at b = 16 was measured at n = 20 on a 2-vCPU VM with OpenBLAS.
Below it stacked matmul loses, since each slice costs about as much as a
whole small product: b = 8, 4, 2 and 1 took 20, 35, 75 and 29 ms against
3.2, 3.1, 2.2 and 2.7 ms for the GEMM.  Above it the GEMM's BLAS buffers
grow with its inner dimension 2b, by 2, 4 and 8 MB at 2b = 8, 16 and 32
(each against the half), and a GEMM for every b < 64 raised the circuits
benchmark's peak RSS from 152 to 164 MB; from b = 16 on stacked matmul is
as fast as moving the target axis or faster (11.7 against 11.4 ms at
b = 16, 8.7 against 11.9 at b = 32).  Multi-target gates move their target axes to
the front (``_target_columns``), multiply, and move them back: two copies
of the register, 11-15 ms at n = 20 for a one-target gate against 2.5-5 ms
on the view.

Three normalization modes govern how a gate acts:

* ``unitary``  -- the gate matrix must be unitary; plain linear action.
* ``global``   -- any well-conditioned invertible matrix; linear action with
  no renormalization (probabilities are normalized at measurement time).
* ``local``    -- after the linear action, every branch over the non-target
  qubits is rescaled back to the 2-norm weight it had before the gate.
  ``_rescale_branches`` is that rescale, with scale-safe norms; the path sum
  in ``pathsum`` calls it too, so the two evaluators share one rule.

Two nonlinear single-qubit maps act branchwise on (target=0, target=1)
amplitude pairs with no renormalization: the phase-twist map
(x, y) -> (x, e^{iy} y) and the quadratic map (x, y) -> (x^2 - conj(y)^2,
2 Re(x y)).  ``phase_twist_map`` and ``quadratic_map`` take scalars or
arrays, and ``_PAIR_MAPS`` picks one by gate kind for both ``apply_nonlinear``
and the path sum.  How a 2-component nonlinear map should act on an
entangled register is a modeling choice; branchwise application is the one
used throughout this package.  Nonlinear steps are only accepted in global
mode.  Where a map sends finite amplitudes to inf or NaN (G squares them,
so from about 1e154 up), both evaluators raise ``AmplitudeOverflow``.

States are never silently renormalized and the all-zero state is rejected
wherever it would arise; measurement is scale invariant, so unnormalized
states are first-class values.
"""
from __future__ import annotations

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


class AmplitudeOverflow(ArithmeticError):
    """A nonlinear map sent finite amplitudes to infinite or NaN ones.

    G squares its amplitudes, so it overflows from about 1e154 up; W
    exponentiates their imaginary parts.  The engine and the path sum both
    raise this where the map's output leaves the finite range.
    """


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


def phase_twist_map(x, y):
    """(x, y) -> (x, e^{iy} y), on scalars or elementwise on arrays."""
    return x, np.exp(1j * y) * y


def quadratic_map(x, y):
    """(x, y) -> (x^2 - conj(y)^2, 2 Re(x y)), on scalars or elementwise on arrays."""
    return x * x - np.conj(y) ** 2, 2.0 * (x * y).real


# the pair map of each nonlinear kind, under its gate kind and its JSON tag
_PAIR_MAPS = {"nonlinear-W": phase_twist_map, "W": phase_twist_map,
              "nonlinear-G": quadratic_map, "G": quadratic_map}


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
    targets = _check_qubits(n, targets)
    if len(targets) != arity:
        raise ValueError(f"gate arity {arity} but {len(targets)} targets")
    return targets


def _check_qubits(n: int, qubits: Iterable[int]) -> tuple[int, ...]:
    """The qubits as ints, each in range and none repeated; errors name the qubit."""
    qubits = tuple(_check_qubit(n, q) for q in qubits)
    if len(set(qubits)) != len(qubits):
        repeated = next(q for q in qubits if qubits.count(q) > 1)
        raise ValueError(f"qubit {repeated} is listed twice")
    return qubits


def _check_qubit(n: int, qubit: int) -> int:
    qubit = int(qubit)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} is out of range for {n} qubits")
    return qubit


def _check_postselect(n: int, qubit: int, bit: int) -> tuple[int, int]:
    qubit, bit = _check_qubit(n, qubit), int(bit)
    if bit not in (0, 1):   # -1 would index the bit-1 branch
        raise ValueError(f"postselected bit must be 0 or 1, got {bit}")
    return qubit, bit


def _target_columns(state: StateVector, targets: tuple[int, ...]) -> np.ndarray:
    """View the register as (2^k, branches): one column per non-target assignment."""
    n = state.num_qubits
    k = len(targets)
    tensor = state.amplitudes.reshape([2] * n) if n else state.amplitudes.reshape(())
    moved = np.moveaxis(tensor, targets, range(k))
    return moved.reshape(2 ** k, -1), moved.shape


def _columns_to_amps(cols: np.ndarray, shape, targets: tuple[int, ...]) -> np.ndarray:
    k = len(targets)
    tensor = cols.reshape(shape)
    return np.moveaxis(tensor, range(k), targets).reshape(-1)


def _target_view(amps: np.ndarray, target: int) -> np.ndarray:
    """The register as (2^q, 2, b) with qubit q = ``target`` on axis 1; no copy."""
    return amps.reshape(2 ** target, 2, -1)


def apply_gate(state: StateVector, gate: Gate, targets: Sequence[int],
               mode: NormalizationMode = NormalizationMode.UNITARY) -> StateVector:
    """Apply a matrix gate to ``targets`` under the given normalization mode."""
    if isinstance(mode, str):
        mode = NormalizationMode(mode)
    targets = _check_targets(state.num_qubits, targets, gate.arity)
    if gate.matrix is None:
        if mode is not NormalizationMode.GLOBAL:
            raise NonUnitaryInModeI(
                "nonlinear gates are not unitary; use global mode")
        return apply_nonlinear(state, gate.kind, targets[0])
    if mode is NormalizationMode.UNITARY and gate.kind != "unitary":
        raise NonUnitaryInModeI(f"mode 'unitary' rejects kind '{gate.kind}'")

    m = gate.matrix
    if gate.arity == 1:   # on the view; see the module docstring for the cut at b = 16
        v = _target_view(state.amplitudes, targets[0])
        b = v.shape[2]
        if b >= 16:
            new = np.matmul(m, v)
        else:   # one GEMM: rows of 2b amplitudes times m.T (x) I_b
            new = (v.reshape(-1, 2 * b) @ _kron_eye(m.T, b)).reshape(v.shape)
        if mode is NormalizationMode.LOCAL:
            new = _rescale_branches(v, new, axis=1)
        return StateVector(new.reshape(-1))

    cols, shape = _target_columns(state, targets)
    new_cols = m @ cols
    if mode is NormalizationMode.LOCAL:
        new_cols = _rescale_branches(cols, new_cols)
    return StateVector(_columns_to_amps(new_cols, shape, targets))


_EYE = {b: np.eye(b) for b in (2, 4, 8)}


def _kron_eye(a: np.ndarray, b: int) -> np.ndarray:
    """``np.kron(a, I_b)`` for b in 1, 2, 4, 8, without np.kron's per-call cost."""
    if b == 1:
        return a
    k = a.shape[0] * b
    return (a[:, None, :, None] * _EYE[b][:, None, :]).reshape(k, k)


def _rescale_branches(branches: np.ndarray, new: np.ndarray, axis: int = 0) -> np.ndarray:
    """Local normalization: scale each branch of ``new`` back to the 2-norm
    of the same branch of ``branches``.

    A branch is a line along ``axis``, which indexes the gate's targets.  The
    norms are scale-safe, so a branch at any amplitude scale keeps its
    weight; an empty branch stays empty.  Raises ZeroBranch when a nonzero
    branch was mapped to zero.
    """
    before = p_norm(branches, 2.0, axis=axis)
    after = p_norm(new, 2.0, axis=axis)
    if np.any((before > 0.0) & (after == 0.0)):
        raise ZeroBranch(
            "a branch with nonzero weight was annihilated under local normalization")
    ratio = np.divide(before, after, out=np.ones_like(before), where=after > 0.0)
    return new * np.expand_dims(ratio, axis)


def apply_nonlinear(state: StateVector, kind: str, target: int) -> StateVector:
    """Apply a nonlinear pair map branchwise to one qubit.  No renormalization."""
    targets = _check_targets(state.num_qubits, [target], 1)
    if kind not in _PAIR_MAPS:
        raise ValueError(f"unknown nonlinear kind {kind!r}")
    v = _target_view(state.amplitudes, targets[0])
    out = np.empty_like(v)
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, 0], out[:, 1] = _PAIR_MAPS[kind](v[:, 0], v[:, 1])
    if not np.isfinite(out).all() and np.isfinite(v).all():
        raise AmplitudeOverflow(_overflow_message(kind))
    return StateVector(out.reshape(-1))


def _overflow_message(kind: str) -> str:
    return (f"the {kind.removeprefix('nonlinear-')} map sends finite amplitudes to inf "
            "or NaN; scale the state down before it")


def measure_distribution(state: StateVector, rule: MeasurementRule | float = 2.0) -> np.ndarray:
    """Outcome distribution |a_x|^p / sum_y |a_y|^p over all basis states."""
    p = rule.p if isinstance(rule, MeasurementRule) else MeasurementRule(float(rule)).p
    return p_distribution(state.amplitudes, p)


def marginal_distribution(state: StateVector, qubits: Sequence[int],
                          rule: MeasurementRule | float = 2.0) -> np.ndarray:
    """Distribution of the given qubits, other outcomes summed out."""
    n = state.num_qubits
    qubits = _check_qubits(n, qubits)
    probs = measure_distribution(state, rule)
    tensor = probs.reshape([2] * n)
    others = tuple(ax for ax in range(n) if ax not in qubits)
    marg = tensor.sum(axis=others) if others else tensor
    # summed tensor axes follow sorted(qubits); restore the requested order
    ranks = np.argsort(np.argsort(qubits))
    return np.transpose(marg, ranks).reshape(-1)


def postselect(state: StateVector, qubit: int, bit: int) -> StateVector:
    """Project onto qubit == bit and renormalize to unit 2-norm.

    The branch weight is a scale-safe 2-norm, so any amplitude scale works.
    """
    qubit, bit = _check_postselect(state.num_qubits, qubit, bit)
    split = _target_view(state.amplitudes, qubit)
    weight = p_norm(split[:, bit], 2.0)
    if weight == 0.0:
        raise ZeroProbabilityBranch(f"no amplitude on qubit {qubit} == {bit}")
    amps = np.zeros_like(split)
    amps[:, bit] = split[:, bit] / weight
    return StateVector(amps.reshape(-1))


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


# the gates a circuit file names by tag instead of by matrix
_NAMED_GATES: dict[str, Callable[[], Gate]] = {
    "H": hadamard, "X": pauli_x, "CNOT": cnot, "W": phase_twist_gate, "G": quadratic_gate,
}


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
        targets = _check_targets(self.num_qubits, targets, gate.arity)
        self.steps.append(GateStep(gate, targets, mode))
        return self

    def postselect(self, qubit: int, bit: int) -> "Circuit":
        self.steps.append(PostselectStep(*_check_postselect(self.num_qubits, qubit, bit)))
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
            if name in _NAMED_GATES:
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
        for step in data.get("steps", []):
            if "postselect" in step:
                ps = step["postselect"]
                circuit.postselect(int(ps["qubit"]), int(ps["bit"]))
                continue
            name = step["gate"]
            if name in _NAMED_GATES:
                gate = _NAMED_GATES[name]()
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
