"""State-vector engine for small registers under variant evolution rules.

Amplitude indexing: qubit 0 is the most significant bit of the basis index,
so ``amps.reshape([2] * n)`` puts qubit i on axis i.

Gate kernel.  ``_apply_block`` applies a 2^k x 2^k matrix to the k adjacent
qubits lo..lo+k-1 on the view ``amps.reshape(2**lo, 2**k, b)``, b =
2**(n-lo-k) the amplitudes below them, with no copy of the register.  A
one-target gate on qubit q is its k = 1 case, ``amps.reshape(2**q, 2, b)``;
local-mode branch norms, the two nonlinear maps and postselection read their
(target=0, target=1) pairs from that same view.  The product is chosen by
the row width 2^k b, read off the input:

* 2^k b <= ``GEMM_MAX`` = 16: one GEMM of ``amps.reshape(-1, 2^k b)``
  against ``m.T (x) I_b`` (``m.T`` itself at b = 1);
* wider: ``np.matmul(m, view)``, one 2^k x 2^k by 2^k x b product per slice.

The cut was measured at n = 20 on a 2-vCPU VM with OpenBLAS.  Below it
stacked matmul loses, since each slice costs about as much as a whole small
product: for k = 1, b = 8, 4, 2 and 1 took 20, 35, 75 and 29 ms against
3.2, 3.1, 2.2 and 2.7 ms for the GEMM.  Above it the GEMM is as fast or
faster (k = 4, b = 2: 1.9 against 12 ms stacked) but its BLAS buffers grow
with its inner dimension: with the cut at 64 or 128 the circuits
benchmark's peak RSS read 156 and 160 MB against 139 MB at 16, for the same
throughput.  A cut of 32, which makes k = 4 at b = 2 (and k = 1 at b = 16) one
GEMM, lost end to end: in six alternating runs of the circuits benchmark
(seed 1) it read 8.1-10.1 against 9.4-10.7 ops/s at 16, lower in four of
six, with median p50 50 against 48 ms and peak RSS 150 against 139 MB in
every run.  From b = 16 on stacked matmul is as fast as moving the target
axis or faster.  Multi-target gates that are not controlled, and every
multi-target gate in local mode, move their target axes to the front
(``_target_columns``), multiply, and move them back: two copies of the
register, 11-15 ms at n = 20 for a one-target gate against 2.5-5 ms on the
view.

Controlled gates.  A two-target gate whose matrix is block-diag(I, U) or
block-diag(U, I) is U on targets[1] where the control qubit c = targets[0]
has bit 1 or 0 (``Gate.controlled``, decided once).  In unitary and global
mode ``_apply_controlled`` applies it, or a fused block of such gates, with
no moveaxis, by one of two products chosen from the layout:

* the control slice, when the window lies below the control (c < lo,
  "below" meaning less significant, as b counts the amplitudes below):
  the half of the register where c has its bit is the view
  ``amps.reshape(2**c, 2, -1)[:, bit]``, which splits as (2^c,
  2^(lo-c-1), 2^k, b) with contiguous rows of 2^k b amplitudes, so
  ``_apply_block`` runs on it as on the register: one GEMM for each of
  the 2^c values of the qubits above the control, or stacked matmul as
  above.  The idle half is copied once, the active half read once and
  written once;
* the full pass otherwise: the block on the whole register through
  ``_apply_block``, then the idle half put back from the input.

The full pass throws away its products on the idle half.  A unitary block
grows no amplitude by more than 2^(k/2), so those can overflow only where
the idle half holds amplitudes within that factor of the largest double;
an invertible gate in global mode can grow them by its whole gain, so it
always takes the slice, also where the window lies above the control: there
the active half is (2^lo, 2^(c-lo-k), 2^k, 2^(n-c-1)) after one swap of
axes, and stacked matmul runs on it.

The slice is taken for stacked matmul, which makes half the products of
the full pass, and for GEMMs of at least 512 amplitudes (2^(n-c-1)); fewer
than that and its 2^c small GEMMs lose to the full pass's one.  Above the
control the slice's rows are cut by the control bit, so only stacked
matmul fits, with short rows of 2^(n-c-1) amplitudes where the control is
deep.  Measured at n = 20 on the same VM for a controlled H, in ms, as
(moveaxis, slice, full pass) per (c, t): (0, 19) 6.1, 1.05, 1.57; (3, 18)
7.5, 0.98, 1.54; (9, 17) 5.9, 1.60, 1.70; (12, 17) 6.1, 2.54, 1.94;
(17, 19) 7.0, 25.6, 2.35; (0, 12) 5.3, 1.50, 2.70; and with the target
above the control (15, 3) 5.3, 4.80, 2.04 and (18, 3) 7.2, 27.4, 2.53.
The full pass costs what the one-target kernel costs at the target's b,
so it loses to moveaxis where that kernel is slow: with 16 amplitudes
below the target and the control below it, (16, 15) took 7.8 against 5.7.

Fusion.  Each gate is a pass over all 2^n amplitudes, memory-bound, so
``run_circuit`` makes one pass of a run of one-target steps.  A step joins
the run when its gate kind is ``unitary`` and its mode ``unitary`` or
``global``, and the run's targets stay inside a window of at most
``FUSE_WINDOW`` = 4 adjacent qubits; a step outside the window starts a new
run, and local-mode, invertible, nonlinear and other multi-target steps and
postselection end it.  Controlled unitary steps (unitary or global mode)
make runs of their own by the same rule: a run shares one control and one
bit, and a step with another control or bit, or a one-target step, ends
it.  A window that covers the control is the identity there, and takes the
full pass.  The matrices on each qubit are multiplied in step order, and
their Kronecker product over the window, the identity on idle qubits, goes
through ``_apply_block``, or ``_apply_controlled`` for a controlled run.
Each fused step passes the target and mode checks of ``apply_gate``, so
errors do not change.  Only unitaries are fused: a product of unitaries is
unitary, so the block neither overflows nor underflows at any amplitude
scale, while two global-mode gates of 1e160 take amplitudes of 1e-300 to
1e20 one at a time but would make a block of 1e320.  The window of 4 was
measured like the cut: an H layer at n = 20 took 55, 29, 27, 22, 23 and 28
ms with windows of 1 to 6 qubits, and the benchmark's five dense circuits
at n = 16..20 took 275, 220, 216, 208, 214 and 228 ms; a block of 2^k rows
costs 2^k multiply-adds per amplitude, which wider windows no longer hide
behind memory traffic.  Fused results differ from one step at a time only by
rounding.

Three normalization modes govern how a gate acts:

* ``unitary``  -- the gate matrix must be unitary; plain linear action.
* ``global``   -- any well-conditioned invertible matrix; linear action with
  no renormalization (probabilities are normalized at measurement time).
* ``local``    -- after the linear action, every branch over the non-target
  qubits is rescaled back to the 2-norm weight it had before the gate.
  ``_rescale_branches`` is that rescale, with scale-safe norms; the path sum
  in ``pathsum`` calls it too, so the two evaluators share one rule.  The
  norms take one pass of |a|^2 sums and fall back to ``p_norm`` only on
  branches whose sum is out of the safe range (``_branch_norms``): 11-18
  against 24-37 ms for a local-mode gate at n = 20.

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

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .linalg import NonPositiveP, _halves, is_unitary, p_distribution, p_norm

UNITARY_TOL = 1e-10
CONDITION_LIMIT = 1e12
FUSE_WINDOW = 4   # most adjacent qubits that one fused block of one-target gates spans
GEMM_MAX = 16     # widest row 2^k b that the gate kernel multiplies by one GEMM


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
    ``controlled`` is (bit, U) for a two-target gate that applies U to
    targets[1] where targets[0] == bit and nothing elsewhere: a matrix that is
    exactly block-diag(I, U) (bit 1, as CNOT) or block-diag(U, I) (bit 0).
    It is None for every other gate.
    """

    def __init__(self, matrix=None, kind: str | None = None, name: str = "custom",
                 condition_override: bool = False):
        self.name = name
        if kind in ("nonlinear-W", "nonlinear-G"):
            self.kind = kind
            self.matrix = None
            self.arity = 1
            self.controlled = None
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
        self.controlled = _controlled_part(m) if arity == 2 else None

    def __repr__(self):
        return f"Gate({self.name}, kind={self.kind}, arity={self.arity})"


def _controlled_part(m: np.ndarray) -> tuple[int, np.ndarray] | None:
    """(bit, U) when the 4x4 ``m`` is block-diag(I, U) (bit 1) or
    block-diag(U, I) (bit 0) exactly, else None."""
    if np.any(m[:2, 2:]) or np.any(m[2:, :2]):
        return None
    if np.array_equal(m[:2, :2], _EYE[2]):
        return 1, m[2:, 2:].copy()
    if np.array_equal(m[2:, 2:], _EYE[2]):
        return 0, m[:2, :2].copy()
    return None


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


def _target_view(amps: np.ndarray, lo: int, k: int = 1) -> np.ndarray:
    """The register as (2^lo, 2^k, b) with qubits lo..lo+k-1 on axis 1; no copy."""
    return amps.reshape(2 ** lo, 2 ** k, -1)


def _apply_block(v: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``m`` (2^k x 2^k) on axis -2 of the view ``v`` = (..., 2^k, b): the gate
    kernel.  The product is chosen by the row width 2^k b (module docstring).

    ``v`` is the register's view (2^lo, 2^k, b), or the control slice's
    (2^c, 2^(lo-c-1), 2^k, b), whose rows of 2^k b amplitudes are contiguous
    too.  The result goes to ``out``, a view of the same shape, if given.
    """
    d, b = v.shape[-2:]
    if d * b <= GEMM_MAX:   # a GEMM per leading index: rows of d*b amplitudes times m.T (x) I_b
        factor = m.T if b == 1 else _kron(m.T, _EYE[b])
        rows = v.shape[:-2] + (d * b,)
        dest = None if out is None else out.reshape(rows)
        return np.matmul(v.reshape(rows), factor, out=dest).reshape(v.shape)
    return np.matmul(m, v, out=out)


def _apply_controlled(amps: np.ndarray, c: int, bit: int, lo: int, m: np.ndarray, *,
                      unitary: bool) -> np.ndarray:
    """``m`` (2^k x 2^k) on qubits lo..lo+k-1 of the half of the register
    where qubit c == bit, the identity on the other half.  If the window
    covers c, ``m`` must be the identity on it, as a fused block is on a
    qubit that no step targets.  A new array; the layout and whether ``m``
    is unitary pick the product (module docstring)."""
    d = m.shape[0]
    b = amps.size // (2 ** lo * d)
    halves = amps.reshape(2 ** c, 2, -1)   # axis 1 is qubit c
    # the slice for stacked matmul, for GEMMs of 512 amplitudes or more, and
    # for a non-unitary m, whose products on the idle half could overflow
    if not unitary or c < lo and (d * b > GEMM_MAX or halves.shape[2] >= 512):
        # on the control slice: copy the idle half, multiply the active half
        out = np.empty_like(amps)
        out_halves = out.reshape(halves.shape)
        out_halves[:, 1 - bit] = halves[:, 1 - bit]
        if c < lo:
            slice_shape = (2 ** c, -1, d, b)
            _apply_block(halves[:, bit].reshape(slice_shape), m,
                         out=out_halves[:, bit].reshape(slice_shape))
        else:   # rows cut by the control bit: (2^lo, 2^(c-lo-k), 2^k, 2^(n-c-1))
            split = (2 ** lo, d, -1, 2, halves.shape[2])
            active = (slice(None), slice(None), slice(None), bit)
            np.matmul(m, amps.reshape(split)[active].swapaxes(1, 2),
                      out=out.reshape(split)[active].swapaxes(1, 2))
        return out
    # one pass over the whole register, then the idle half put back
    out = _apply_block(_target_view(amps, lo, d.bit_length() - 1), m).reshape(-1)
    out.reshape(halves.shape)[:, 1 - bit] = halves[:, 1 - bit]
    return out


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
    if gate.arity == 1:   # the k = 1 case of the block kernel
        v = _target_view(state.amplitudes, targets[0])
        new = _apply_block(v, m)
        if mode is NormalizationMode.LOCAL:
            new = _rescale_branches(v, new, axis=1)
        return StateVector(new.reshape(-1))
    if gate.controlled is not None and mode is not NormalizationMode.LOCAL:
        bit, u = gate.controlled
        return StateVector(_apply_controlled(state.amplitudes, targets[0], bit, targets[1], u,
                                             unitary=gate.kind == "unitary"))

    cols, shape = _target_columns(state, targets)
    new_cols = m @ cols
    if mode is NormalizationMode.LOCAL:
        new_cols = _rescale_branches(cols, new_cols)
    return StateVector(_columns_to_amps(new_cols, shape, targets))


# I_b for the GEMM (b <= GEMM_MAX / 2) and I_2 for an idle qubit in a fused block
_EYE = {b: np.eye(b) for b in (2, 4, 8)}


def _kron(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices, without np.kron's per-call cost."""
    k = a.shape[0] * c.shape[0]
    return (a[:, None, :, None] * c[:, None, :]).reshape(k, k)


def _rescale_branches(branches: np.ndarray, new: np.ndarray, axis: int = 0) -> np.ndarray:
    """Local normalization: scale each branch of ``new`` back to the 2-norm
    of the same branch of ``branches``.

    A branch is a line along ``axis``, which indexes the gate's targets.  The
    norms are scale-safe, so a branch at any amplitude scale keeps its
    weight; an empty branch stays empty.  ``new`` is scaled in place and
    returned.  Raises ZeroBranch when a nonzero branch was mapped to zero.
    """
    before = _branch_norms(branches, axis)
    after = _branch_norms(new, axis)
    if np.any((before > 0.0) & (after == 0.0)):
        raise ZeroBranch(
            "a branch with nonzero weight was annihilated under local normalization")
    ratio = np.divide(before, after, out=np.ones_like(before), where=after > 0.0)
    new *= np.expand_dims(ratio, axis)
    return new


# sums of squares inside this range neither underflowed nor overflowed
_SAFE_SQ = (2.0 ** -900, 2.0 ** 900)


def _branch_norms(x: np.ndarray, axis: int) -> np.ndarray:
    """2-norms of the lines of ``x`` along ``axis``, scale-safe.

    One pass forms each line's sum of |a|^2.  Only the lines whose sum is 0,
    not finite, or so small or large that a square may have under- or
    overflowed are taken again, by ``p_norm``, which scales before squaring;
    lines that are all zero keep their norm of 0 and skip it.
    """
    with np.errstate(over="ignore"):
        sums = _line_sums(_abs_squared(x), axis)
    norms = np.sqrt(sums)
    if not _SAFE_SQ[0] <= sums.min() <= sums.max() <= _SAFE_SQ[1]:   # NaN fails too
        redo = ~((sums >= _SAFE_SQ[0]) & (sums <= _SAFE_SQ[1]))
        redo &= _line_sums(x != 0, axis) > 0
        if redo.any():
            norms[redo] = p_norm(np.moveaxis(x, axis, -1)[redo], 2.0, axis=-1)
    return norms


def _abs_squared(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise, with one temporary the size of ``x``'s real part."""
    sq = x.real * x.real
    sq += x.imag * x.imag
    return sq


def _line_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Sums along ``axis``; a two-entry axis is added as two halves, by one
    ufunc call (as ``p_norm`` does), not by numpy's slow short reduce."""
    return np.add(*_halves(a, axis)).squeeze(axis) if a.shape[axis] == 2 else a.sum(axis)


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
    """Run the steps in order, each run of fusable steps as one block gate."""
    n = circuit.num_qubits
    state = initial if initial is not None else StateVector.ground(n)
    if state.num_qubits != n:
        raise ValueError("initial state size does not match circuit")
    run: dict[int, np.ndarray] = {}   # target -> product of the run's matrices on it
    control = None                     # (qubit, bit) the run is controlled on, or None
    for step in circuit.steps:
        fused = _fusion(n, step)
        if fused is not None:
            ctl, q, m = fused
            if run and (ctl != control or max(*run, q) - min(*run, q) >= FUSE_WINDOW):
                state, run = _apply_run(state, run, control), {}
            control = ctl
            run[q] = m @ run[q] if q in run else m
            continue
        state, run = _apply_run(state, run, control), {}
        if isinstance(step, PostselectStep):
            state = postselect(state, step.qubit, step.bit)
        else:
            state = apply_gate(state, step.gate, step.targets, step.mode)
    return _apply_run(state, run, control)


def _fusion(n: int, step):
    """(control, target, matrix) of a step that joins a run, else None.

    A one-target unitary gate (control None), or a unitary gate controlled
    on targets[0] (control (qubit, bit), its U on targets[1]), in unitary or
    global mode."""
    if not (isinstance(step, GateStep) and step.gate.kind == "unitary"
            and NormalizationMode(step.mode) is not NormalizationMode.LOCAL):
        return None
    if step.gate.arity == 1:
        (q,) = _check_targets(n, step.targets, 1)
        return None, q, step.gate.matrix
    if step.gate.controlled is None:
        return None
    c, q = _check_targets(n, step.targets, 2)
    bit, u = step.gate.controlled
    return (c, bit), q, u


def _apply_run(state: StateVector, run: dict[int, np.ndarray], control) -> StateVector:
    """A run's per-qubit products, Kronecker-multiplied over its window of
    adjacent qubits (identity on idle ones), applied in one pass, on the
    control's half of the register for a controlled run."""
    if not run:
        return state
    lo, hi = min(run), max(run)
    block = functools.reduce(_kron, [run.get(q, _EYE[2]) for q in range(lo, hi + 1)])
    if control is not None:
        return StateVector(_apply_controlled(state.amplitudes, *control, lo, block, unitary=True))
    v = _target_view(state.amplitudes, lo, hi - lo + 1)
    return StateVector(_apply_block(v, block).reshape(-1))


def bell_pair() -> StateVector:
    """(|00> + |11>)/sqrt(2), built by running H then CNOT on |00>."""
    circuit = Circuit(2)
    circuit.gate(hadamard(), [0])
    circuit.gate(cnot(), [0, 1])
    return run_circuit(circuit)
