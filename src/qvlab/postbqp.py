"""Deciding majority with postselection, and with p-norm measurement instead.

Everything here works with a boolean function f on n-bit inputs whose
satisfying count s = |f^{-1}(1)| is what the algorithms probe.  The central
one-qubit object is the count state

    ((2^n - s)|0> + s|1>) / sqrt((2^n - s)^2 + s^2),

prepared by superposing all inputs with f's value on an output qubit,
Hadamarding the input register, and postselecting it on all zeros.  Mixing
the count state against its Hadamard transform with amplitude ratios 2^i and
postselecting picks out whether s is below or above 2^(n-1): some
i in [-n, n] pushes the overlap with |+> to at least (1+sqrt(2))/sqrt(6)
exactly when s < 2^(n-1), while every i stays at or below 1/sqrt(2) when
s > 2^(n-1).

The same decision survives replacing every postselection with a measurable
weight shift: Hadamarding m fresh ancillas conditioned on a qubit multiplies
that branch's p-norm measurement weight by 2^(m(1-p/2)), so for any p != 2
enough ancillas make the wanted branch dominate the p-norm distribution.
That is the postselection gadget, and ``postbqp_decide_pnorm`` runs the whole
majority decision on unitary gates plus the p-norm rule alone.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import (Circuit, Gate, MeasurementRule, StateVector, _check_bit, _index,
                     _target_view, apply_gate, hadamard, marginal_distribution, postselect,
                     run_circuit)
from .linalg import PEqualsTwo, complete_to_unitary, p_distribution, p_norm
from .report import fields_to_json

# Overlap bounds for the two sides of the majority decision.
OVERLAP_LOW_S = (1.0 + math.sqrt(2.0)) / math.sqrt(6.0)   # reached iff s < 2^(n-1)
OVERLAP_HIGH_S = 1.0 / math.sqrt(2.0)                      # ceiling when s > 2^(n-1)
EXACT_THRESHOLD = (OVERLAP_LOW_S + OVERLAP_HIGH_S) / 2.0
SAMPLED_THRESHOLD = (OVERLAP_LOW_S ** 2 + OVERLAP_HIGH_S ** 2) / 2.0


class PaddingViolation(ValueError):
    """Majority decisions require 0 < s != 2^(n-1)."""


class BooleanFunction:
    """Truth table of f: {0,1}^n -> {0,1}, indexed by integer input."""

    def __init__(self, num_inputs: int, table):
        table = np.asarray(table, dtype=np.uint8).ravel()
        if table.size != 2 ** num_inputs or set(np.unique(table)) - {0, 1}:
            raise ValueError("table must hold 2^n bits")
        self.num_inputs = int(num_inputs)
        self.table = table

    @property
    def ones_count(self) -> int:
        return int(self.table.sum())

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    @classmethod
    def from_string(cls, text: str) -> "BooleanFunction":
        """Parse the two-line format: n, then 2^n bits or hex with 0x prefix."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) != 2:
            raise ValueError("expected two lines: n and the table")
        n = int(lines[0])
        row = lines[1]
        if row.lower().startswith("0x"):
            bits = bin(int(row, 16))[2:].zfill(2 ** n)
        else:
            bits = row
        if len(bits) != 2 ** n:
            raise ValueError(f"table length {len(bits)} != 2^{n}")
        return cls(n, [int(c) for c in bits])

    @classmethod
    def from_file(cls, path) -> "BooleanFunction":
        return cls.from_string(Path(path).read_text())

    def to_string(self) -> str:
        return f"{self.num_inputs}\n{''.join(str(b) for b in self.table)}\n"

    def __repr__(self):
        return f"BooleanFunction(n={self.num_inputs}, s={self.ones_count})"


def _conditioned_hadamard(bit: int) -> Gate:
    """Two-qubit gate: H on the second target where the first target == bit."""
    block = np.eye(4, dtype=np.complex128)
    block[2 * bit:2 * bit + 2, 2 * bit:2 * bit + 2] = hadamard().matrix
    return Gate(block, name="cH")


@functools.cache
def _carrier_tail() -> np.ndarray:
    """H on the carrier after cH from carrier to output, as a read-only 4x4
    on the (output, carrier) pair with the output as the high bit: the
    angle-independent tail of the decision's mixing step.  Built on first
    use, not at import, which would start the BLAS library in every process
    that imports the package."""
    swap = [0, 2, 1, 3]
    tail = (np.kron(np.eye(2), hadamard().matrix)
            @ _conditioned_hadamard(1).matrix[np.ix_(swap, swap)])
    tail.flags.writeable = False
    return tail


def _tabulated_state(f: BooleanFunction) -> StateVector:
    """Uniform superposition of |x>|f(x)> on n+1 qubits (output qubit last)."""
    n = f.num_inputs
    amps = np.zeros(2 ** (n + 1), dtype=np.complex128)
    amps[(np.arange(2 ** n) << 1) | f.table] = 2.0 ** (-n / 2.0)
    return StateVector(amps)


def _after_input_hadamards(f: BooleanFunction) -> StateVector:
    """The tabulated state with H on every input qubit, as one circuit, so
    the Hadamards are fused into about n/4 passes."""
    n = f.num_inputs
    circuit = Circuit(n + 1)
    h = hadamard()
    for q in range(n):
        circuit.gate(h, [q])
    return run_circuit(circuit, _tabulated_state(f))


def prepare_count_state(f: BooleanFunction) -> StateVector:
    """The one-qubit count state, produced by actual circuit simulation."""
    n = f.num_inputs
    state = _after_input_hadamards(f)
    for q in range(n):
        state = postselect(state, q, 0)
    return StateVector(state.amplitudes[:2])


def count_state_weight(f: BooleanFunction) -> float:
    """2-norm probability that the input-register postselection succeeds."""
    state = _after_input_hadamards(f)
    n = f.num_inputs
    probs = marginal_distribution(state, range(n), MeasurementRule(2.0))
    return float(probs[0])


def count_state_exact(s: int, n: int) -> np.ndarray:
    """Closed form ((2^n - s), s) / N for cross-checking the circuit path."""
    v = np.array([2.0 ** n - s, float(s)])
    return v / np.linalg.norm(v)


def plus_overlap(s: int, n: int, i: int) -> float:
    """|<+| tilt_i>| in closed form.

    tilt_i is the posterior one-qubit state after mixing the count state
    (amplitude alpha) against its Hadamard transform (amplitude beta) with
    beta/alpha = 2^i and postselecting the carrier qubit on 1: up to
    normalization (alpha s, beta (2^n - 2s)/sqrt(2)).
    """
    r = 2.0 ** i
    u0 = float(s)
    u1 = r * (2.0 ** n - 2.0 * s) / math.sqrt(2.0)
    return abs(u0 + u1) / (math.sqrt(2.0) * math.hypot(u0, u1))


def plus_overlap_simulated(s: int, n: int, i: int) -> float:
    """Same overlap via explicit two-qubit circuit simulation."""
    if not 0 <= s <= 2 ** n:
        raise ValueError("count out of range")
    r = 2.0 ** i
    alpha = 1.0 / math.sqrt(1.0 + r * r)
    beta = r * alpha
    psi = count_state_exact(s, n)
    prep_b = Gate(complete_to_unitary([psi.astype(np.complex128)]), name="prep")
    rot_a = Gate([[alpha, -beta], [beta, alpha]], name="mix")
    circuit = Circuit(2)
    circuit.gate(prep_b, [1])
    circuit.gate(rot_a, [0])
    circuit.gate(_conditioned_hadamard(1), [0, 1])   # control = qubit 0
    circuit.postselect(1, 1)
    state = run_circuit(circuit)
    v0 = state.amplitudes[1]       # qubit0=0, qubit1=1
    v1 = state.amplitudes[3]
    return float(abs(v0 + v1) / math.sqrt(2.0))


@dataclass
class MajorityDecision:
    """Verdict on whether s < 2^(n-1), with the per-i evidence.

    In exact mode ``per_i`` holds closed-form overlaps compared against
    ``threshold``; in sampled and pnorm-gadget modes it holds |+>-outcome
    probabilities or frequencies compared against the squared threshold.
    """

    verdict: str
    per_i: list = field(default_factory=list)
    trials: int = 0
    mode: str = "exact"
    threshold: float = EXACT_THRESHOLD
    details: dict = field(default_factory=dict)

    @property
    def says_less_than_half(self) -> bool:
        return self.verdict == "LessThanHalf"

    def to_dict(self) -> dict:
        return fields_to_json(self)


def _verdict(per_i, threshold: float) -> str:
    """LessThanHalf when some i's value reaches the threshold, else GreaterThanHalf."""
    return "LessThanHalf" if any(v >= threshold for _, v in per_i) else "GreaterThanHalf"


def _check_padding(f: BooleanFunction):
    s = f.ones_count
    if s == 0 or s == 2 ** (f.num_inputs - 1):
        raise PaddingViolation(
            f"count s={s} violates 0 < s != 2^(n-1) for n={f.num_inputs}")


def postbqp_decide(f: BooleanFunction, mode: str = "exact",
                   seed: int | None = 0, trials: int | None = None) -> MajorityDecision:
    """Decide s < 2^(n-1) from the per-i overlap family.

    ``mode="exact"`` thresholds closed-form overlaps and ignores the seed.
    ``mode="sampled"`` draws ``trials`` (default n) plus/minus measurements
    per i from the exact outcome law and thresholds the plus frequency; it is
    deterministic for a fixed seed but noisy for small n, so raise ``trials``
    when a reliable answer matters.
    """
    _check_padding(f)
    n = f.num_inputs
    s = f.ones_count
    i_values = range(-n, n + 1)
    if mode == "exact":
        per_i = [(i, plus_overlap(s, n, i)) for i in i_values]
        return MajorityDecision(_verdict(per_i, EXACT_THRESHOLD), per_i, 0, "exact",
                                EXACT_THRESHOLD)
    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    trials = n if trials is None else int(trials)
    rng = np.random.default_rng(seed)
    # the plus frequency of each i's draws from its exact outcome law
    per_i = [(i, float(np.mean(rng.random(trials) < plus_overlap(s, n, i) ** 2)))
             for i in i_values]
    return MajorityDecision(_verdict(per_i, SAMPLED_THRESHOLD), per_i, trials, "sampled",
                            SAMPLED_THRESHOLD)


@dataclass
class OrDecision:
    value: bool
    prob_one: float
    ones_count: int

    def to_dict(self) -> dict:
        return fields_to_json(self)


def or_solve_nonunitary(f: BooleanFunction) -> OrDecision:
    """Decide OR(f) with one non-unitary gate under global normalization.

    Applies diag(2^(-2n), 1) to the output qubit of the tabulated
    superposition; at measurement the satisfied branch dominates whenever it
    exists: P(output=1) = s / (s + (2^n - s) 4^(-2n)) >= 1 - 2^(-3n) for
    s >= 1, and exactly 0 for s = 0.
    """
    n = f.num_inputs
    state = _tabulated_state(f)
    damp = Gate(np.diag([2.0 ** (-2 * n), 1.0]), name="damp")
    state = apply_gate(state, damp, [n], "global")
    probs = marginal_distribution(state, [n], MeasurementRule(2.0))
    p1 = float(probs[1])
    return OrDecision(p1 > 0.5, p1, f.ones_count)


@dataclass
class GadgetReport:
    """Certified effect of one postselection gadget application.

    The factors are held as log2 exponents, so the certificate stays
    meaningful where 2^(m(1-p/2)) underflows (p in the thousands); the
    linear factors are derived from them for the report.
    """

    p: float
    ancillas: int
    favored_bit: int
    conditioned_bit: int
    closed_form_log2: float
    measured_log2: float | None

    @property
    def closed_form_factor(self) -> float:
        return 2.0 ** self.closed_form_log2

    @property
    def measured_factor(self) -> float | None:
        return None if self.measured_log2 is None else 2.0 ** self.measured_log2

    def to_dict(self) -> dict:
        return {**fields_to_json(self), "closed_form_factor": self.closed_form_factor,
                "measured_factor": self.measured_factor}


def _ancilla_count(m) -> int:
    """m as an int; ValueError unless it is a nonnegative whole number."""
    if not (m >= 0 and float(m).is_integer()):
        raise ValueError(f"ancilla count must be a nonnegative integer, got {m}")
    return int(m)


def gadget_factor(p: float, m: int) -> float:
    """p-norm weight multiplier on the conditioned branch: 2^(m(1-p/2))."""
    p = MeasurementRule(p).p
    return 2.0 ** (_ancilla_count(m) * (1.0 - p / 2.0))


def gadget_size(p: float, n: int) -> int:
    """Ancilla count ceil(10 p n / |2 - p|) used by the gadgeted decision."""
    if p == 2:
        raise PEqualsTwo("no ancilla count makes p = 2 postselect")
    p = MeasurementRule(p).p
    if n < 0:
        raise ValueError(f"input count must be nonnegative, got {n}")
    return math.ceil(10.0 * p * n / abs(2.0 - p))


def _branch_pweights(state: StateVector, qubit: int, p: float,
                     conditioned: int) -> tuple[float, float]:
    """log2 of the raw p-weight sums sum |a|^p on the qubit's ``conditioned``
    branch and on its other branch, in that order.

    Raw sums, not a normalized distribution: the certificate divides sums
    taken from the states before and after the gadget.  Each is p log2 of
    the branch's scale-safe p-norm, -inf for an empty branch.
    """
    split = _target_view(state.amplitudes, qubit)
    norms = (p_norm(split[:, conditioned], p), p_norm(split[:, 1 - conditioned], p))
    return tuple(p * math.log2(v) if v > 0 else -math.inf for v in norms)


def postselection_gadget(state: StateVector, qubit: int, p: float, m: int,
                         bit: int = 1) -> tuple[StateVector, GadgetReport]:
    """Shift p-norm weight toward ``qubit == bit`` with m Hadamarded ancillas.

    Appends m ancillas in |0> and Hadamards each conditioned on the qubit:
    on the branch carrying the condition, every ancilla fans out over 2
    basis states and multiplies the branch's p-norm weight by 2^(1-p/2).
    For p < 2 the condition sits on the favored bit (amplification > 1);
    for p > 2 it sits on the opposite bit (suppression < 1).  Either way the
    favored branch gains 2^(m |1-p/2|) relative weight.  Returns the extended
    state and a report comparing the closed-form factor with the measured one.

    The m conditioned Hadamards are one circuit, which ``run_circuit`` fuses
    into ceil(m/4) passes over the conditioned half of the register.  They
    are added last ancilla first (they commute), so the windows of 4 end at
    the register's end and no fused block leaves 2, 4 or 8 amplitudes below
    it.  The measured factor is read off the simulated state, not the closed
    form it is checked against.
    """
    if p == 2:
        raise PEqualsTwo("the gadget is inert at p = 2")
    MeasurementRule(p)   # finite and positive, else NonPositiveP
    m = _ancilla_count(m)
    n, qubit = state.num_qubits, _index(qubit)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for a {n}-qubit state")
    bit = _check_bit(bit, "bit")
    conditioned = bit if p < 2 else 1 - bit

    cb, ob = _branch_pweights(state, qubit, p, conditioned)

    amps = np.zeros(2 ** (n + m), dtype=np.complex128)
    amps[np.arange(state.amplitudes.size) << m] = state.amplitudes
    fan_out = Circuit(n + m)
    cond_h = _conditioned_hadamard(conditioned)
    for ancilla in reversed(range(n, n + m)):
        fan_out.gate(cond_h, [qubit, ancilla])
    grown = run_circuit(fan_out, StateVector(amps))

    ca, oa = _branch_pweights(grown, qubit, p, conditioned)
    # log2 of (ca / oa) / (cb / ob), or of ca / cb without an other branch
    if cb > -math.inf and ob > -math.inf and oa > -math.inf:
        measured = (ca - oa) - (cb - ob)
    elif cb > -math.inf:
        measured = ca - cb
    else:
        measured = None
    return grown, GadgetReport(p, m, bit, conditioned, m * (1.0 - p / 2.0), measured)


def postbqp_decide_pnorm(f: BooleanFunction, p: float,
                         ancillas_per_gadget: int | None = None) -> MajorityDecision:
    """Majority decision using unitary gates and p-norm measurement only.

    Runs the overlap-family circuit with every postselection replaced by a
    postselection gadget of m = ceil(10 p n / |2 - p|) ancillas (the achieved
    relative suppression of unwanted branches is 2^(-m |1-p/2|) per gadget,
    recorded in the details).  The verdict matches ``postbqp_decide`` for the
    padded inputs this decision is defined on.

    The three gates that depend on the mixing angle (the mix on the carrier,
    cH from carrier to output, H on the carrier) act on the (output,
    carrier) pair alone, and the carrier starts in |0>.  So every angle's
    state is the prefix's (inputs, output) amplitudes times the carrier-0
    columns of that pair's 4x4 product, and all 2n+1 angles are one stacked
    matmul.  The gadgets' weight gains are still applied at measurement, as
    log2 gains in the p-norm distribution of each angle's state.
    """
    if p == 2:
        raise PEqualsTwo("at p = 2 the gadgets are inert and the decision collapses")
    p = MeasurementRule(p).p
    _check_padding(f)
    n = f.num_inputs
    m = gadget_size(p, n) if ancillas_per_gadget is None else _ancilla_count(ancillas_per_gadget)

    # Qubits 0..n-1 are the inputs, n the output, n+1 the mixing carrier.
    # The i-independent prefix (tabulated state, input Hadamards) as
    # (inputs, output) rows; the carrier is |0> until the mix.
    prefix = _after_input_hadamards(f).amplitudes.reshape(2 ** n, 2)
    # Each gadget multiplies the p-weight of its conditioned branch by
    # 2^(m(1-p/2)).  Its ancillas and its qubit are never gated again, so the
    # factors apply exactly at measurement, as log2 gains per basis state:
    # one per input qubit on bit 0 and one on the output qubit on bit 1, the
    # condition flipped to the other bit for p > 2.
    idx = np.arange(2 ** (n + 2))
    flip = int(p > 2)
    gadgets_hit = (((idx >> 1) & 1) == 1 - flip).astype(np.int64)
    for q in range(n):
        gadgets_hit += ((idx >> (n + 1 - q)) & 1) == flip
    log2_gain = m * (1.0 - p / 2.0) * gadgets_hit

    # Rotation i mixes the carrier by beta/alpha = 2^i; on the (output,
    # carrier) pair it is I (x) mix_i, one (2n+1, 4, 4) stack.
    i_values = np.arange(-n, n + 1)
    r = np.ldexp(1.0, i_values)
    alpha = 1.0 / np.sqrt(1.0 + r * r)
    beta = r * alpha
    rot = np.stack([alpha, -beta, beta, alpha], axis=-1).reshape(-1, 2, 2)
    carrier_zero = (_carrier_tail() @ np.kron(np.eye(2), rot))[:, :, 0::2]
    states = np.matmul(prefix, carrier_zero.transpose(0, 2, 1))   # (2n+1, 2^n, 4)

    # each angle's p-norm weight on carrier == 0 after H
    per_i = [(int(i), float(p_distribution(state.reshape(-1), p, log2_gain)[0::2].sum()))
             for i, state in zip(i_values, states)]

    details = {
        "ancillas_per_gadget": m,
        "per_gadget_suppression": 2.0 ** (-m * abs(1.0 - p / 2.0)),
        "gadgets": n + 1,
    }
    return MajorityDecision(_verdict(per_i, SAMPLED_THRESHOLD), per_i, 0, "pnorm-gadget",
                            SAMPLED_THRESHOLD, details)
