"""Depth-first amplitude evaluation without materializing state vectors.

``amplitude_recursive`` computes one amplitude after t circuit steps as a
function of parent amplitudes at step t-1, recursing down to the initial
state.  Each gate step has constant fan-in (at most 2^arity parents; zero
matrix entries are pruned), so memory grows linearly with circuit depth and
never with register width.  Time is exponential in the number of branching
gates; the point of this evaluator is the memory profile, not speed.

A step's mode and kind were checked when it was made (``GateStep``), and
its targets pass ``run_circuit``'s own pre-run check, so the two evaluators
refuse the same circuits with the same errors.  Each call lays out every
step once, in a table of its target bits (``_step_table``), so a node finds
its output assignment and its parents by masking the basis index.  The
recursion takes one stack frame per step; past the interpreter's recursion
limit it raises ``PathSumTooDeep``.

Local-mode steps are supported: the branch rescaling factor depends only on
the same 2^arity parents as the linear action, and it is computed by the
dense engine's own scale-safe rescale (``engine._rescale_branches``) on that
one branch.  Nonlinear steps use the engine's pair maps (``engine._PAIR_MAPS``),
so the two evaluators share one formula for each and one overflow rule,
per pair: a node raises ``AmplitudeOverflow`` if either output of its pair
of finite amplitudes is inf or NaN, not only the one it selects.  A pair
off the amplitude's path is never computed, so where only such a pair
overflows, the engine raises and the path sum returns the amplitude.
Postselection steps are not supported: their renormalization divides by a
weight aggregated over the whole register, which has no constant fan-in
expression.  Circuits containing postselection steps are rejected.
"""
from __future__ import annotations

import cmath
import sys
from typing import Callable

import numpy as np

from .engine import (_PAIR_MAPS, AmplitudeOverflow, Circuit, GateStep,
                     NormalizationMode, PostselectStep, StateVector, _check_run,
                     _overflow_message, _rescale_branches, basis_index)

InitialAmplitude = Callable[[int], complex]


class PathSumTooDeep(RecursionError):
    """The circuit has more steps than the recursion limit leaves frames for."""


def ground_amplitude(index: int) -> complex:
    """Initial-amplitude callable for |00...0>."""
    return 1.0 + 0.0j if index == 0 else 0.0j


def amplitude_recursive(circuit: Circuit, x: int | str, t: int | None = None,
                        initial: StateVector | InitialAmplitude | None = None) -> complex:
    """Amplitude of basis state ``x`` after the first ``t`` steps of ``circuit``.

    ``initial`` may be a StateVector or a callable from basis index to
    amplitude (so wide registers never require a 2^n array anywhere).  The
    default is the ground state.  Matches ``run_circuit`` exactly on gate-only
    circuits, including local-mode and nonlinear steps.
    """
    n = circuit.num_qubits
    steps = circuit.steps if t is None else circuit.steps[:t]
    _check_run(n, steps, initial)
    if any(isinstance(step, PostselectStep) for step in steps):
        raise ValueError("postselection steps renormalize globally and are not "
                         "supported by the recursive evaluator")
    tables = [_step_table(n, step) for step in steps]

    if isinstance(initial, StateVector):
        initial = initial.amplitudes.__getitem__
    index = basis_index(n, x)
    try:
        return _amp(tables, len(tables), index, ground_amplitude if initial is None else initial)
    except RecursionError as exc:
        raise PathSumTooDeep(f"{len(tables)} steps, one stack frame each, ran past "
                             f"the recursion limit of {sys.getrecursionlimit()}") from exc


def _step_table(n: int, step: GateStep) -> tuple:
    """(step, mask, bits, assignment): ``bits[a]`` holds the index bits of
    target assignment a (targets[0] most significant), ``mask`` all of them,
    and ``assignment`` maps ``index & mask`` back to a."""
    bits = [0]
    for q in step.targets:
        bits = [b | bit for b in bits for bit in (0, 1 << (n - 1 - q))]
    return step, bits[-1], bits, {b: a for a, b in enumerate(bits)}


def _amp(tables, t: int, index: int, initial_fn: InitialAmplitude) -> complex:
    if t == 0:
        return complex(initial_fn(index))
    step, mask, bits, assignment = tables[t - 1]
    base = index & ~mask
    out = assignment[index & mask]
    gate = step.gate

    if gate.matrix is None:
        x = _amp(tables, t - 1, base, initial_fn)
        y = _amp(tables, t - 1, base | bits[1], initial_fn)
        with np.errstate(over="ignore", invalid="ignore"):
            pair = _PAIR_MAPS[gate.kind](x, y)
        if (not (cmath.isfinite(pair[0]) and cmath.isfinite(pair[1]))
                and cmath.isfinite(x) and cmath.isfinite(y)):
            raise AmplitudeOverflow(_overflow_message(gate.kind))
        return complex(pair[out])

    m = gate.matrix
    if step.mode is NormalizationMode.LOCAL:
        # the branch is one (2^k, 1) column, rescaled as the dense engine does
        parents = np.array([[_amp(tables, t - 1, base | b, initial_fn)] for b in bits])
        return complex(_rescale_branches(parents, m @ parents)[out, 0])

    total = 0.0j
    for coeff, b in zip(m[out], bits):
        if coeff == 0.0:
            continue
        total += coeff * _amp(tables, t - 1, base | b, initial_fn)
    return complex(total)
