"""Depth-first amplitude evaluation without materializing state vectors.

``amplitude_recursive`` computes one amplitude after t circuit steps as a
function of parent amplitudes at step t-1, recursing down to the initial
state.  Each gate step has constant fan-in (at most 2^arity parents; zero
matrix entries are pruned), so memory grows linearly with circuit depth and
never with register width.  Time is exponential in the number of branching
gates; the point of this evaluator is the memory profile, not speed.

Local-mode steps are supported: the branch rescaling factor depends only on
the same 2^arity parents as the linear action, and it is computed by the
dense engine's own scale-safe rescale (``engine._rescale_branches``) on that
one branch.  Nonlinear steps use the engine's pair maps (``engine._PAIR_MAPS``),
so the two evaluators share one formula for each; both raise
``AmplitudeOverflow`` where a map sends finite amplitudes to inf or NaN.
Postselection steps are not supported: their renormalization divides by a
weight aggregated over the whole register, which has no constant fan-in
expression.  Circuits containing postselection steps are rejected.
"""
from __future__ import annotations

import cmath
from typing import Callable

import numpy as np

from .engine import (_PAIR_MAPS, AmplitudeOverflow, Circuit, GateStep,
                     NormalizationMode, PostselectStep, StateVector,
                     _overflow_message, _rescale_branches, basis_index)

InitialAmplitude = Callable[[int], complex]


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
    for step in steps:
        if isinstance(step, PostselectStep):
            raise ValueError(
                "postselection steps renormalize globally and are not supported "
                "by the recursive evaluator")

    if initial is None:
        initial_fn: InitialAmplitude = ground_amplitude
    elif isinstance(initial, StateVector):
        if initial.num_qubits != n:
            raise ValueError("initial state size does not match circuit")
        amps = initial.amplitudes
        initial_fn = lambda idx: complex(amps[idx])
    else:
        initial_fn = initial

    index = basis_index(n, x)
    return _amp(steps, len(steps), index, n, initial_fn)


def _amp(steps, t: int, index: int, n: int, initial_fn: InitialAmplitude) -> complex:
    if t == 0:
        return complex(initial_fn(index))
    step: GateStep = steps[t - 1]
    gate = step.gate
    targets = step.targets
    k = len(targets)
    shifts = [n - 1 - q for q in targets]
    out_bits = 0
    for pos, shift in enumerate(shifts):
        out_bits |= ((index >> shift) & 1) << (k - 1 - pos)
    base = index
    for shift in shifts:
        base &= ~(1 << shift)

    def parent_index(assignment: int) -> int:
        idx = base
        for pos, shift in enumerate(shifts):
            if (assignment >> (k - 1 - pos)) & 1:
                idx |= 1 << shift
        return idx

    if gate.matrix is None:
        x = _amp(steps, t - 1, parent_index(0), n, initial_fn)
        y = _amp(steps, t - 1, parent_index(1), n, initial_fn)
        with np.errstate(over="ignore", invalid="ignore"):
            amp = complex(_PAIR_MAPS[gate.kind](x, y)[out_bits])
        if not cmath.isfinite(amp) and cmath.isfinite(x) and cmath.isfinite(y):
            raise AmplitudeOverflow(_overflow_message(gate.kind))
        return amp

    m = gate.matrix
    if step.mode is NormalizationMode.LOCAL:
        # the branch is one (2^k, 1) column, rescaled as the dense engine does
        parents = np.array([[_amp(steps, t - 1, parent_index(a), n, initial_fn)]
                            for a in range(2 ** k)])
        return complex(_rescale_branches(parents, m @ parents)[out_bits, 0])

    total = 0.0j
    row = m[out_bits]
    for a in range(2 ** k):
        coeff = row[a]
        if coeff == 0.0:
            continue
        total += coeff * _amp(steps, t - 1, parent_index(a), n, initial_fn)
    return complex(total)
