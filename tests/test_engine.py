import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qvlab.engine import (AmplitudeOverflow, Circuit, Gate, GateStep,
                          IllConditionedGate, MeasurementRule, NonUnitaryInModeI,
                          PostselectStep, StateVector, ZeroBranch,
                          ZeroProbabilityBranch, apply_gate, apply_nonlinear,
                          basis_index, bell_pair, cnot, hadamard,
                          marginal_distribution, measure_distribution,
                          pauli_x, phase_twist_gate, phase_twist_map,
                          postselect, quadratic_gate, quadratic_map,
                          run_circuit, sample)
from qvlab.linalg import NonPositiveP

RNG = np.random.default_rng(101)
R2 = 1.0 / math.sqrt(2.0)


def random_state(n):
    amps = RNG.normal(size=2 ** n) + 1j * RNG.normal(size=2 ** n)
    return StateVector(amps)


def full_matrix(gate_matrix, targets, n):
    """Entry-wise kron oracle, independent of the reshape kernel.

    Row/column i agree on all non-target bits; the gate entry is indexed by
    the target bits with targets[0] most significant.
    """
    k = len(targets)
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for row in range(dim):
        for col in range(dim):
            if any((row >> (n - 1 - q)) & 1 != (col >> (n - 1 - q)) & 1
                   for q in rest):
                continue
            gr = gc = 0
            for pos, q in enumerate(targets):
                gr |= ((row >> (n - 1 - q)) & 1) << (k - 1 - pos)
                gc |= ((col >> (n - 1 - q)) & 1) << (k - 1 - pos)
            out[row, col] = gate_matrix[gr, gc]
    return out


def test_state_vector_rejects_zero():
    with pytest.raises(ValueError):
        StateVector(np.zeros(4))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]))  # not a power of two


def test_basis_index_conventions():
    assert basis_index(3, "101") == 5
    assert basis_index(3, 6) == 6
    assert basis_index(2, "10") == 2  # qubit 0 is the most significant bit
    with pytest.raises(ValueError):
        basis_index(2, "012")
    with pytest.raises(ValueError):
        basis_index(2, 4)


def test_hadamard_on_ground():
    state = apply_gate(StateVector.ground(1), hadamard(), [0])
    assert np.allclose(state.amplitudes, np.array([1, 1]) / math.sqrt(2))


def test_bell_preparation():
    state = bell_pair()
    want = np.zeros(4, dtype=complex)
    want[0] = want[3] = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, want, atol=1e-12)


@pytest.mark.parametrize("targets", [[0], [2], [0, 1], [2, 0], [1, 3]])
def test_apply_gate_matches_kron_oracle(targets):
    n = 4
    k = len(targets)
    m = unitary_group.rvs(2 ** k, random_state=5 + len(targets))
    state = random_state(n)
    got = apply_gate(state, Gate(m, name="rand"), targets)
    want = full_matrix(m, targets, n) @ state.amplitudes
    assert np.allclose(got.amplitudes, want, atol=1e-12)


def einsum_reference(amps, n, targets, gate=None, kind=None, mode="global"):
    """Gate action by einsum on reshape([2] * n), independent of the kernel.

    Local mode rescales each branch (an assignment of the other qubits) back
    to its prior 2-norm; the norms are taken on the state divided by its
    largest modulus, so no amplitude scale overflows them.
    """
    psi = amps.reshape([2] * n)
    if kind is not None:
        (q,) = targets
        x, y = np.take(psi, 0, axis=q), np.take(psi, 1, axis=q)
        if kind == "W":
            pair = (x, np.exp(1j * y) * y)
        else:
            pair = (x * x - np.conj(y) * np.conj(y), 2.0 * (x * y).real)
        return np.stack(pair, axis=q).reshape(-1)
    k = len(targets)
    g = gate.reshape([2] * (2 * k))
    rows, cols = list(range(n, n + k)), list(targets)
    rest = [ax if ax not in targets else rows[targets.index(ax)] for ax in range(n)]
    top = np.max(np.abs(psi))
    new = np.einsum(g, rows + cols, psi / top, list(range(n)), rest)
    if mode == "local":
        before = np.sqrt(np.sum(np.abs(psi / top) ** 2, axis=tuple(targets), keepdims=True))
        after = np.sqrt(np.sum(np.abs(new) ** 2, axis=tuple(targets), keepdims=True))
        new = new * np.where(after > 0, before / np.where(after > 0, after, 1.0), 1.0)
    return (new * top).reshape(-1)


def assert_rel_close(got, want, rtol=1e-12):
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("n,q", [(6, q) for q in range(6)] + [(9, q) for q in range(9)])
def test_kernel_matches_einsum_reference(n, q):
    """Every target of n = 6 and 9, so the amplitudes below the target (b =
    2^(n-q-1)) take 1, 2, 4, 8 and 16 up: each branch of the kernel's
    dispatch, in every mode, against one reference."""
    rng = np.random.default_rng(1000 * n + q)
    state = StateVector(rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
    unitary = unitary_group.rvs(2, random_state=q)
    invertible = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    diagonal = np.diag(np.exp(2j * np.pi * rng.random(2)) * rng.uniform(0.5, 2.0, 2))
    for m in (unitary, invertible, diagonal):
        gate = Gate(m, name="m")
        for mode in ("unitary", "global", "local"):
            if mode == "unitary" and gate.kind != "unitary":
                continue
            got = apply_gate(state, gate, [q], mode).amplitudes
            assert_rel_close(got, einsum_reference(state.amplitudes, n, [q], m, mode=mode))
        for scale in (1e-300, 1e-170, 1e160, 1e300):   # local mode at any scale
            scaled = StateVector(state.amplitudes * scale)
            got = apply_gate(scaled, gate, [q], "local").amplitudes
            assert_rel_close(got, einsum_reference(scaled.amplitudes, n, [q], m, mode="local"))
    for gate, kind in ((phase_twist_gate(), "W"), (quadratic_gate(), "G")):
        want = einsum_reference(state.amplitudes, n, [q], kind=kind)
        assert_rel_close(apply_gate(state, gate, [q], "global").amplitudes, want)
        assert_rel_close(apply_nonlinear(state, kind, q).amplitudes, want)
    u2 = unitary_group.rvs(4, random_state=q)
    for other in ((q + 1) % n, (q + n // 2) % n):
        for targets in ([q, other], [other, q]):
            for mode in ("unitary", "local"):
                got = apply_gate(state, Gate(u2, name="u2"), targets, mode).amplitudes
                assert_rel_close(got, einsum_reference(state.amplitudes, n, targets, u2,
                                                       mode=mode))


def controlled_matrix(bit, u):
    """block-diag(I, u) for bit 1, block-diag(u, I) for bit 0."""
    m = np.eye(4, dtype=complex)
    m[2 * bit:2 * bit + 2, 2 * bit:2 * bit + 2] = u
    return m


@pytest.mark.parametrize("n,c", [(6, c) for c in range(6)] + [(9, c) for c in range(9)]
                         + [(11, 0), (11, 1)])
def test_controlled_kernel_matches_einsum_reference(n, c):
    """A gate controlled on c against every target t of n = 6 and 9, both
    bits, unitary and global mode, at amplitude scales 1e-300, 1 and 1e300.
    Each layout's product runs: the control slice (by GEMM at n = 11, where
    the slice rows reach 512 amplitudes, by stacked matmul where the target
    has 16 or more amplitudes below it) and the full pass with the idle half
    put back."""
    rng = np.random.default_rng(100 * n + c)
    state = StateVector(rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)).normalized()
    haar = unitary_group.rvs(2, random_state=c)
    # singular values in [0.8, 1]: nothing overflows at 1e300
    invertible = haar @ np.diag(rng.uniform(0.8, 1.0, 2)) @ unitary_group.rvs(2, random_state=n)
    for t in (q for q in range(n) if q != c):
        for bit in (0, 1):
            for u, modes in ((haar, ("unitary", "global")), (invertible, ("global",))):
                m = controlled_matrix(bit, u)
                gate = Gate(m, name="cu")
                assert gate.controlled[0] == bit
                for mode in modes:
                    for scale in (1e-300, 1.0, 1e300):
                        amps = state.amplitudes * scale
                        got = apply_gate(StateVector(amps), gate, [c, t], mode).amplitudes
                        assert_rel_close(got, einsum_reference(amps, n, [c, t], m, mode=mode))


def test_controlled_invertible_gate_leaves_a_large_idle_half_alone():
    """A global-mode controlled gain of 1e10 on a register whose idle half
    holds 1e300: the result is finite and no product overflows (Tier-1 turns
    an overflow warning into an error), at every control/target pair."""
    n = 3
    m = controlled_matrix(1, np.diag([1e10, 1e10]))
    for c in range(n):
        for t in (q for q in range(n) if q != c):
            halves = np.full((2 ** c, 2, 2 ** (n - c - 1)), 1e300, dtype=complex)
            halves[:, 1] = 1e290
            amps = halves.reshape(-1)
            got = apply_gate(StateVector(amps), Gate(m), [c, t], "global").amplitudes
            assert_rel_close(got, einsum_reference(amps, n, [c, t], m))


def test_controlled_gates_are_classified_once():
    """CNOT and cH on either bit are controlled on targets[0]; every other
    4x4 matrix stays general.  All of them match the kron oracle."""
    h = hadamard().matrix
    x = pauli_x().matrix
    u, v = unitary_group.rvs(2, random_state=3), unitary_group.rvs(2, random_state=4)
    general = {
        "haar": unitary_group.rvs(4, random_state=5),
        "block-diag(U, V)": np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), v]]),
        "CNOT on targets[1]": np.eye(4)[[0, 3, 2, 1]],
    }
    controlled = {"CNOT": (cnot().matrix, 1, x), "cH(1)": (controlled_matrix(1, h), 1, h),
                  "cH(0)": (controlled_matrix(0, h), 0, h)}
    for name, (m, bit, want) in controlled.items():
        gate = Gate(m, name=name)
        assert gate.controlled[0] == bit, name
        assert np.array_equal(gate.controlled[1], want), name
    for name, m in general.items():
        assert Gate(m, name=name).controlled is None, name
    assert hadamard().controlled is None and phase_twist_gate().controlled is None
    state = random_state(4)
    for m in [m for m, _, _ in controlled.values()] + list(general.values()):
        for targets in ([0, 1], [1, 0], [3, 1], [0, 3], [2, 1]):
            got = apply_gate(state, Gate(m), targets).amplitudes
            assert np.allclose(got, full_matrix(m, targets, 4) @ state.amplitudes, atol=1e-12)
            circuit = Circuit(4).gate(Gate(m), targets)
            assert np.allclose(run_circuit(circuit, state).amplitudes, got, atol=1e-12)


def test_local_mode_controlled_gate_matches_reference():
    """Local mode keeps the general two-target path; a cH there still
    matches the reference, at every control/target pair."""
    n = 5
    rng = np.random.default_rng(55)
    state = StateVector(rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
    for bit in (0, 1):
        m = controlled_matrix(bit, hadamard().matrix)
        for c in range(n):
            for t in (q for q in range(n) if q != c):
                got = apply_gate(state, Gate(m), [c, t], "local").amplitudes
                assert_rel_close(got, einsum_reference(state.amplitudes, n, [c, t], m,
                                                       mode="local"))


def run_steps(circuit, state):
    """Every step on its own through apply_gate or postselect: the reference
    for run_circuit, which fuses runs of one-target and of controlled unitary
    steps."""
    for step in circuit.steps:
        if isinstance(step, PostselectStep):
            state = postselect(state, step.qubit, step.bit)
        else:
            state = apply_gate(state, step.gate, step.targets, step.mode)
    return state


def _add_random_run(rng, circuit, lo):
    """One-target unitary steps on a window of 1..4 qubits from ``lo`` on;
    qubits repeat, and the window need not start on a multiple of 4."""
    width = int(rng.integers(1, min(4, circuit.num_qubits - lo) + 1))
    for _ in range(int(rng.integers(1, 7))):
        q = lo + int(rng.integers(width))
        gate = (hadamard(), pauli_x(),
                Gate(unitary_group.rvs(2, random_state=rng), name="u"))[rng.integers(3)]
        circuit.gate(gate, [q], ("unitary", "global")[rng.integers(2)])


def _random_controlled_gate(rng, bit):
    """CNOT (bit 1 only), cH or a Haar U, controlled on targets[0] == bit."""
    us = [hadamard().matrix, unitary_group.rvs(2, random_state=rng)]
    if bit == 1:
        us.append(pauli_x().matrix)
    return Gate(controlled_matrix(bit, us[rng.integers(len(us))]), name="cu")


def _add_controlled_run(rng, circuit, lo):
    """Controlled unitary steps that share one control and bit, on targets
    in a window of 1..4 qubits from ``lo`` on; the control lies above the
    window, below it or inside it.  Returns the control and bit."""
    n = circuit.num_qubits
    window = range(lo, lo + int(rng.integers(1, min(4, n - lo) + 1)))
    control, bit = (lo + 1 + int(rng.integers(n - 1))) % n, int(rng.integers(2))
    targets = [q for q in window if q != control]
    for _ in range(int(rng.integers(1, 7))):
        circuit.gate(_random_controlled_gate(rng, bit), [control, int(rng.choice(targets))],
                     ("unitary", "global")[rng.integers(2)])
    return control, bit


def _add_barrier(rng, circuit, kind, q, control):
    """A step that ends a fused run, on qubit q; ``control`` is the (qubit,
    bit) of the run before it, or None."""
    n = circuit.num_qubits
    other = (q + 1 + int(rng.integers(n - 1))) % n
    haar = Gate(unitary_group.rvs(2, random_state=rng), name="u")
    # singular values in [0.8, 1]: a chain of these neither overflows nor goes subnormal
    invertible = haar.matrix @ np.diag(rng.uniform(0.8, 1.0, 2))
    if kind == "local":   # a unitary gate, but local mode is never fused
        circuit.gate(haar, [q], "local")
    elif kind == "invertible":
        circuit.gate(Gate(invertible, name="m"), [q], "global")
    elif kind == "nonlinear":
        circuit.gate(phase_twist_gate(), [q], "global")
    elif kind == "multi-target":
        circuit.gate(Gate(unitary_group.rvs(4, random_state=rng), name="u2"), [q, other])
    elif kind == "postselect":   # a Haar rotation first leaves no empty branch
        circuit.gate(haar, [q]).postselect(q, int(rng.integers(2)))
    elif kind == "other-bit":   # the run's control on its other bit
        c, bit = control if control is not None else (other, 0)
        target = q if q != c else other
        circuit.gate(_random_controlled_gate(rng, 1 - bit), [c, target])
    elif kind == "other-control":   # the run's bit on another control
        bit = control[1] if control is not None else 1
        c = other if control is None or other != control[0] else (other + 1) % n
        target = q if q != c else (c + 1) % n
        circuit.gate(_random_controlled_gate(rng, bit), [c, target])


@pytest.mark.parametrize("n", [6, 9])
@pytest.mark.parametrize("barrier", ["none", "local", "invertible", "nonlinear",
                                     "multi-target", "postselect", "other-bit",
                                     "other-control"])
def test_fused_runs_match_step_by_step(n, barrier):
    """From every window start a random run of each kind, one-target steps
    and controlled steps that share a control and a bit, so the amplitudes
    below the window (b) take 1 up to 2^(n-1); each run is then ended by one
    barrier kind (or by the window limit or the next run alone), at
    amplitude scales 1e-300..1e300.  A step on another control or bit ends a
    controlled run."""
    rng = np.random.default_rng([n, len(barrier)])
    circuit = Circuit(n)
    for lo in list(range(n)) * 2:
        for add_run in (_add_random_run, _add_controlled_run):
            control = add_run(rng, circuit, lo)
            if barrier != "none":
                _add_barrier(rng, circuit, barrier, int(rng.integers(n)), control)
    state = StateVector(rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)).normalized()
    # W exponentiates its amplitudes' imaginary parts, so it overflows at 1e300
    scales = (1.0, 1e-300) if barrier == "nonlinear" else (1.0, 1e-300, 1e300)
    for scale in scales:
        scaled = StateVector(state.amplitudes * scale)
        assert_rel_close(run_circuit(circuit, scaled).amplitudes,
                         run_steps(circuit, scaled).amplitudes)


def test_fusion_keeps_step_checks_and_fuses_unitaries_only():
    # an invertible gate in a unitary-mode step inside a run is still refused
    circuit = (Circuit(3).gate(hadamard(), [0]).gate(Gate(np.diag([1.0, 0.5])), [1])
               .gate(hadamard(), [2]))
    with pytest.raises(NonUnitaryInModeI, match="mode 'unitary' rejects kind 'invertible'"):
        run_circuit(circuit)
    # a step appended by hand is checked as apply_gate checks it
    circuit = Circuit(3).gate(hadamard(), [0])
    circuit.steps.append(GateStep(hadamard(), (3,)))
    with pytest.raises(ValueError, match="qubit 3 is out of range for 3 qubits"):
        run_circuit(circuit)
    # two gates of 1e160 take amplitudes of 1e-300 to 1e20; their product,
    # 1e320, would overflow, so global-mode invertible gates are not fused
    big = Gate(np.diag([1e160, 1e160]))
    circuit = Circuit(2).gate(big, [0], "global").gate(big, [1], "global")
    initial = StateVector(np.full(4, 1e-300))
    got = run_circuit(circuit, initial).amplitudes
    assert np.all(np.isfinite(got))
    assert_rel_close(got, run_steps(circuit, initial).amplitudes)


def test_cnot_targets_order():
    # control is targets[0]; |10> flips the second qubit
    state = StateVector.from_basis(2, "10")
    got = apply_gate(state, cnot(), [0, 1])
    assert np.allclose(got.amplitudes, StateVector.from_basis(2, "11").amplitudes)
    # reversed targets: control is qubit 1, which is 0 here, so nothing moves
    got = apply_gate(state, cnot(), [1, 0])
    assert np.allclose(got.amplitudes, state.amplitudes)


def test_mode_i_rejects_non_unitary():
    g = Gate(np.diag([1.0, 0.5]), name="damp")
    with pytest.raises(NonUnitaryInModeI):
        apply_gate(StateVector.ground(1), g, [0], "unitary")


def test_condition_guard():
    with pytest.raises(IllConditionedGate):
        Gate(np.diag([1.0, 1e-15]))
    g = Gate(np.diag([1.0, 1e-15]), condition_override=True)
    out = apply_gate(StateVector(np.array([1.0, 1.0])), g, [0], "global")
    assert out.amplitudes[1] == pytest.approx(1e-15)


def test_overflowing_gram_makes_a_gate_invertible():
    # m^H m of a 1e160 gate overflows; the gate is classified, not warned about
    g = Gate([[1e160, 0], [0, 1e160]])
    assert g.kind == "invertible"
    with pytest.raises(NonUnitaryInModeI):
        apply_gate(StateVector.ground(1), g, [0], "unitary")
    out = apply_gate(StateVector(np.array([1.0, -1.0])), g, [0], "global")
    assert np.array_equal(out.amplitudes, [1e160, -1e160])


def test_global_mode_worked_example():
    """Linear action with no renormalization until measurement."""
    a, b, c, d = 0.1, 0.7, -0.3, 0.64
    q, r, s, t = 2.0, 0.25, -1.0, 0.5
    state = StateVector(np.array([a, b, c, d]))
    gate = Gate(np.array([[q, r], [s, t]]), name="m")
    out = apply_gate(state, gate, [1], "global")
    want = np.array([q * a + r * b, s * a + t * b, q * c + r * d, s * c + t * d])
    assert np.allclose(out.amplitudes, want, atol=1e-12)
    dist = measure_distribution(out, 2.0)
    assert np.allclose(dist, want ** 2 / np.sum(want ** 2), atol=1e-12)


def test_local_mode_worked_example():
    """Each branch keeps its prior 2-norm weight after the gate."""
    a, b, c, d = 0.1, 0.7, -0.3, 0.64
    q, r, s, t = 2.0, 0.25, -1.0, 0.5
    state = StateVector(np.array([a, b, c, d]))
    gate = Gate(np.array([[q, r], [s, t]]), name="m")
    out = apply_gate(state, gate, [1], "local")
    top = np.array([q * a + r * b, s * a + t * b])
    bot = np.array([q * c + r * d, s * c + t * d])
    want = np.concatenate([
        math.sqrt(a * a + b * b) / np.linalg.norm(top) * top,
        math.sqrt(c * c + d * d) / np.linalg.norm(bot) * bot,
    ])
    assert np.allclose(out.amplitudes, want, atol=1e-12)


def test_local_mode_conserves_branch_weights():
    state = random_state(3)
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    out = apply_gate(state, Gate(m, name="m"), [1], "local")
    before = np.abs(state.amplitudes.reshape(2, 2, 2)) ** 2
    after = np.abs(out.amplitudes.reshape(2, 2, 2)) ** 2
    # branches are assignments of qubits 0 and 2
    assert np.allclose(before.sum(axis=1), after.sum(axis=1), atol=1e-12)


def test_local_mode_zero_branch():
    state = StateVector(np.array([1.0, 0.0, 0.0, 1.0]))
    annihilate = Gate(np.array([[0.0, 1.0], [0.0, 0.0]]), condition_override=True)
    with pytest.raises(ZeroBranch):
        apply_gate(state, annihilate, [1], "local")


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
def test_local_mode_at_any_scale(scale):
    # the branch norms are scale-safe: they neither underflow to an empty
    # branch nor overflow to NaN
    state = StateVector(np.ones(4) * scale)
    out = apply_gate(state, Gate(np.diag([2.0, 0.5]), name="d"), [1], "local")
    unit = np.array([2.0, 0.5, 2.0, 0.5]) * math.sqrt(2.0 / 4.25)   # 1.372, .343
    assert np.allclose(out.amplitudes / scale, unit, rtol=1e-12, atol=0.0)


def test_local_equals_global_on_unentangled_register():
    """On a product state, local and global agree up to a positive scalar."""
    left = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    right = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    state = StateVector(np.kron(right.reshape(4), left))  # qubit 2 is 'left'
    m = RNG.normal(size=(2, 2))
    g = Gate(m, name="m")
    loc = apply_gate(state, g, [2], "local").amplitudes
    glo = apply_gate(state, g, [2], "global").amplitudes
    ratio = loc[np.argmax(np.abs(glo))] / glo[np.argmax(np.abs(glo))]
    assert ratio.real > 0 and abs(ratio.imag) < 1e-12
    assert np.allclose(loc, ratio * glo, atol=1e-10)


def test_measure_distribution_examples():
    assert np.allclose(measure_distribution(StateVector(np.ones(4) / 2), 3.0),
                       np.full(4, 0.25))
    assert np.allclose(measure_distribution(StateVector(np.array([1.0, 0.0])), 0.7),
                       [1.0, 0.0])
    assert np.allclose(measure_distribution(StateVector(np.array([2.0, 1.0])), 1.0),
                       [2 / 3, 1 / 3])
    # 0.5^1100 underflows; the rule itself must not
    assert measure_distribution(StateVector(np.array([0.5, 0.5])), 1100).tolist() == [0.5, 0.5]


def test_measurement_rule_validation():
    with pytest.raises(NonPositiveP):
        MeasurementRule(0.0)
    with pytest.raises(NonPositiveP):
        MeasurementRule(-2.0)
    with pytest.raises(NonPositiveP):
        MeasurementRule(math.inf)  # the max-norm flag belongs to p_norm, not here


@given(p=st.floats(min_value=1e-3, max_value=1e4),
       log10_scale=st.floats(min_value=-300, max_value=300),
       phase=st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=100, deadline=None)
def test_scale_invariance(p, log10_scale, phase):
    c = 10.0 ** log10_scale * complex(math.cos(phase), math.sin(phase))
    state = StateVector(np.array([0.3, -0.2 + 0.9j, 0.0, 1.1]))
    scaled = StateVector(c * state.amplitudes)
    dist = measure_distribution(scaled, p)
    assert np.all(np.isfinite(dist)) and np.all(dist >= 0.0)
    assert abs(dist.sum() - 1.0) <= 1e-12
    assert np.allclose(measure_distribution(state, p), dist, atol=1e-10)


def test_marginal_distribution_matches_manual_sum():
    state = random_state(3)
    rule = MeasurementRule(4.0)
    full = measure_distribution(state, rule)
    got = marginal_distribution(state, [0, 2], rule)
    want = np.zeros(4)
    for idx in range(8):
        b0, b2 = (idx >> 2) & 1, idx & 1
        want[2 * b0 + b2] += full[idx]
    assert np.allclose(got, want, atol=1e-12)
    # an out-of-range, negative or repeated qubit is named in the error
    for qubits in ([5], [-1], [0, 0]):
        with pytest.raises(ValueError, match=rf"qubit {qubits[0]} "):
            marginal_distribution(bell_pair(), qubits)


def test_postselect_examples():
    state = bell_pair()
    out = postselect(state, 0, 1)
    assert np.allclose(out.amplitudes, StateVector.from_basis(2, "11").amplitudes)

    state = StateVector(np.array([0.0, 0.0, 3 / 5, 4 / 5]))
    out = postselect(state, 1, 1)
    assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    with pytest.raises(ZeroProbabilityBranch):
        postselect(StateVector.ground(1), 0, 1)
    for bit in (-1, 2):   # -1 would index the bit-1 branch
        with pytest.raises(ValueError):
            postselect(state, 0, bit)
    # a circuit checks its postselect step when the step is added
    with pytest.raises(ValueError, match="qubit 7"):
        Circuit(2).postselect(7, 1)
    with pytest.raises(ValueError, match="got 2"):
        Circuit(2).postselect(0, 2)

    # a weight-1/2 branch at extreme scales: the norm neither underflows
    # nor overflows
    for scale in (1e-170, 1e160):
        out = postselect(StateVector(np.ones(4) * scale), 0, 1)
        assert np.allclose(out.amplitudes, [0, 0, R2, R2], rtol=1e-15, atol=0.0)


def test_sample_deterministic_and_calibrated():
    state = StateVector(np.array([2.0, 1.0, 1.0, 0.0]))
    assert sample(state, 2.0, seed=9) == sample(state, 2.0, seed=9)
    assert sample(StateVector(np.array([1.0, 0.0])), 2.0, seed=4) == 0
    draws = sample(state, 1.0, seed=12, size=100_000)
    freq = np.bincount(draws, minlength=4) / 100_000
    dist = measure_distribution(state, 1.0)
    sigma = np.sqrt(dist * (1 - dist) / 100_000)
    assert np.all(np.abs(freq - dist) <= 3 * sigma + 1e-12)


def test_phase_twist_map_values():
    assert phase_twist_map(1.0, 0.0) == (1.0, 0.0)
    x, y = phase_twist_map(0.5, 2.0)
    assert x == 0.5
    assert y == pytest.approx(np.exp(2j) * 2.0)
    # elementwise on arrays, as apply_nonlinear and the path sum use it
    xs, ys = np.array([0.5, 1j]), np.array([2.0, -0.3 + 0.1j])
    _, wy = phase_twist_map(xs, ys)
    assert np.allclose(wy, [phase_twist_map(a, b)[1] for a, b in zip(xs, ys)],
                       rtol=1e-15, atol=0.0)


def test_quadratic_map_values():
    x, y = quadratic_map(0.0, 1.0)
    assert (x, y) == pytest.approx((-1.0, 0.0))
    # 2-norm squares under the map, for complex inputs too
    v = np.array([0.3 - 0.4j, 0.1 + 0.86j])
    gx, gy = quadratic_map(v[0], v[1])
    assert math.hypot(abs(gx), abs(gy)) == pytest.approx(
        np.linalg.norm(v) ** 2, rel=1e-12)


def test_apply_nonlinear_branchwise():
    state = random_state(3)
    out = apply_nonlinear(state, "G", 2)
    cols = state.amplitudes.reshape(4, 2)
    for row in range(4):
        gx, gy = quadratic_map(cols[row, 0], cols[row, 1])
        assert out.amplitudes[2 * row] == pytest.approx(gx, rel=1e-12)
        assert out.amplitudes[2 * row + 1] == pytest.approx(gy, rel=1e-12)


def test_nonlinear_overflow_is_typed():
    # G squares amplitudes: at 1e160 its output leaves the finite range
    big = StateVector(np.array([1.0, 1.0]) * 1e160)
    with pytest.raises(AmplitudeOverflow, match="G"):
        apply_gate(big, quadratic_gate(), [0], "global")
    # W exponentiates -Im(y): e^800 overflows
    with pytest.raises(AmplitudeOverflow, match="W"):
        apply_gate(StateVector(np.array([0.0, -800j])), phase_twist_gate(), [0], "global")
    # ... and e^-800 underflows to the all-zero state, which is refused too
    with pytest.raises(ValueError, match="all-zero"):
        apply_gate(StateVector(np.array([0.0, 800j])), phase_twist_gate(), [0], "global")
    # below the overflow threshold G stays finite
    out = apply_gate(StateVector(np.array([1.0, 1.0]) * 1e150), quadratic_gate(), [0], "global")
    assert out.amplitudes[0] == 0.0
    assert out.amplitudes[1] == pytest.approx(2e300, rel=1e-15)


def test_nonlinear_gate_mode_restrictions():
    from qvlab.engine import phase_twist_gate
    g = phase_twist_gate()
    with pytest.raises(NonUnitaryInModeI):
        apply_gate(StateVector.ground(1), g, [0], "unitary")
    out = apply_gate(StateVector(np.array([1.0, 2.0])), g, [0], "global")
    assert out.amplitudes[1] == pytest.approx(np.exp(2j) * 2.0)


def test_circuit_json_round_trip():
    circuit = Circuit(2)
    circuit.gate(hadamard(), [0])
    circuit.gate(cnot(), [0, 1])
    circuit.gate(Gate(np.diag([1.0, 0.5]), name="damp"), [1], "global")
    circuit.postselect(0, 1)
    text = circuit.to_json()
    again = Circuit.from_json(text)
    assert again.to_json() == text
    data = json.loads(text)
    assert data["qubits"] == 2
    assert data["steps"][3] == {"postselect": {"qubit": 0, "bit": 1}}


def test_circuit_json_rejects_unknown_gate():
    with pytest.raises(ValueError):
        Circuit.from_json('{"qubits": 1, "steps": [{"gate": "Q", "targets": [0]}]}')


def test_run_circuit_empty_returns_initial():
    state = random_state(2)
    assert np.allclose(run_circuit(Circuit(2), state).amplitudes, state.amplitudes)


def test_duplicate_targets_rejected():
    with pytest.raises(ValueError):
        apply_gate(StateVector.ground(2), cnot(), [1, 1])
    # a nonlinear gate takes exactly one target, checked like a matrix gate's
    # both when it is applied and when it is added to a circuit
    from qvlab.engine import phase_twist_gate
    for targets in ([0, 1], []):
        with pytest.raises(ValueError):
            apply_gate(StateVector.ground(2), phase_twist_gate(), targets, "global")
        with pytest.raises(ValueError):
            Circuit(2).gate(phase_twist_gate(), targets, "global")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_unitary_preserves_two_norm(seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = StateVector(amps)
    u = unitary_group.rvs(4, random_state=seed)
    out = apply_gate(state, Gate(u), [0, 2])
    assert out.norm() == pytest.approx(state.norm(), rel=1e-12)
