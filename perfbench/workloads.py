"""The four workloads: their op cycles, the calls into qvlab and the oracles.

A workload is a fixed cycle of ops that repeats with fresh seeded inputs.
Each op has a timed ``run`` that only calls qvlab's public API, one span per
call, and an untimed ``check`` that judges the outputs with code of its own.
A failed check is counted, never raised.  Ops whose input lies in a region
where the seed library is known to be wrong carry a ``defect`` tag; see
NOTES.md for the regions and their causes.
"""
from __future__ import annotations

import json
import math
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qvlab as qv
from qvlab import cli as qcli

import inputs as gen

RESIDUAL_TOL = 1e-9
AMPLITUDE_TOL = 1e-10
FACTOR_RTOL = 1e-9


@dataclass
class Op:
    kind: str
    inp: dict
    defect: str | None = None


class Raised:
    """An exception a qvlab call raised, kept as that call's output."""

    def __init__(self, exc: Exception):
        self.exc = exc

    @property
    def typed(self) -> bool:
        return type(self.exc).__module__.startswith("qvlab")

    def __str__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


class Context:
    """Per-run state shared by the ops of one workload process."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.counters: dict[str, float] = defaultdict(float)
        self.first_bytes: dict[tuple, bytes] = {}

    def call(self, span: str, n, fn, *args, **kwargs):
        with self.tracer.span(span, **({} if n is None else {"n": n})):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:   # counted by the op's check, never raised
                return Raised(exc)

    def count(self, name: str, value=1):
        self.counters[name] += value

    def peak(self, name: str, value):
        self.counters[name] = max(self.counters[name], value)


def _failed(x) -> bool:
    return isinstance(x, Raised)


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a))))


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


# ================================================================== circuits

_NAMED = {"H": qv.hadamard, "X": qv.pauli_x, "CNOT": qv.cnot,
          "W": qv.phase_twist_gate, "G": qv.quadratic_gate}


def _qv_circuit(n: int, steps) -> qv.Circuit:
    circuit = qv.Circuit(n)
    for name, m, targets, mode in steps:
        if name == "PS":
            circuit.postselect(targets[0], mode)
        else:
            gate = _NAMED[name]() if m is None else qv.Gate(m)
            circuit.gate(gate, targets, mode)
    return circuit


def reference_state(n: int, steps) -> np.ndarray:
    """Independent dense simulation of a gate-only step list (qubit 0 = MSB)."""
    psi = np.zeros([2] * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for name, m, targets, mode in steps:
        k = len(targets)
        moved = np.moveaxis(psi, targets, list(range(k)))
        cols = moved.reshape(2 ** k, -1)
        if name == "W":
            new = np.stack([cols[0], np.exp(1j * cols[1]) * cols[1]])
        elif name == "G":
            x, y = cols
            new = np.stack([x * x - np.conj(y) ** 2, 2.0 * (x * y).real + 0j])
        else:
            matrix = {"H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
                      "X": np.array([[0, 1], [1, 0]]),
                      "CNOT": np.eye(4)[[0, 1, 3, 2]]}.get(name, m)
            new = matrix @ cols
            if mode == "local":
                before = np.linalg.norm(cols, axis=0)
                after = np.linalg.norm(new, axis=0)
                new = new * np.where(before > 0, before / np.where(after > 0, after, 1), 1)
        psi = np.moveaxis(new.reshape(moved.shape), list(range(k)), targets)
    return psi.reshape(-1)


def _measure(state, p, qubits, seed):
    return (qv.measure_distribution(state, p),
            qv.marginal_distribution(state, qubits, p),
            qv.sample(state, p, seed=seed, size=256))


def _dense_op(rng, n, steps, p, kind, **extra):
    marginal = sorted(int(q) for q in rng.choice(n, size=3, replace=False))
    inp = {"n": n, "steps": steps, "circuit": _qv_circuit(n, steps), "p": p,
           "marginal": marginal, "sample_seed": int(rng.integers(2 ** 31)), **extra}
    return Op(kind, inp, "measure-underflow" if p >= 1024 else None)


def circuits_cycle(seed: int, c: int) -> list[Op]:
    """Seven wide dense ops (n=20, 19, 18, 18, 17, 17, 16), a dense-vs-path-sum
    cross-check at n=8 and two path-sum-only ops at 24..30 qubits.  The eight
    measured ops take the six p values in a rotation that comes full circle
    every six cycles.  The two n=17 ops sit in the middle of the cost order,
    so the median op falls inside them: a numpy-bound op, steadier between
    runs than the pure-Python path sums."""
    rng = gen.rng_for(seed, 0, c)
    ps = [gen.P_MEASURE[(i + c + seed) % 6] for i in range(8)]
    ops = [_dense_op(rng, n, gen.dense_circuit(rng, n), ps[i], "dense")
           for i, n in enumerate((20, 19, 18, 18, 17, 17, 16))]
    n = 8
    ops.append(_dense_op(rng, n, gen.crosscheck_circuit(rng, n), ps[7], "crosscheck",
                         xs=[int(x) for x in rng.integers(0, 2 ** n, size=2)]))
    for _ in range(2):
        ops.append(_pathsum_op(rng, int(rng.integers(24, 31))))
    return ops


def _pathsum_op(rng, n):
    steps, active = gen.pathsum_circuit(rng, n)
    bits = rng.integers(0, 2, size=(2, len(active)))
    xs = [sum(int(b) << (n - 1 - q) for b, q in zip(row, active)) for row in bits]
    return Op("pathsum", {"n": n, "steps": steps, "active": active, "bits": bits,
                          "circuit": _qv_circuit(n, steps), "xs": xs})


def circuits_warmup(seed: int) -> list[Op]:
    rng = gen.rng_for(seed, 0, 10 ** 6)
    return [_dense_op(rng, 16, gen.dense_circuit(rng, 16), 4.0, "dense"),
            _dense_op(rng, 8, gen.crosscheck_circuit(rng, 8), 4.0, "crosscheck", xs=[1]),
            _pathsum_op(rng, 24)]


def run_dense(ctx, inp):
    n = inp["n"]
    out = {"state": ctx.call("engine.run_circuit", n, qv.run_circuit, inp["circuit"])}
    if not _failed(out["state"]):
        out["meas"] = ctx.call("engine.measure", n, _measure, out["state"], inp["p"],
                               inp["marginal"], inp["sample_seed"])
        for x in inp.get("xs", ()):
            out.setdefault("amps", []).append(
                ctx.call("pathsum", n, qv.amplitude_recursive, inp["circuit"], x))
    return out


def _engine_counts(ctx, inp):
    gates = sum(1 for s in inp["steps"] if s[0] != "PS")
    ctx.count("engine.gates", gates)
    ctx.count("engine.amps_touched", gates * 2 ** inp["n"])
    ctx.count("engine.gate_bytes_computed", 32 * gates * 2 ** inp["n"])


def _check_distributions(ctx, inp, meas) -> list[str]:
    if _failed(meas):
        return [f"measurement raised {meas}"]
    dist, marg, samples = meas
    n = inp["n"]
    if not (_finite(dist) and _finite(marg)):
        ctx.count("engine.nonfinite_distributions")
        return [f"non-finite distribution at p={inp['p']}"]
    expect = np.asarray(dist).reshape([2] * n).sum(
        axis=tuple(q for q in range(n) if q not in inp["marginal"])).reshape(-1)
    if (abs(float(np.sum(dist)) - 1.0) > 1e-9 or np.min(dist) < 0
            or np.max(np.abs(np.asarray(marg) - expect)) > 1e-9):
        return ["distribution does not sum to 1 or marginal disagrees"]
    if np.min(samples) < 0 or np.max(samples) >= 2 ** n:
        return ["sample outside the register"]
    return []


def check_dense(ctx, inp, out) -> list[str]:
    state = out["state"]
    if _failed(state):
        return [f"run_circuit raised {state}"]
    _engine_counts(ctx, inp)
    amps = state.amplitudes
    fails = []
    if not _finite(amps):
        fails.append("non-finite amplitudes")
    elif inp.get("xs") is None and abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        fails.append("postselected state is not unit norm")
    fails += _check_distributions(ctx, inp, out["meas"])
    if "xs" in inp:
        fails += _check_amplitudes(ctx, inp, out["amps"], [amps[x] for x in inp["xs"]],
                                   _max_abs(amps))
    return fails


def _check_amplitudes(ctx, inp, got, want, scale) -> list[str]:
    ctx.count("pathsum.amplitudes", len(got))
    ctx.count("pathsum.paths_computed", len(got) * gen.paths(inp["steps"]))
    if ctx.tracer.enabled:
        tracemalloc.start()
        qv.amplitude_recursive(inp["circuit"], inp["xs"][0])
        ctx.peak("pathsum.peak_traced_bytes", tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    bad = sum(1 for g, w in zip(got, want)
              if _failed(g) or not abs(g - w) <= AMPLITUDE_TOL * max(scale, 1e-300))
    if bad:
        ctx.count("pathsum.mismatches", bad)
        return [f"{bad} path-sum amplitudes disagree with the dense reference"]
    return []


def run_pathsum(ctx, inp):
    return {"amps": [ctx.call("pathsum", inp["n"], qv.amplitude_recursive,
                              inp["circuit"], x) for x in inp["xs"]]}


def check_pathsum(ctx, inp, out) -> list[str]:
    active = inp["active"]
    k = len(active)
    local = [(name, m, [active.index(t) for t in targets], mode)
             for name, m, targets, mode in inp["steps"]]
    ref = reference_state(k, local)
    want = [ref[int("".join(str(int(b)) for b in row), 2)] for row in inp["bits"]]
    return _check_amplitudes(ctx, inp, out["amps"], want, _max_abs(ref))


# ================================================================= decisions

def _bool_fn(table) -> qv.BooleanFunction:
    return qv.BooleanFunction(int(math.log2(len(table))), table)


def _decision(kind, rng, n, less, **extra):
    table = gen.truth_table(rng, n, less)
    return Op(kind, {"kind": kind, "n": n, "table": table, "f": _bool_fn(table), **extra})


def decisions_cycle(seed: int, c: int) -> list[Op]:
    """43 gadgeted decisions (three times all six p at n=10 on both sides of
    the threshold, and n=3..9 once each with p and side rotating), one exact
    and one sampled decision, one OR solve and one count-state weight with n
    rotating, and gadget certificates at m=8, 16 and 18, plus m=20 in every
    fourth cycle.  The n=10 decisions are the bulk, and few other ops are
    cheaper, so the median op falls well inside them; the m=20 certificate
    (a 21-qubit register, about 1 s) is rare enough that the tail order
    statistic falls inside the m=18 certificates."""
    rng = gen.rng_for(seed, 1, c)
    ops = []
    for _ in range(3):
        for p in gen.P_DECIDE:
            for less in (True, False):
                ops.append(_pnorm_op(rng, 10, p, less))
    for n in range(3, 10):
        ops.append(_pnorm_op(rng, n, gen.P_DECIDE[(n + c + seed) % 6], (n + c) % 2 == 0))
    ops.append(_decision("exact", rng, (6, 10, 14, 18)[c % 4], c % 2 == 0))
    ops.append(_decision("sampled", rng, (18, 14, 10, 6)[c % 4], c % 2 == 1,
                         seed=int(rng.integers(2 ** 31))))
    ops.append(_decision("or", rng, (8, 12)[c % 2], c % 4 < 2))
    ops.append(_decision("count_weight", rng, (11, 8)[c % 2], c % 4 >= 2))
    for j, m in enumerate((8, 16, 18, 20)):
        if m < 20 or c % 4 == 0:
            ops.append(_gadget_op(rng, m, gen.P_DECIDE[(j + c + seed) % 6]))
    return ops


def _pnorm_op(rng, n, p, less):
    op = _decision("pnorm", rng, n, less, p=p)
    if p < 2 and gen.weight_log2(p, n) > 1023:   # for p > 2 the weights only underflow
        op.defect = "gadget-weight-overflow"
    return op


def _gadget_op(rng, m, p):
    return Op("gadget", {"m": m, "p": p, "state": gen.qubit_state(rng),
                         "bit": int(rng.integers(2))})


def decisions_warmup(seed: int) -> list[Op]:
    rng = gen.rng_for(seed, 1, 10 ** 6)
    return [_pnorm_op(rng, 8, 4.0, True), _decision("exact", rng, 8, True),
            _decision("sampled", rng, 8, False, seed=1), _decision("or", rng, 8, True),
            _decision("count_weight", rng, 8, True), _gadget_op(rng, 12, 3.0)]


def run_decision(ctx, inp):
    f, n = inp["f"], inp["n"]
    return {
        "pnorm": lambda: ctx.call("postbqp.decide_pnorm", n, qv.postbqp_decide_pnorm, f, inp["p"]),
        "exact": lambda: ctx.call("postbqp.decide_exact", n, qv.postbqp_decide, f, "exact"),
        "sampled": lambda: ctx.call("postbqp.decide_sampled", n, qv.postbqp_decide, f,
                                    "sampled", inp["seed"], 2000),
        "or": lambda: ctx.call("postbqp.or_solve", n, qv.or_solve_nonunitary, f),
        "count_weight": lambda: ctx.call("postbqp.count_weight", n, qv.count_state_weight, f),
    }[inp["kind"]]()


def check_decision(ctx, inp, out) -> list[str]:
    if _failed(out):
        return [f"{inp['kind']} raised {out}"]
    n = inp["n"]
    s = int(np.sum(inp["table"]))
    kind = inp["kind"]
    if kind == "or":
        ok = out.value == bool(s) and 0.0 <= out.prob_one <= 1.0 + 1e-12
        return [] if ok else [f"OR verdict {out.value} for s={s}"]
    if kind == "count_weight":
        closed = ((2 ** n - s) ** 2 + s ** 2) / 4.0 ** n
        return [] if abs(out - closed) <= 1e-9 * closed else [f"weight {out} != {closed}"]
    fails = []
    if kind == "pnorm":
        m, gadgets = out.details["ancillas_per_gadget"], out.details["gadgets"]
        ctx.count("postbqp.ancillas", m * gadgets)
        ctx.peak("postbqp.weight_log2_max", gadgets * m * abs(1.0 - inp["p"] / 2.0))
    if not _finite([v for _, v in out.per_i]):
        fails.append("non-finite per_i evidence")
    want = "LessThanHalf" if s < 2 ** (n - 1) else "GreaterThanHalf"
    if out.verdict != want:
        ctx.count("postbqp.wrong_verdicts")
        fails.append(f"verdict {out.verdict} for s={s}, n={n}")
    return fails


def run_gadget(ctx, inp):
    state = qv.StateVector(inp["state"])
    return ctx.call("postbqp.gadget", inp["m"] + 1, qv.postselection_gadget,
                    state, 0, inp["p"], inp["m"], inp["bit"])


def check_gadget(ctx, inp, out) -> list[str]:
    if _failed(out):
        return [f"gadget raised {out}"]
    grown, rep = out
    ctx.count("postbqp.ancillas", inp["m"])
    closed = 2.0 ** (inp["m"] * (1.0 - inp["p"] / 2.0))
    measured = rep.measured_factor
    if (grown.num_qubits != inp["m"] + 1 or measured is None
            or not abs(measured - closed) <= FACTOR_RTOL * closed):
        ctx.count("postbqp.certificate_misses")
        return [f"gadget factor {measured} != 2^(m(1-p/2)) = {closed}"]
    return []


# ===================================================================== roots

# Three draws at each n=3..8 and six at n=2 put the median op in the middle
# of the n=5 draws.  The tail is one draw at 16, two at 32 and one at 64, so
# the tail order statistic falls among the n=32 draws.
ROOT_SIZES = (2, 2, 2) + (2, 3, 4, 5, 6, 7, 8) * 3 + (16, 32, 32, 64)


def _roots_op(rng, n):
    return Op("roots", {"n": n, "u": gen.haar_orthogonal(n, rng), "w": gen.haar_unitary(n, rng),
                        "q": qv.Quaternion(*rng.standard_normal(4))},
              "embed-dimension-cap" if n + 1 > 64 else None)


def roots_cycle(seed: int, c: int) -> list[Op]:
    """Haar draws at n=2..8, then the tail at 16, 32 and 64."""
    rng = gen.rng_for(seed, 2, c)
    return [_roots_op(rng, n) for n in ROOT_SIZES]


def roots_warmup(seed: int) -> list[Op]:
    rng = gen.rng_for(seed, 2, 10 ** 6)
    return [_roots_op(rng, 8), _roots_op(rng, 16)]


def run_roots(ctx, inp):
    n, u = inp["n"], inp["u"]
    return {
        "decompose": ctx.call("linalg.decompose", n, qv.rotation_block_decompose, u),
        "real": ctx.call("roots.real_sqrt", n, qv.real_orthogonal_sqrt, u),
        "embed": ctx.call("roots.embed_sqrt", n, qv.embed_sqrt, u),
        "k3": ctx.call("roots.kth_root", n, qv.kth_root_scan, u, 3),
        "unitary": ctx.call("roots.unitary_sqrt", n, qv.unitary_sqrt, inp["w"]),
        "quaternion": ctx.call("quaternion.sqrt", None, qv.quaternion_sqrt, inp["q"]),
    }


def _block_matrix(blocks) -> np.ndarray:
    out = np.zeros((sum(2 if b.kind == "rotation" else 1 for b in blocks),) * 2)
    at = 0
    for b in blocks:
        if b.kind == "rotation":
            c, s = math.cos(b.angle), math.sin(b.angle)
            out[at:at + 2, at:at + 2] = [[c, -s], [s, c]]
            at += 2
        else:
            out[at, at] = 1.0 if b.kind == "+1" else -1.0
            at += 1
    return out


def _hamilton(a, b):
    return (a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)


def check_roots(ctx, inp, out) -> list[str]:
    n, u = inp["n"], inp["u"]
    det = 1 if np.linalg.det(u) > 0 else -1
    ctx.count("roots.det_negative", det < 0)
    fails = []
    for name, value in out.items():
        if _failed(value):
            ctx.count("roots.typed_errors", value.typed)
            fails.append(f"{name} raised {value}")

    def residual(name, r):
        ctx.peak("roots.residual_max", r)
        if not r <= RESIDUAL_TOL:
            fails.append(f"{name} residual {r:.3e}")

    if not _failed(out["decompose"]):
        q, blocks = out["decompose"]
        ctx.count("linalg.blocks.rotation", sum(b.kind == "rotation" for b in blocks))
        ctx.count("linalg.blocks.pm1", sum(b.kind != "rotation" for b in blocks))
        residual("decompose", _max_abs(q @ _block_matrix(blocks) @ q.T - u))
        residual("decompose q", _max_abs(q.T @ q - np.eye(n)))
        if (-1) ** sum(b.kind == "-1" for b in blocks) != det:
            fails.append("decomposition determinant disagrees with det(u)")
    real = out["real"]
    if not _failed(real):
        if det < 0:
            ctx.count("roots.obstructions", not real.exists)
            if real.exists:
                fails.append("square root claimed for det(u) = -1")
        elif not real.exists:
            fails.append("no square root reported for det(u) = +1")
        else:
            residual("real_sqrt", _max_abs(real.root @ real.root - u))
    if not _failed(out["embed"]):
        v = out["embed"].root
        target = np.zeros((n + 1, n + 1))
        target[:n, :n], target[n, n] = u, det
        if v is None or np.iscomplexobj(v):
            fails.append("embedded root missing or complex")
        else:
            residual("embed_sqrt", _max_abs(v @ v - target))
    if not _failed(out["k3"]):
        v = out["k3"].root
        if v is None:
            fails.append("cube root missing")
        else:
            residual("kth_root", _max_abs(v @ v @ v - u))
    if not _failed(out["unitary"]):
        v, w = out["unitary"].root, inp["w"]
        residual("unitary_sqrt", _max_abs(v @ v - w))
        residual("unitary_sqrt unitarity", _max_abs(v.conj().T @ v - np.eye(n)))
    if not _failed(out["quaternion"]):
        r, q = out["quaternion"], inp["q"]
        diff = np.subtract(_hamilton(r, r), (q.w, q.x, q.y, q.z))
        residual("quaternion_sqrt", _max_abs(diff) / max(1.0, q.norm()))
    return fails


# ======================================================================= cli

def _argv(sub, *args):
    return [sub, *[str(a) for a in args]]


def cli_setup(seed: int, workdir: Path) -> list[dict]:
    """Write the pinned input files and return the cycle's invocations."""
    rng = gen.rng_for(seed, 3, 0)
    w = lambda name, data: gen.write_json(workdir / name, data)
    c16 = w("c16.json", gen.circuit_json(16, gen.dense_circuit(rng, 16)))
    c12 = w("c12.json", gen.circuit_json(12, gen.dense_circuit(rng, 12)))
    signed = w("signed_perm.json", gen.matrix_rows(gen.monomial(rng, 4, phases=False).real))
    phased = w("phased_perm.json", [[[z.real, z.imag] for z in row]
                                    for row in gen.monomial(rng, 3, phases=True)])
    haar3 = w("haar3.json", gen.matrix_rows(gen.haar_orthogonal(3, rng)))
    neg = w("o_neg.json", gen.matrix_rows(gen.orthogonal_with_det(rng, 5, -1)))
    pos = w("o_pos.json", gen.matrix_rows(gen.orthogonal_with_det(rng, 6, +1)))
    tables = {name: gen.write_table(workdir / f"{name}.txt", table) for name, table in (
        ("f_less", gen.truth_table(rng, 9, True)), ("f_greater", gen.truth_table(rng, 9, False)),
        ("f_zero", np.zeros(2 ** 8, dtype=np.uint8)))}
    d = int(rng.choice([5, 7, 9, 11]))
    p_disc = float(rng.choice([8.0, 16.0, 32.0]))
    eps = float(rng.uniform(0.05, 0.9))
    gadget_p = float(rng.choice(gen.P_DECIDE))
    s = int(rng.integers(2 ** 31))
    inv = [
        (_argv("simulate", "--circuit", c16, "--p", 4, "--trials", 1000, "--seed", s), 0,
         {"qubits": 16, "trials": 1000}),
        (_argv("simulate", "--circuit", c12, "--p", 3), 0, {"qubits": 12}),
        (_argv("check-norm", "--matrix", signed, "--p", 4, "--mode", "formal"), 0,
         {"preserves": True}),
        (_argv("check-norm", "--matrix", phased, "--p", 3, "--mode", "numeric", "--seed", s), 0,
         {"preserves": True}),
        (_argv("check-norm", "--matrix", haar3, "--p", 3, "--mode", "numeric", "--seed", s), 1,
         {"preserves": False}),
        (_argv("postbqp", "--truth-table", tables["f_less"]), 0, {"verdict": "LessThanHalf"}),
        (_argv("postbqp", "--truth-table", tables["f_greater"], "--mode", "sampled",
               "--trials", 2000, "--seed", s), 0, {"verdict": "GreaterThanHalf"}),
        (_argv("or-solve", "--truth-table", tables["f_less"]), 0, {"value": True}),
        (_argv("or-solve", "--truth-table", tables["f_zero"]), 0, {"value": False}),
        (_argv("gadget", "--m", 12, "--p", gadget_p, "--tol", 1e-9), 0,
         {"factor": 2.0 ** (12 * (1 - gadget_p / 2))}),
        (_argv("gadget", "--m", 14, "--p", 4, "--bit", 0, "--tol", 1e-9), 0,
         {"factor": 2.0 ** (14 * (1 - 4 / 2))}),
        (_argv("discriminate", "--d", d, "--p", p_disc), 0, {"error": _disc_error(d, p_disc)}),
        (_argv("discriminate", "--d", 101, "--p", 1100), 0, {"error": _disc_error(101, 1100)}),
        (_argv("signal", "--scenario", "ii", "--epsilon", eps), 0,
         {"tvd": (1 - eps ** 2) / (1 + eps ** 2)}),
        (_argv("signal", "--scenario", "i", "--p", 4, "--d", 4), 0, {}),
        (_argv("signal", "--scenario", "multi", "--d", 3, "--p", 64), 0,
         {"bits": math.log2(3)}),
        (_argv("sqrt", "--matrix", neg), 1, {"exists": False}),
        (_argv("sqrt", "--matrix", neg, "--embed"), 0, {"exists": True}),
        (_argv("sqrt", "--matrix", pos, "--k", 3), 0, {"exists": True}),
        (_argv("island-scan", "--n", 3, "--p", 4, "--matrices", 2000, "--seed", s), 0, {}),
    ]
    return [{"argv": argv, "exit": code, "expect": expect, "out": str(workdir / f"out{i}.json")}
            for i, (argv, code, expect) in enumerate(inv)]


def _disc_error(d: int, p: float) -> float:
    """Closed-form decoder error q / (1 + q), q = sum_{t=1}^{d-1} |cos(pi t/d)|^p."""
    q = sum(abs(math.cos(math.pi * t / d)) ** p for t in range(1, d))
    return q / (1.0 + q)


def _cli_op(spec) -> Op:
    argv = spec["argv"]
    defect = None
    if argv[0] == "discriminate" and (2.0 / int(argv[2])) ** (float(argv[4]) / 2) == 0.0:
        defect = "discrimination-underflow"   # every |w_k|^p underflows at the seed
    return Op("cli", spec, defect)


def cli_cycle(specs) -> list[Op]:
    return [_cli_op(spec) for spec in specs]


def cli_warmup(specs) -> list[Op]:
    """Every subcommand once, with the 12-qubit circuit standing in for the 16."""
    return [_cli_op(spec) for spec in specs[1:]]


def run_cli(ctx, inp):
    return ctx.call(f"cli.{inp['argv'][0]}", None, qcli.main, inp["argv"] + ["--out", inp["out"]])


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def check_cli(ctx, inp, code) -> list[str]:
    if _failed(code):
        ctx.count("cli.exit_mismatches")
        return [f"cli raised {code}"]
    out = Path(inp["out"])
    raw = out.read_bytes() if code != 2 else b""
    out.unlink(missing_ok=True)   # the next run of this invocation must write it anew
    ctx.count("report.bytes_written", len(raw))
    key = tuple(inp["argv"])
    fails = []
    if code != inp["exit"]:
        ctx.count("cli.exit_mismatches")
        fails.append(f"exit {code}, expected {inp['exit']}")
    if ctx.first_bytes.setdefault(key, raw) != raw:
        ctx.count("cli.nondeterministic")
        fails.append("report differs from the first run of the same invocation")
    try:
        doc = json.loads(raw, parse_constant=_reject_constant)
    except ValueError as exc:
        ctx.count("cli.invalid_json")
        return fails + [f"report is not strict JSON: {exc}"]
    return fails + _check_report(inp, doc["report"])


def _close(a, b, tol=1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_report(inp, body) -> list[str]:
    sub, expect = inp["argv"][0], inp["expect"]
    ok = True
    if sub == "simulate":
        dist = body["distribution"]
        ok = len(dist) == 2 ** expect["qubits"] and _close(sum(dist), 1.0)
        if "trials" in expect:
            ok = ok and sum(body["sample_counts"]) == expect["trials"]
    elif sub == "check-norm":
        ok = body["preserves"] is expect["preserves"]
    elif sub == "postbqp":
        ok = body["verdict"] == expect["verdict"]
    elif sub == "or-solve":
        ok = body["value"] is expect["value"]
    elif sub == "gadget":
        got = body["measured_factor"]
        ok = got is not None and abs(got - expect["factor"]) <= FACTOR_RTOL * expect["factor"]
    elif sub == "discriminate":
        ok = _close(body["error"], expect["error"])
    elif sub == "signal" and expect:
        key = next(iter(expect))
        ok = _close(body[key], expect[key])
    elif sub == "sqrt":
        ok = body["exists"] is expect["exists"] and (
            not body["exists"] or body["residual"] <= RESIDUAL_TOL)
    return [] if ok else [f"{sub} report disagrees with the oracle"]


# ================================================================= registry

RUNNERS = {
    "dense": (run_dense, check_dense),
    "crosscheck": (run_dense, check_dense),
    "pathsum": (run_pathsum, check_pathsum),
    "pnorm": (run_decision, check_decision),
    "exact": (run_decision, check_decision),
    "sampled": (run_decision, check_decision),
    "or": (run_decision, check_decision),
    "count_weight": (run_decision, check_decision),
    "gadget": (run_gadget, check_gadget),
    "roots": (run_roots, check_roots),
    "cli": (run_cli, check_cli),
}


def label(op: Op) -> str:
    """Op kind and size, for the per-op latency record."""
    inp = op.inp
    if op.kind == "cli":
        return "cli." + inp["argv"][0]
    size = inp.get("n", inp.get("m"))
    return f"{op.kind}@{size}" + (f",p={inp['p']}" if "p" in inp else "")


def make(name: str, seed: int, workdir: Path):
    """(cycle(c) -> ops, warmup() -> ops) for one workload and seed."""
    if name == "cli":
        specs = cli_setup(seed, workdir)
        return (lambda c: cli_cycle(specs)), (lambda: cli_warmup(specs))
    cycle, warmup = {"circuits": (circuits_cycle, circuits_warmup),
                     "decisions": (decisions_cycle, decisions_warmup),
                     "roots": (roots_cycle, roots_warmup)}[name]
    return (lambda c: cycle(seed, c)), (lambda: warmup(seed))
