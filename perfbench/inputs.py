"""Seeded input generators owned by the benchmark.

Nothing here imports qvlab or the test helpers, so neither a library change
nor a test edit can change what the workloads feed the program.  Every
generator takes a ``numpy.random.Generator``; ``rng_for(seed, *key)`` derives
one per (workload, cycle, slot) so a seed fixes every input.

Circuits are neutral step lists: ``(name, matrix, targets, mode)``, where name
is one of H, X, CNOT, W, G, U1, U2, INV, DIAG or PS (postselect; ``mode``
then holds the bit).  Sizes and the count of each step kind are fixed per
recipe; the seed picks targets and matrices (and the order of the dense
bodies, whose cost does not depend on it), so an op's cost barely depends on
the seed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

P_MEASURE = (1.0, 3.0, 4.0, 8.0, 64.0, 1024.0)
P_DECIDE = (1.0, 1.9, 1.99, 3.0, 4.0, 6.0)

# Fan-in of one recursive path-sum step, by step name (local mode always
# evaluates all 2^k parents, which these counts already equal).
FAN_IN = {"H": 2, "U1": 2, "INV": 2, "W": 2, "G": 2, "U2": 4,
          "X": 1, "CNOT": 1, "DIAG": 1}


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


# ------------------------------------------------------------------ matrices

def haar_unitary(n: int, rng) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_orthogonal(n: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def invertible_1q(rng) -> np.ndarray:
    """Dense 2x2 with condition number well under 1e3."""
    return (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.3 + np.eye(2) * 1.5


def diagonal_1q(rng) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * rng.random(2)) * rng.uniform(0.5, 2.0, 2))


# ------------------------------------------------------------------ circuits

def _step(name: str, rng, qubits) -> list[tuple]:
    pick = lambda k: [int(q) for q in rng.choice(qubits, size=k, replace=False)]
    if name in ("H", "X", "W", "G"):
        return [(name, None, pick(1), "global" if name in "WG" else "unitary")]
    if name == "CNOT":
        return [(name, None, pick(2), "unitary")]
    if name == "U1":
        return [(name, haar_unitary(2, rng), pick(1), "unitary")]
    if name == "U2":
        return [(name, haar_unitary(4, rng), pick(2), "unitary")]
    if name in ("INV-global", "INV-local"):
        return [("INV", invertible_1q(rng), pick(1), name[4:])]
    if name == "DIAG":
        return [(name, diagonal_1q(rng), pick(1), "global")]
    if name == "PS":
        # A Haar rotation right before the projection leaves no zero branch.
        q = pick(1)
        return [("U1", haar_unitary(2, rng), q, "unitary"), ("PS", None, q, int(rng.integers(2)))]
    raise ValueError(name)


def _steps(rng, names, qubits) -> list[tuple]:
    return [step for name in names for step in _step(name, rng, qubits)]


def _shuffled(rng, counts: dict, qubits) -> list[tuple]:
    names = [name for name, k in counts.items() for _ in range(k)]
    return _steps(rng, [names[i] for i in rng.permutation(len(names))], qubits)


DENSE_BODY = {"CNOT": 2, "X": 1, "U1": 2, "U2": 1, "INV-global": 1,
              "INV-local": 1, "W": 1, "G": 1, "PS": 1}
# A path-sum step costs per evaluation by its kind and is evaluated once per
# path through the steps after it, so these step orders are fixed: only the
# targets and matrices come from the seed, and every op costs the same.
CROSS_BODY = ("U1", "X", "CNOT", "INV-local", "DIAG", "G", "CNOT")
PATHSUM_STEPS = ("H", "X", "U1", "CNOT", "W", "DIAG", "H", "CNOT", "INV-global",
                 "X", "U2", "CNOT", "G", "X", "INV-local", "DIAG", "U1", "H")
PATHSUM_ACTIVE = 10


def dense_circuit(rng, n: int) -> list[tuple]:
    """Spread state: H on every qubit, a shuffled mixed body, then a final
    Haar rotation and postselection that renormalises to unit 2-norm."""
    qubits = range(n)
    steps = [("H", None, [q], "unitary") for q in qubits]
    steps += _shuffled(rng, DENSE_BODY, qubits)
    steps += _step("PS", rng, qubits)
    return steps


def crosscheck_circuit(rng, n: int) -> list[tuple]:
    """Gate-only (no postselection), so the path sum can evaluate it."""
    steps = [("H", None, [q], "unitary") for q in range(n)]
    return steps + _steps(rng, CROSS_BODY, range(n))


def pathsum_circuit(rng, n: int) -> tuple[list[tuple], list[int]]:
    """Wide register whose gates touch only PATHSUM_ACTIVE qubits."""
    active = sorted(int(q) for q in rng.choice(n, size=PATHSUM_ACTIVE, replace=False))
    return _steps(rng, PATHSUM_STEPS, active), active


def paths(steps) -> int:
    """Product of per-step fan-ins: the leaf count of the recursive path sum."""
    return math.prod(FAN_IN[s[0]] for s in steps)


def circuit_json(n: int, steps) -> dict:
    """The qvlab circuit-file format, written without qvlab."""
    out = []
    for name, m, targets, mode in steps:
        if name == "PS":
            out.append({"postselect": {"qubit": targets[0], "bit": mode}})
        elif m is None:
            out.append({"gate": name, "targets": targets, "mode": mode})
        else:
            out.append({"gate": "custom", "targets": targets, "mode": mode,
                        "matrix": [[[z.real, z.imag] for z in row] for row in m.astype(complex)]})
    return {"qubits": n, "steps": out}


# ---------------------------------------------------------------- decisions

def truth_table(rng, n: int, less: bool) -> np.ndarray:
    """2^n bits with s < 2^(n-1) when ``less``, else s > 2^(n-1)."""
    half = 2 ** (n - 1)
    s = int(rng.integers(1, half)) if less else int(rng.integers(half + 1, 2 ** n + 1))
    table = np.zeros(2 ** n, dtype=np.uint8)
    table[rng.choice(2 ** n, size=s, replace=False)] = 1
    return table


def gadget_ancillas(p: float, n: int) -> int:
    """The decision's ancilla count ceil(10 p n / |2 - p|), restated here."""
    return math.ceil(10.0 * p * n / abs(2.0 - p))


def weight_log2(p: float, n: int) -> float:
    """abs(log2) of the extreme gadget weight product, (n+1) m |1 - p/2|.

    The product grows for p < 2 and shrinks for p > 2."""
    return (n + 1) * gadget_ancillas(p, n) * abs(1.0 - p / 2.0)


def qubit_state(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------- cli

def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def write_table(path: Path, table) -> str:
    path.write_text(f"{int(math.log2(len(table)))}\n{''.join(str(int(b)) for b in table)}\n")
    return str(path)


def matrix_rows(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in m]


def monomial(rng, n: int, phases: bool) -> np.ndarray:
    """Permutation times unit phases (or signs): a p-norm preserver for every p."""
    m = np.zeros((n, n), dtype=complex)
    units = np.exp(2j * np.pi * rng.random(n)) if phases else rng.choice([-1.0, 1.0], n)
    m[rng.permutation(n), np.arange(n)] = units
    return m


def orthogonal_with_det(rng, n: int, det: int) -> np.ndarray:
    q = haar_orthogonal(n, rng)
    if np.sign(np.linalg.det(q)) != det:
        q[:, 0] = -q[:, 0]
    return q
