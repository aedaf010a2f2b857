#!/usr/bin/env python3
"""Diff qvlab's CLI output between this tree and another one.

    python3 tools/cli_diff.py PARENT_TREE

Writes a pinned set of input files to a temporary directory, then runs a
pinned set of ``qvlab.cli.main`` invocations under this tree's ``src`` and
under PARENT_TREE's ``src``: one child process per tree, every invocation in
that process.  The set is the README's nine examples, each usage-error
path (exit 2), ``--help`` (exit 0), and two-target gates on ascending
adjacent, reversed and non-adjacent targets of 6 qubits (rows of more than
16 amplitudes, stacked matmul) and of 3 qubits (one GEMM).  It prints the
invocations whose stdout is byte-identical, each one whose stdout differs
with its largest absolute float difference, and each change in stderr or
exit code; an exception that escapes ``main`` counts as exit 1.  Exits 0
when everything is identical, 1 otherwise.  Standard library only.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

R = 1.0 / math.sqrt(2.0)
BELL = {"qubits": 2, "steps": [{"gate": "H", "targets": [0]},
                               {"gate": "CNOT", "targets": [0, 1]}]}
# a well-conditioned two-target matrix, not unitary, so its steps run in global or local mode
PAIR = [[0.9, [0.1, -0.3], 0.2, [0, 0.4]], [[0.3, 0.2], -0.7, [0.1, 0.1], 0.5],
        [0.1, [0, -0.6], 0.8, [-0.2, 0.3]], [[-0.4, 0.1], 0.2, [0.3, -0.1], 0.6]]


def pair_circuit(n: int, targets: list[int], mode: str) -> dict:
    """H on every qubit, a one-target tilt on the first and last, then PAIR on ``targets``."""
    tilt = [[0.6, [0, 0.8]], [[0.3, 0.1], -0.7]]
    steps = [{"gate": "H", "targets": [q]} for q in range(n)]
    steps += [{"gate": "custom", "matrix": tilt, "targets": [q], "mode": "global"}
              for q in (0, n - 1)]
    return {"qubits": n, "steps": steps + [
        {"gate": "custom", "matrix": PAIR, "targets": targets, "mode": mode}]}


PAIRS = {f"pair{n}_{name}.json": pair_circuit(n, targets, mode)
         for n, name, targets, mode in [(6, "adjacent", [1, 2], "global"),
                                        (6, "reversed", [2, 1], "global"),
                                        (6, "spread", [1, 4], "global"),
                                        (3, "adjacent", [1, 2], "global"),
                                        (3, "reversed", [2, 1], "global"),
                                        (3, "spread", [0, 2], "global"),
                                        (6, "adjacent_local", [1, 2], "local"),
                                        (3, "spread_local", [0, 2], "local")]}
FILES = {
    "bell.json": BELL,
    "h.json": {"matrix": [[R, R], [R, -R]]},
    "flip.json": {"matrix": [[1, 0], [0, -1]]},
    "f.txt": "3\n01000001\n",
    "bell_float_size.json": {**BELL, "qubits": 2.0},
    "bell_half_size.json": {**BELL, "qubits": 2.5},
    "non_numeric.json": [["a", "b"], ["c", "d"]],
    "ragged.json": [[1, 0], [0]],
    "long_pair.json": [[1, 0], [0, [1, 2, 3]]],
    "negative_size.json": {"qubits": -1, "steps": []},
    "boolean_entry.json": [[True, 0], [0, 1]],
    "keyless_state.json": {"amps": [1, 0]},
    **PAIRS,
}
INVOCATIONS = [
    # the README's nine examples
    "simulate --circuit bell.json --p 4",
    "check-norm --matrix h.json --p 4 --mode formal",
    "postbqp --truth-table f.txt --mode exact",
    "or-solve --truth-table f.txt",
    "gadget --m 5 --p 4",
    "discriminate --d 3 --p 4 --trials 100000",
    "signal --scenario ii --epsilon 0.3",
    "sqrt --matrix flip.json --embed",
    "island-scan --n 3 --p 4 --matrices 10000",
    # argparse's exits
    "no-such-command",
    "discriminate",
    "or-solve --truth-table f.txt --p 3",
    "--help",
    "sqrt --help",
    # input files
    "simulate --circuit bell_float_size.json",
    "simulate --circuit bell_half_size.json",
    "check-norm --matrix non_numeric.json --p 3",
    "check-norm --matrix ragged.json --p 3",
    "check-norm --matrix long_pair.json --p 3",
    "simulate --circuit negative_size.json",
    "check-norm --matrix boolean_entry.json --p 3",
    "gadget --m 2 --state keyless_state.json",
    # two-target gates through the kernel's view of their targets
    *(f"simulate --circuit {name} --p 3" for name in PAIRS),
]


def collect(src: str) -> list[dict]:
    """Run every invocation in this process against qvlab from ``src``."""
    sys.path.insert(0, src)
    from qvlab import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"cli_diff: imported qvlab from {cli.__file__}, not {src}")
    results = []
    for line in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(line.split())
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:   # the console script prints a traceback and exits 1
                code = 1
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
        results.append({"argv": line, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    return results


def run_tree(tree: Path, workdir: str) -> list[dict]:
    proc = subprocess.run([sys.executable, __file__, "--collect", str(tree / "src")],
                          cwd=workdir, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"cli_diff: the run under {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def largest_float_difference(a, b) -> float | None:
    """Max |a - b| over the numbers of two JSON trees of one shape, else None."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return abs(a - b)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [largest_float_difference(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [largest_float_difference(x, y) for x, y in zip(a, b)]
    else:
        return 0.0 if a == b else None
    return None if None in parts else max(parts, default=0.0)


def describe(before: str, after: str) -> str:
    try:
        diff = largest_float_difference(json.loads(before), json.loads(after))
    except json.JSONDecodeError:
        return f"{len(before)} -> {len(after)} bytes, not both JSON"
    return "shapes differ" if diff is None else f"largest absolute float difference {diff:.3g}"


def changes(old: dict, new: dict) -> list[str]:
    """One line per stream of one invocation that differs between the trees."""
    lines = []
    if old["stdout"] != new["stdout"]:
        lines.append(f"stdout: {describe(old['stdout'], new['stdout'])}")
    if old["stderr"] != new["stderr"]:
        lines.append(f"stderr: {old['stderr']!r} -> {new['stderr']!r}")
    if old["exit"] != new["exit"]:
        lines.append(f"exit code: {old['exit']} -> {new['exit']}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--collect":
        json.dump(collect(argv[1]), sys.stdout)
        return 0
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    parent = Path(argv[0]).resolve()
    here = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in FILES.items():
            (Path(workdir) / name).write_text(data if isinstance(data, str) else json.dumps(data))
        before, after = run_tree(parent, workdir), run_tree(here, workdir)
    diffs = [(old["argv"], changes(old, new)) for old, new in zip(before, after)]
    same = [argv_ for argv_, lines in diffs if not lines]
    print(f"cli_diff: {len(INVOCATIONS)} invocations, {parent} -> {here}")
    print(f"identical stdout, stderr and exit code ({len(same)}):")
    for argv_ in same:
        print(f"  {argv_}")
    print(f"changed ({len(diffs) - len(same)}):")
    for argv_, lines in diffs:
        if lines:
            print(f"  {argv_}")
            for line in lines:
                print(f"    {line}")
    return 1 if len(same) < len(diffs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
