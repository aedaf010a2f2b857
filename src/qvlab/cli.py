"""Command-line front end: one subcommand per suite, reproducible reports.

Every invocation prints a single JSON document embedding the subcommand,
the parsed configuration, the seed, the tool version, and a pass flag
(``simulate --format csv`` prints a CSV table of the state instead).
Identical arguments and seed produce byte-identical output; there are no
timestamps.  Reports are strict JSON, written by ``report.json_text``.
Each subcommand's handler returns its report body and pass flag; ``main``
alone writes the report and picks the exit code: 0 success/pass, 1 a check
failed (details and witnesses stay in the report), 2 usage or input errors,
including a report value that is NaN or infinite (``report.NonFiniteReport``).
"""
from __future__ import annotations

import argparse
import csv
import importlib.metadata
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, normlaws, postbqp, protocols, roots
from .report import _jsonable, json_text, json_to_matrix, json_to_vector

try:
    VERSION = importlib.metadata.version("qvlab")
except importlib.metadata.PackageNotFoundError:   # running from a checkout
    VERSION = "0.0.0+local"

# ValueError covers the domain errors (NonPositiveP, PEqualsTwo,
# PaddingViolation, NotUnitary, ...), which all subclass it.
_USAGE_ERRORS = (
    ValueError, KeyError, OSError, json.JSONDecodeError,
    engine.ZeroProbabilityBranch, engine.ZeroBranch, engine.AmplitudeOverflow,
)


def _load_matrix(path: str) -> np.ndarray:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data["matrix"]
    return json_to_matrix(data)


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"cmd", "func", "out", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args: argparse.Namespace, body: dict, passed: bool) -> None:
    envelope = {
        "subcommand": args.cmd,
        "config": _config_dict(args),
        "seed": getattr(args, "seed", None),
        "version": VERSION,
        "pass": bool(passed),
        "report": body,
    }
    _write(args, json_text(_jsonable(envelope)) + "\n")


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> tuple[dict | None, bool]:
    circuit = engine.Circuit.from_json(Path(args.circuit).read_text())
    state = engine.run_circuit(circuit)
    dist = engine.measure_distribution(state, args.p)
    body = {
        "qubits": circuit.num_qubits,
        "amplitudes": state.amplitudes,
        "distribution": dist,
        "p": args.p,
    }
    if args.trials:
        outcomes = engine.sample(state, args.p, size=args.trials, seed=args.seed)
        body["sample_counts"] = np.bincount(outcomes, minlength=dist.size)
    if args.format == "csv":
        header = ["basis", "re", "im", "probability"]
        amps = state.amplitudes
        columns = [(format(i, f"0{circuit.num_qubits}b") for i in range(dist.size)),
                   *(map(float.__repr__, x.tolist()) for x in (amps.real, amps.imag, dist))]
        if args.trials:
            header.append("count")
            columns.append(body["sample_counts"].tolist())
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([header, *zip(*columns)])
        _write(args, text.getvalue())
        return None, True
    return body, True


# -------------------------------------------------------------- check-norm

def _cmd_check_norm(args) -> tuple[dict, bool]:
    # the formal expansion reads neither flag, so it takes neither
    numeric_only = args.nonnegative or args.convention != "modulus"
    if args.mode == "formal" and numeric_only:
        raise ValueError("--mode formal takes neither --nonnegative nor --convention split")
    matrix = _load_matrix(args.matrix)
    mode = args.mode
    if mode == "auto":
        formal = not numeric_only and normlaws.formal_even_applies(matrix, args.p, args.tol)
        mode = "formal" if formal else "numeric"
    if mode == "formal":
        verdict = normlaws.preserves_pnorm_formal_even(matrix, args.p, tol=args.tol)
    else:
        verdict = normlaws.preserves_pnorm_numeric(
            matrix, args.p, trials=args.trials, seed=args.seed,
            tol=args.tol, convention=args.convention,
            nonnegative=args.nonnegative)
    gd = normlaws.is_generalized_diagonal(matrix)
    body = {
        "mode": mode,
        "preserves": verdict.preserves,
        "residual": verdict.residual,
        "witness": verdict.witness_vector,
        "generalized_diagonal": gd.is_generalized_diagonal,
        "permutation": gd.permutation,
        "details": verdict.details,
    }
    return body, verdict.preserves


# ----------------------------------------------------------------- postbqp

def _cmd_postbqp(args) -> tuple[dict, bool]:
    f = postbqp.BooleanFunction.from_file(args.truth_table)
    decision = postbqp.postbqp_decide(f, mode=args.mode, seed=args.seed,
                                      trials=args.trials)
    return {**decision.to_dict(), "n": f.num_inputs, "ones_count": f.ones_count}, True


def _cmd_or_solve(args) -> tuple[dict, bool]:
    f = postbqp.BooleanFunction.from_file(args.truth_table)
    return {**postbqp.or_solve_nonunitary(f).to_dict(), "n": f.num_inputs}, True


# ------------------------------------------------------------------ gadget

def _cmd_gadget(args) -> tuple[dict, bool]:
    if args.state:
        data = json.loads(Path(args.state).read_text())
        if isinstance(data, dict):
            data = data["amplitudes"]
        state = engine.StateVector(json_to_vector(data))
    else:
        state = engine.StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    grown, rep = postbqp.postselection_gadget(state, args.qubit, args.p,
                                              args.m, bit=args.bit)
    marg = engine.marginal_distribution(grown, [args.qubit],
                                        engine.MeasurementRule(args.p))
    body = {**rep.to_dict(), "qubit_marginal": marg, "grown_qubits": grown.num_qubits}
    # compared as log2 exponents: the linear factors underflow at large p
    ok = (rep.measured_log2 is not None
          and abs(rep.measured_log2 - rep.closed_form_log2)
          <= args.tol * max(1.0, abs(rep.closed_form_log2)))
    return body, ok


# ------------------------------------------------------------- discriminate

def _cmd_discriminate(args) -> tuple[dict, bool]:
    setup = protocols.build_discrimination_setup(args.d, args.p)
    error = protocols.discrimination_error(setup, args.j)
    body = {
        "d": args.d, "p": args.p, "j": args.j,
        "error": error,
        "distribution": protocols.discrimination_distribution(setup, args.j),
        "note": setup.note,
    }
    passed = True
    if args.d >= 3 and args.d % 2 == 1:
        closed = protocols.discrimination_error_closed_form(args.d, args.p)
        check = protocols.discrimination_bound_check(args.d, args.p)
        body["error_closed_form"] = closed
        body["bound_check"] = check.to_dict()
        passed = check.passed and abs(error - closed) <= args.tol
    if args.trials:
        mc = protocols.sample_discrimination(setup, args.j, args.trials, args.seed)
        body["monte_carlo"] = mc
        passed = passed and mc["within_3_sigma"]
    return body, passed


# ------------------------------------------------------------------ signal

def _cmd_signal(args) -> tuple[dict, bool]:
    if args.scenario == "ii":
        rep = protocols.signalling_option_ii(args.epsilon)
        passed = abs(rep.tvd - rep.extras["tvd_closed_form"]) <= args.tol
    elif args.scenario == "multi":
        rep = protocols.signalling_multistate_ii(args.d, args.p, args.epsilon)
        passed = rep.bits > 0
    else:   # "i"; argparse's choices admit no other scenario
        rep = protocols.signalling_option_i(args.p, args.d, args.pairs)
        passed = rep.tvd > 0
        if args.trials:
            mc = protocols.option_i_monte_carlo(
                args.p, args.d, rep.extras["pairs"], runs=args.trials,
                seed=args.seed)
            rep.extras["monte_carlo"] = mc
            passed = passed and mc["error_rate"] <= 1.5 * rep.extras["target_error"]
    return rep.to_dict(), passed


# -------------------------------------------------------------------- sqrt

def _cmd_sqrt(args) -> tuple[dict, bool]:
    matrix = _load_matrix(args.matrix)
    if not np.any(matrix.imag):
        matrix = matrix.real   # so --field auto picks the real group
    if args.embed:
        result = roots.embed_sqrt(matrix)
    else:
        field = None if args.field == "auto" else args.field
        result = roots.kth_root_scan(matrix, args.k, field)
    body = result.to_dict()
    passed = result.exists and (result.residual or 0.0) <= roots.RESIDUAL_TOL
    return body, passed


# ------------------------------------------------------------- island-scan

def _cmd_island_scan(args) -> tuple[dict, bool]:
    report = normlaws.island_scan(args.n, args.p, num_matrices=args.matrices,
                                  seed=args.seed, tol=args.tol,
                                  trials=args.trials,
                                  nonnegative=args.nonnegative)
    return report.to_dict(), report.passed


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvlab",
        description="Simulation and verification suites for p-norm "
                    "measurement rules and their consequences.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def shared(sp, *names, p=2.0, trials=0):
        flags = {"p": dict(type=float, default=p, help="measurement exponent"),
                 "seed": dict(type=int, default=0),
                 "trials": dict(type=int, default=trials),
                 "tol": dict(type=float, default=1e-10),
                 "format": dict(choices=("json", "csv"), default="json")}
        for name in names:
            sp.add_argument(f"--{name}", **flags[name])
        sp.add_argument("--out", default=None, help="write report to a file")

    sp = sub.add_parser("simulate", help="run a circuit file, dump state and "
                                         "p-norm distribution")
    sp.add_argument("--circuit", required=True)
    shared(sp, "p", "seed", "trials", "format")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("check-norm", help="does a matrix preserve the p-norm?")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--mode", choices=("auto", "numeric", "formal"),
                    default="auto")
    sp.add_argument("--convention", choices=("modulus", "split"),
                    default="modulus")
    sp.add_argument("--nonnegative", action="store_true",
                    help="restrict test vectors to nonnegative entries")
    shared(sp, "p", "seed", "trials", "tol", p=4.0, trials=64)
    sp.set_defaults(func=_cmd_check_norm)

    sp = sub.add_parser("postbqp", help="majority decision from a truth table")
    sp.add_argument("--truth-table", required=True)
    sp.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    shared(sp, "seed", "trials", trials=None)
    sp.set_defaults(func=_cmd_postbqp)

    sp = sub.add_parser("or-solve", help="decide OR with one non-unitary gate")
    sp.add_argument("--truth-table", required=True)
    shared(sp)
    sp.set_defaults(func=_cmd_or_solve)

    sp = sub.add_parser("gadget", help="postselection gadget weight certificate")
    sp.add_argument("--m", type=int, required=True, help="ancilla count")
    sp.add_argument("--qubit", type=int, default=0)
    sp.add_argument("--bit", type=int, default=1, choices=(0, 1))
    sp.add_argument("--state", default=None,
                    help="JSON amplitudes file (default: the one-qubit "
                         "uniform superposition)")
    shared(sp, "p", "tol", p=1.0)
    sp.set_defaults(func=_cmd_gadget)

    sp = sub.add_parser("discriminate", help="nearly-parallel state "
                                             "discrimination error")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--j", type=int, default=0, help="true state index")
    shared(sp, "p", "seed", "trials", "tol", p=4.0)
    sp.set_defaults(func=_cmd_discriminate)

    sp = sub.add_parser("signal", help="superluminal signalling scenarios")
    sp.add_argument("--scenario", choices=("i", "ii", "multi"), required=True)
    sp.add_argument("--epsilon", type=float, default=1e-3)
    sp.add_argument("--d", type=int, default=4)
    sp.add_argument("--pairs", type=int, default=None)
    shared(sp, "p", "seed", "trials", "tol", p=4.0)
    sp.set_defaults(func=_cmd_signal)

    sp = sub.add_parser("sqrt", help="square/k-th roots in the allowed group")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--field", choices=("auto", "real", "complex"),
                    default="auto")
    sp.add_argument("--embed", action="store_true",
                    help="root one dimension up (always exists)")
    shared(sp)
    sp.set_defaults(func=_cmd_sqrt)

    sp = sub.add_parser("island-scan", help="random search for non-diagonal "
                                            "p-norm preservers")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--matrices", type=int, default=1000)
    sp.add_argument("--nonnegative", action="store_true")
    shared(sp, "p", "seed", "trials", "tol", p=4.0, trials=24)
    sp.set_defaults(func=_cmd_island_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        body, passed = args.func(args)
        if body is not None:   # None: the handler wrote its own text (simulate --format csv)
            _emit(args, body, passed)
    except _USAGE_ERRORS as exc:
        print(f"qvlab {args.cmd}: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
