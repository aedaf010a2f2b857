import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

import qvlab
from qvlab import postbqp
from qvlab.cli import build_parser, main
from qvlab.postbqp import EXACT_THRESHOLD

R = 1.0 / math.sqrt(2.0)

BELL_CIRCUIT = {
    "qubits": 2,
    "steps": [
        {"gate": "H", "targets": [0], "mode": "unitary"},
        {"gate": "CNOT", "targets": [0, 1]},
    ],
}


def haar_layers_circuit(n=10, seed=7):
    """An H layer, then Haar one-qubit unitaries on random qubits: runs of
    steps that run_circuit fuses into blocks."""
    rng = np.random.default_rng(seed)
    circuit = qvlab.Circuit(n)
    for q in range(n):
        circuit.gate(qvlab.hadamard(), [q])
    for q in rng.integers(0, n, size=3 * n):
        circuit.gate(qvlab.Gate(unitary_group.rvs(2, random_state=rng)), [int(q)])
    return circuit.to_json_dict()


@pytest.fixture
def files(tmp_path):
    def dump(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
        return str(path)

    return {
        "bell": dump("bell.json", BELL_CIRCUIT),
        "haar_layers": dump("haar_layers.json", haar_layers_circuit()),
        "hadamard": dump("h.json", {"matrix": [[R, R], [R, -R]]}),
        "signed_perm": dump("sp.json", {"matrix": [[0, -1], [1, 0]]}),
        "flip": dump("flip.json", {"matrix": [[1, 0], [0, -1]]}),
        "rot": dump("rot.json", {"matrix": [
            [math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3)],
            [math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)]]}),
        "skew": dump("skew.json", {"matrix": [[1, 1], [0, 1]]}),
        "upper_i": dump("upper_i.json", {"matrix": [[1, [0, 1]], [0, 1]]}),
        "phased_perm": dump("pp.json", {"matrix": [
            [0, [0.6, 0.8], 0], [0, 0, [0, -1]], [[-1, 0], 0, 0]]}),
        "phased_cycle": dump("pc.json", {"matrix": [[0, 1, 0], [0, 0, -1], [[0, 1], 0, 0]]}),
        "f": dump("f.txt", "3\n01000001\n"),
        "g": dump("g.txt", "3\n0xbd\n"),
        "allzero": dump("z.txt", "2\n0000\n"),
        "lopsided": dump("state.json", {"amplitudes": [[0.6, 0.0], [0.8, 0.0]]}),
        "w_two_targets": dump("w2.json", {"qubits": 2, "steps": [
            {"gate": "W", "targets": [0, 1], "mode": "global"}]}),
        "w_no_target": dump("w0.json", {"qubits": 2, "steps": [
            {"gate": "W", "targets": [], "mode": "global"}]}),
        "g_overflow": dump("g_big.json", {"qubits": 1, "steps": [
            {"gate": "custom", "matrix": [[1e80, 0], [0, 1e80]], "targets": [0],
             "mode": "global"}] * 2 + [
            {"gate": "G", "targets": [0], "mode": "global"}]}),
        "dir": tmp_path,
    }


def assert_report_layout(text):
    # the layout of json.dumps(..., sort_keys=True, indent=2), whatever writes it
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    if captured.out.startswith("{"):   # every JSON report; simulate's CSV starts "basis"
        assert_report_layout(captured.out)
    return code, captured.out, captured.err


def envelope(out):
    data = json.loads(out)
    assert set(data) == {"subcommand", "config", "seed", "version", "pass", "report"}
    return data


def test_simulate_bell(files, capsys):
    code, out, err = run(["simulate", "--circuit", files["bell"]], capsys)
    assert code == 0 and err == ""
    data = envelope(out)
    assert data["subcommand"] == "simulate"
    assert data["pass"] is True
    assert np.allclose(data["report"]["distribution"], [0.5, 0, 0, 0.5], atol=1e-12)
    assert data["report"]["amplitudes"][0] == pytest.approx([R, 0.0])
    assert set(data["config"]) == {"circuit", "p", "seed", "trials"}


@pytest.mark.parametrize("circuit", ["bell", "haar_layers"])
def test_simulate_byte_identical(files, capsys, circuit):
    argv = ["simulate", "--circuit", files[circuit], "--p", "3"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_simulate_sampling(files, capsys):
    argv = ["simulate", "--circuit", files["bell"], "--trials", "1000", "--seed", "5"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    counts = envelope(out)["report"]["sample_counts"]
    assert sum(counts) == 1000
    assert counts[1] == counts[2] == 0


@pytest.mark.parametrize("circuit", ["w_two_targets", "w_no_target"])
def test_simulate_bad_targets_is_usage_error(files, capsys, circuit):
    code, out, err = run(["simulate", "--circuit", files[circuit]], capsys)
    assert code == 2 and out == ""
    assert err.startswith("qvlab simulate:") and "targets" in err


def test_simulate_overflow_is_usage_error(files, capsys):
    # G on amplitudes of 1e160 has no finite image: exit 2, not NaN in the report
    code, out, err = run(["simulate", "--circuit", files["g_overflow"]], capsys)
    assert code == 2 and out == ""
    assert err.startswith("qvlab simulate:") and "G map" in err


@pytest.mark.parametrize("qubits", [2.5, "2"])
def test_simulate_register_size_is_an_integer(files, capsys, qubits):
    # int() ran a "qubits": 2.5 file as 2 qubits and exited 0
    path = files["dir"] / "size.json"
    path.write_text(json.dumps({**BELL_CIRCUIT, "qubits": qubits}))
    code, out, err = run(["simulate", "--circuit", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"qvlab simulate: qubits {qubits!r} is not an integer\n"


def test_simulate_integral_float_register_size_is_the_int(files, capsys):
    path = files["dir"] / "size.json"
    outs = []
    for qubits in (2, 2.0):
        path.write_text(json.dumps({**BELL_CIRCUIT, "qubits": qubits}))
        outs.append(run(["simulate", "--circuit", str(path)], capsys))
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_simulate_refuses_a_negative_register_size(files, capsys):
    # "qubits": -1 died in StateVector.ground with a TypeError traceback and exit 1
    with pytest.raises(ValueError, match=r"^qubits -1 is negative$"):
        qvlab.Circuit(-1)
    path = files["dir"] / "size.json"
    path.write_text(json.dumps({"qubits": -1, "steps": []}))
    code, out, err = run(["simulate", "--circuit", str(path)], capsys)
    assert (code, out, err) == (2, "", "qvlab simulate: qubits -1 is negative\n")
    # an empty register still reports its one amplitude
    path.write_text(json.dumps({"qubits": 0, "steps": []}))
    code, out, _ = run(["simulate", "--circuit", str(path)], capsys)
    assert code == 0 and envelope(out)["report"]["amplitudes"] == [[1.0, 0.0]]


def test_simulate_csv(files, capsys):
    code, out, _ = run(["simulate", "--circuit", files["bell"], "--format", "csv"],
                       capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["basis", "re", "im", "probability"]
    assert [r[0] for r in rows[1:]] == ["00", "01", "10", "11"]
    assert float(rows[1][3]) == pytest.approx(0.5, abs=1e-12)

    # with --trials, the JSON report's seeded sample_counts as a last column
    sampled = ["simulate", "--circuit", files["bell"], "--trials", "1000", "--seed", "5"]
    code, counted, _ = run([*sampled, "--format", "csv"], capsys)
    assert code == 0
    counted = list(csv.reader(io.StringIO(counted)))
    assert counted[0] == [*rows[0], "count"]
    assert [r[:4] for r in counted[1:]] == rows[1:]
    _, report, _ = run(sampled, capsys)
    assert [int(r[4]) for r in counted[1:]] == envelope(report)["report"]["sample_counts"]


def test_out_flag_writes_file(files, capsys):
    target = files["dir"] / "report.json"
    code, out, _ = run(["simulate", "--circuit", files["bell"],
                        "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["subcommand"] == "simulate"
    assert_report_layout(target.read_text())


def test_check_norm_hadamard_fails(files, capsys):
    code, out, _ = run(["check-norm", "--matrix", files["hadamard"]], capsys)
    assert code == 1
    data = envelope(out)
    assert data["pass"] is False
    report = data["report"]
    assert report["mode"] == "formal"
    assert report["witness"] == [[1.0, 0.0], [0.0, 0.0]]
    assert report["generalized_diagonal"] is False


def test_check_norm_signed_perm_passes(files, capsys):
    code, out, _ = run(["check-norm", "--matrix", files["signed_perm"]], capsys)
    assert code == 0
    report = envelope(out)["report"]
    assert report["preserves"] is True
    assert report["generalized_diagonal"] is True
    assert report["permutation"] == [1, 0]
    # file input arrives as floats, so the formal check runs in float mode
    assert report["details"]["mode"] == "float"
    assert report["details"]["worst_coefficient_residual"] == 0.0


def test_check_norm_p2_and_numeric_mode(files, capsys):
    code, _, _ = run(["check-norm", "--matrix", files["hadamard"], "--p", "2"],
                     capsys)
    assert code == 0
    code, out, _ = run(["check-norm", "--matrix", files["hadamard"],
                        "--mode", "numeric", "--p", "3"], capsys)
    assert code == 1
    assert envelope(out)["report"]["mode"] == "numeric"


def test_check_norm_auto_leaves_the_formal_domain_to_normlaws(files, capsys):
    # complex entries are outside the formal expansion: auto takes the numeric check
    code, out, _ = run(["check-norm", "--matrix", files["phased_perm"], "--p", "4"], capsys)
    assert code == 0
    assert envelope(out)["report"]["mode"] == "numeric"
    # an explicit formal check at a p it does not take is refused, not rounded to p = 4
    code, out, err = run(["check-norm", "--matrix", files["signed_perm"], "--p", "4.5",
                          "--mode", "formal"], capsys)
    assert code == 2 and out == "" and "p = 4.5" in err


@pytest.mark.parametrize("entry, p", [(math.nan, "3"), (math.nan, "4"), (math.inf, "3")])
def test_check_norm_rejects_non_finite_matrices(files, capsys, entry, p):
    path = files["dir"] / "bad.json"
    path.write_text(json.dumps({"matrix": [[entry, 0], [0, 1]]}))   # NaN / Infinity
    code, out, err = run(["check-norm", "--matrix", str(path), "--p", p], capsys)
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("matrix, where", [
    ([["a", "b"], ["c", "d"]], "matrix row 0, column 0 is 'a', not a real number or an [re, im] pair"),
    ([[1, 0], [0]], "matrix row 1 has length 1, row 0 has 2"),
    ([[1, 0], [0, [1, 2, 3]]], "matrix row 1, column 1 is [1, 2, 3], not a real number or an [re, im] pair"),
    ([[True, 0], [0, 1]], "matrix row 0, column 0 is True, not a real number or an [re, im] pair"),
    ([[1, 0], [0, [1, False]]], "matrix row 1, column 1 is [1, False], not a real number or an [re, im] pair"),
], ids=["non-numeric", "ragged", "long-pair", "boolean", "boolean-in-pair"])
def test_check_norm_names_the_bad_matrix_entry(files, capsys, matrix, where):
    # these failed inside tuple unpacking or numpy, with messages naming neither;
    # booleans ran as 1 and 0 (bool is an int), so [[true, 0], [0, 1]] exited 0
    path = files["dir"] / "bad.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run(["check-norm", "--matrix", str(path), "--p", "3"], capsys)
    assert (code, out, err) == (2, "", f"qvlab check-norm: {where}\n")


def test_input_file_without_its_key_names_the_file_and_key(files, capsys):
    # a missing key printed only its repr: "qvlab gadget: 'amplitudes'"
    path = files["dir"] / "keyed.json"
    path.write_text(json.dumps({"amps": [1, 0]}))
    for argv, key in ((["gadget", "--m", "2", "--state", str(path)], "amplitudes"),
                      (["check-norm", "--matrix", str(path)], "matrix"),
                      (["sqrt", "--matrix", str(path)], "matrix")):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"qvlab {argv[0]}: {path} holds an object with no {key!r} key\n"


def test_check_norm_formal_refuses_numeric_only_flags(files, capsys):
    for flags in (["--nonnegative"], ["--convention", "split"]):
        code, out, err = run(["check-norm", "--matrix", files["signed_perm"],
                              "--mode", "formal", *flags], capsys)
        assert code == 2 and out == "" and "--mode formal" in err
        # auto leaves the formal expansion to the modulus convention on all inputs
        code, out, _ = run(["check-norm", "--matrix", files["signed_perm"], *flags], capsys)
        assert code == 0
        assert envelope(out)["report"]["mode"] == "numeric"


def test_postbqp_exact(files, capsys):
    code, out, _ = run(["postbqp", "--truth-table", files["f"]], capsys)
    assert code == 0
    report = envelope(out)["report"]
    assert report["verdict"] == "LessThanHalf"
    assert report["ones_count"] == 2
    assert report["threshold"] == pytest.approx(EXACT_THRESHOLD)
    assert len(report["per_i"]) == 7

    code, out, _ = run(["postbqp", "--truth-table", files["g"]], capsys)
    assert code == 0
    assert envelope(out)["report"]["verdict"] == "GreaterThanHalf"


def test_postbqp_sampled_deterministic(files, capsys):
    argv = ["postbqp", "--truth-table", files["f"], "--mode", "sampled",
            "--trials", "200", "--seed", "3"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    assert json.loads(first)["report"]["mode"] == "sampled"


def test_postbqp_padding_violation_is_usage_error(files, capsys):
    code, out, err = run(["postbqp", "--truth-table", files["allzero"]], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("qvlab postbqp:")


def test_or_solve(files, capsys):
    code, out, _ = run(["or-solve", "--truth-table", files["f"]], capsys)
    assert code == 0
    report = envelope(out)["report"]
    assert report["value"] is True
    assert report["prob_one"] > 1 - 2 ** -9


def test_gadget_default_state(files, capsys):
    code, out, _ = run(["gadget", "--m", "4", "--p", "1"], capsys)
    assert code == 0
    report = envelope(out)["report"]
    assert report["closed_form_factor"] == 4.0
    assert report["qubit_marginal"] == pytest.approx([0.2, 0.8], abs=1e-12)
    assert report["grown_qubits"] == 5


def test_gadget_custom_state_and_p2_rejection(files, capsys):
    code, out, _ = run(["gadget", "--m", "2", "--p", "4",
                        "--state", files["lopsided"]], capsys)
    assert code == 0
    assert envelope(out)["report"]["closed_form_factor"] == 0.25

    code, _, err = run(["gadget", "--m", "2", "--p", "2"], capsys)
    assert code == 2
    assert "p = 2" in err

    # checked before the fan-out circuit is built, so its message stays the gadget's
    for qubit in ("-1", "3"):
        code, out, err = run(["gadget", "--m", "2", "--qubit", qubit], capsys)
        assert code == 2 and out == ""
        assert err == f"qvlab gadget: qubit {qubit} out of range for a 1-qubit state\n"


@pytest.mark.parametrize("p", ["1100", "3000"])
def test_gadget_large_p_certifies_in_log2(files, capsys, p):
    # 2^(4(1-p/2)) underflows to 0.0 here; the certificate compares log2 factors
    code, out, _ = run(["gadget", "--m", "4", "--p", p], capsys)
    assert code == 0
    data = envelope(out)
    assert data["pass"] is True
    assert data["report"]["measured_factor"] is not None
    # the linear factors underflow to 0.0; the exponents they come from do not
    closed = 4 * (1 - float(p) / 2)   # -2196 and -5996
    assert data["report"]["closed_form_log2"] == closed
    assert data["report"]["measured_log2"] == pytest.approx(closed, rel=1e-9)


def test_gadget_wrong_closed_form_fails_at_large_p(files, capsys, monkeypatch):
    gadget = postbqp.postselection_gadget

    def off_by_two(*args, **kwargs):
        grown, rep = gadget(*args, **kwargs)
        return grown, dataclasses.replace(rep, closed_form_log2=rep.closed_form_log2 - 1.0)

    monkeypatch.setattr(postbqp, "postselection_gadget", off_by_two)
    code, out, _ = run(["gadget", "--m", "4", "--p", "1100"], capsys)
    assert code == 1
    assert envelope(out)["pass"] is False


def test_discriminate_three_states(files, capsys):
    code, out, _ = run(["discriminate", "--d", "3", "--p", "4"], capsys)
    assert code == 0
    report = envelope(out)["report"]
    assert report["error"] == pytest.approx(1 / 9, abs=1e-12)
    assert report["error_closed_form"] == pytest.approx(1 / 9, abs=1e-12)
    assert report["bound_check"]["pass"] is True
    assert "sqrt(2)" in report["note"]


def test_discriminate_monte_carlo_and_even_d(files, capsys):
    code, out, _ = run(["discriminate", "--d", "3", "--p", "4",
                        "--trials", "5000", "--seed", "1"], capsys)
    assert code == 0
    assert envelope(out)["report"]["monte_carlo"]["within_3_sigma"] is True

    code, out, _ = run(["discriminate", "--d", "4", "--p", "4"], capsys)
    assert code == 0
    assert "bound_check" not in envelope(out)["report"]


def test_discriminate_large_p_writes_strict_json(files, capsys):
    code, out, _ = run(["discriminate", "--d", "101", "--p", "1100"], capsys)
    assert code == 0

    def reject(name):
        raise ValueError(f"non-finite {name} in report")

    report = json.loads(out, parse_constant=reject)["report"]
    assert report["error"] == pytest.approx(report["error_closed_form"], abs=1e-12)

    # p = inf has no p-norm rule: a usage error, not NaN in the report
    for argv in (["discriminate", "--d", "5", "--p", "inf"],
                 ["signal", "--scenario", "i", "--p", "inf"],
                 ["signal", "--scenario", "multi", "--d", "3", "--p", "inf"],
                 ["gadget", "--m", "4", "--p", "inf"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "" and "finite" in err, argv


# At p = 0.001, p_norm's power 1/p overflows: the gadget's measured factor is
# inf and the 3-cycle's residual is inf - inf.  Reports are strict JSON, so
# the value is refused by name at the one point that writes reports.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cmd, flags, where, value", [
    ("gadget", ["--m", "4", "--p", "0.001"], "report.measured_factor", "inf"),
    ("check-norm", ["--matrix", "phased_cycle", "--mode", "numeric", "--p", "0.001"],
     "report.residual", "nan"),
], ids=["gadget", "check-norm"])
def test_non_finite_report_value_exits_2(files, capsys, cmd, flags, where, value):
    target = files["dir"] / "report.json"
    argv = [cmd, *[files.get(f, f) for f in flags]]
    for extra in ([], ["--out", str(target)]):
        code, out, err = run([*argv, *extra], capsys)
        assert code == 2 and out == "" and not target.exists()
        assert err == (f"qvlab {cmd}: report value {where} is {value}; "
                       "strict JSON has no NaN or infinity\n")


@pytest.mark.parametrize("j", ["7", "-1"])
def test_discriminate_j_out_of_range_is_usage_error(files, capsys, j):
    # j names one of the d states; -1 must not wrap around to state d - 1
    code, out, err = run(["discriminate", "--d", "5", "--p", "4", "--j", j], capsys)
    assert code == 2 and out == ""
    assert err.startswith("qvlab discriminate:") and f"j = {j}" in err


def test_signal_option_ii(files, capsys):
    code, out, _ = run(["signal", "--scenario", "ii", "--epsilon", "0.3"], capsys)
    assert code == 0
    report = envelope(out)["report"]
    want = (1 - 0.09) / (1 + 0.09)
    assert report["tvd"] == pytest.approx(want, abs=1e-12)


def test_signal_multistate(files, capsys):
    code, out, _ = run(["signal", "--scenario", "multi", "--p", "6"], capsys)
    assert code == 0
    assert envelope(out)["report"]["bits"] == 2.0
    # at p = 2 the discrimination step is too blind to clear 2/3 success
    code, out, _ = run(["signal", "--scenario", "multi", "--p", "2"], capsys)
    assert code == 1
    assert envelope(out)["pass"] is False


def test_signal_option_i(files, capsys):
    code, out, _ = run(["signal", "--scenario", "i", "--p", "4"], capsys)
    assert code == 0
    report = envelope(out)["report"]
    assert report["tvd"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["extras"]["pairs_needed"] == 125

    code, out, _ = run(["signal", "--scenario", "i", "--p", "4",
                        "--trials", "20000"], capsys)
    assert code == 0
    assert envelope(out)["report"]["extras"]["monte_carlo"]["error_rate"] <= 1.5e-3

    code, _, err = run(["signal", "--scenario", "i", "--p", "2"], capsys)
    assert code == 2
    assert "p = 2" in err


def test_sqrt_reflection_paths(files, capsys):
    code, out, _ = run(["sqrt", "--matrix", files["flip"]], capsys)
    assert code == 1
    report = envelope(out)["report"]
    assert report["exists"] is False
    assert report["obstruction"] == "DeterminantNegative"

    code, out, _ = run(["sqrt", "--matrix", files["flip"], "--embed"], capsys)
    assert code == 0
    assert len(envelope(out)["report"]["root"]) == 3

    code, out, _ = run(["sqrt", "--matrix", files["flip"], "--field", "complex"],
                       capsys)
    assert code == 0
    assert envelope(out)["report"]["root"][1][1] == pytest.approx([0.0, 1.0])

    code, out, _ = run(["sqrt", "--matrix", files["flip"], "--k", "3"], capsys)
    assert code == 0
    assert envelope(out)["report"]["root"][1][1] == pytest.approx(-1.0)


def test_sqrt_rotation_kth(files, capsys):
    code, out, _ = run(["sqrt", "--matrix", files["rot"], "--k", "3"], capsys)
    assert code == 0
    report = envelope(out)["report"]
    assert report["power"] == 3
    assert report["root"][0][0] == pytest.approx(math.cos(2 * math.pi / 9), abs=1e-12)


def test_sqrt_usage_errors(files, capsys):
    code, _, err = run(["sqrt", "--matrix", str(files["dir"] / "missing.json")],
                       capsys)
    assert code == 2 and "sqrt" in err
    code, _, err = run(["sqrt", "--matrix", files["skew"]], capsys)
    assert code == 2
    # [[1, i], [0, 1]] is not even unitary; a real root must not drop the i
    for extra in (["--field", "real"], ["--embed"]):
        code, out, err = run(["sqrt", "--matrix", files["upper_i"], *extra], capsys)
        assert code == 2 and out == "" and "complex part" in err


def test_island_scan(files, capsys):
    code, out, _ = run(["island-scan", "--n", "2", "--matrices", "60"], capsys)
    assert code == 0
    data = envelope(out)
    assert data["pass"] is True
    assert data["report"]["residuals"]["expected_ensemble_failures"] == 0

    code, _, err = run(["island-scan", "--n", "2", "--p", "2"], capsys)
    assert code == 2 and "exceptional" in err

    code, _, _ = run(["island-scan", "--n", "2", "--p", "1", "--matrices", "60",
                      "--nonnegative"], capsys)
    assert code == 0


def test_island_scan_trials_zero_runs_only_the_basis_vectors(files, capsys):
    # at n = 3 any --trials up to 3 tests just the basis vectors, --trials 0 included
    reports = []
    for trials in ("0", "3"):
        code, out, _ = run(["island-scan", "--n", "3", "--matrices", "30",
                            "--trials", trials], capsys)
        data = envelope(out)
        assert data["config"]["trials"] == int(trials)
        reports.append((code, data["report"]))
    assert reports[0] == reports[1]


# the shared flags each subcommand reads, and a value for its required flags
READS = {
    "simulate": ("p seed trials format", ["--circuit", "c.json"]),
    "check-norm": ("p seed trials tol", ["--matrix", "m.json"]),
    "postbqp": ("seed trials", ["--truth-table", "f.txt"]),
    "or-solve": ("", ["--truth-table", "f.txt"]),
    "gadget": ("p tol", ["--m", "2"]),
    "discriminate": ("p seed trials tol", ["--d", "3"]),
    "signal": ("p seed trials tol", ["--scenario", "ii"]),
    "sqrt": ("", ["--matrix", "m.json"]),
    "island-scan": ("p seed trials tol", ["--n", "2"]),
}
UNREAD = [(cmd, flag) for cmd, (reads, _) in READS.items()
          for flag in ("p", "seed", "trials", "tol", "format") if flag not in reads.split()]


@pytest.mark.parametrize("cmd, flag", UNREAD, ids=lambda v: v)
def test_subcommand_rejects_a_shared_flag_it_does_not_read(capsys, cmd, flag):
    value = "csv" if flag == "format" else "1"
    with pytest.raises(SystemExit) as info:
        main([cmd, *READS[cmd][1], f"--{flag}", value])
    assert info.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_config_echoes_only_what_was_read(files, capsys):
    code, out, _ = run(["or-solve", "--truth-table", files["f"]], capsys)
    assert code == 0
    data = envelope(out)
    assert data["config"] == {"truth_table": files["f"]}
    assert data["seed"] is None


def _readme_cli_section():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("## Command line", 1)[1].split("\n## ", 1)[0]


def _readme_cli_examples():
    block = _readme_cli_section().split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qvlab ")]


def test_readme_cli_examples_parse():
    block = _readme_cli_section().split("```", 2)[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("qvlab ")]
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)   # an undeclared flag exits 2 here
    assert {argv[0] for argv in examples} == set(READS)


def test_readme_cli_flag_table_matches_the_parser():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    rows = [re.findall(r"`([^`]+)`", line) for line in _readme_cli_section().splitlines()
            if line.startswith("| `")]
    documented = {row[0]: set(row[1:]) for row in rows}
    declared = {cmd: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help", "--out"}
                for cmd, sp in subparsers.choices.items()}
    assert documented == declared


def test_parser_usage_exits():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["discriminate"])   # missing required --d
    assert info.value.code == 2


def test_main_reuses_one_parser_without_carrying_state(files, capsys):
    # main builds its parser once per process; every exit path argparse has
    # must leave it as it was, so a second round repeats the first byte for byte
    fixture = {"bell.json": files["bell"], "h.json": files["hadamard"],
               "f.txt": files["f"], "flip.json": files["flip"]}
    examples = [[fixture.get(a, a) for a in argv] for argv in _readme_cli_examples()]
    exits = [(["no-such-command"], 2), (["discriminate"], 2),
             (["or-solve", "--truth-table", files["f"], "--p", "3"], 2),
             (["--help"], 0), (["sqrt", "--help"], 0)]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [outcome(argv) for argv in examples]
    stops = [outcome(argv) for argv, _ in exits]
    assert [code for code, _, _ in stops] == [("SystemExit", code) for _, code in exits]
    assert stops[3][1] == build_parser().format_help()
    assert [outcome(argv) for argv in examples] == first
    assert [outcome(argv) for argv, _ in exits] == stops
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("command", [
    pytest.param(["qvlab"], id="console-script", marks=pytest.mark.skipif(
        shutil.which("qvlab") is None, reason="console script not on PATH")),
    pytest.param([sys.executable, "-m", "qvlab"], id="module"),
])
def test_console_script(files, command):
    # a real process, so the exit code is the one a shell sees
    env = {**os.environ, "PYTHONPATH": str(Path(qvlab.__file__).parents[1])}
    proc = subprocess.run([*command, "simulate", "--circuit", files["bell"]],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["qubits"] == 2
    assert_report_layout(proc.stdout)
    proc = subprocess.run([*command, "sqrt", "--matrix", files["upper_i"], "--embed"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
