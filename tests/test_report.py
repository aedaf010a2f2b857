import json

import numpy as np

from qvlab.report import (CheckReport, _jsonable, complex_to_json,
                          json_to_complex, json_to_matrix, json_to_vector,
                          matrix_to_json, vector_to_json)


def test_complex_round_trip():
    z = 1.5 - 2.25j
    assert json_to_complex(complex_to_json(z)) == z
    assert json_to_complex(3) == 3 + 0j


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0], [0.5j, -1]])
    again = json_to_matrix(matrix_to_json(m))
    assert np.array_equal(again, m)


def test_vector_round_trip():
    v = np.array([0.25, -1j, 2 + 2j])
    assert np.array_equal(json_to_vector(vector_to_json(v)), v)


def test_json_to_matrix_accepts_plain_reals():
    m = json_to_matrix([[1, 0], [0, -1]])
    assert m.dtype == np.complex128
    assert np.array_equal(m, np.diag([1.0 + 0j, -1.0]))


def test_check_report_serialization():
    rep = CheckReport(claim="demo", passed=True,
                      witnesses=[{"x": np.float64(1.0)}],
                      residuals={"worst": np.float64(1e-12)}, seed=3)
    data = json.loads(rep.to_json())
    assert data["pass"] is True
    assert data["claim"] == "demo"
    assert data["seed"] == 3
    assert data["residuals"]["worst"] == 1e-12
    # keys are sorted so output is byte-stable
    assert rep.to_json() == rep.to_json()


def test_encoder_mapping():
    assert _jsonable(np.array([1 + 2j, -0.5j])) == [[1.0, 2.0], [0.0, -0.5]]
    assert _jsonable(np.array([[1j, 2.0], [0.0, -1.0 + 0j]])) == [
        [[0.0, 1.0], [2.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    assert _jsonable(np.complex128(3 - 4j)) == [3.0, -4.0]
    assert _jsonable(np.array([[0.5, 1.0]])) == [[0.5, 1.0]]
    assert _jsonable(np.arange(3)) == [0, 1, 2]
    scalars = [_jsonable(x) for x in (np.float64(0.25), np.int64(7), np.bool_(True))]
    assert scalars == [0.25, 7, True]
    assert [type(x) for x in scalars] == [float, int, bool]
    assert _jsonable((1, (np.int64(2), "a"))) == [1, [2, "a"]]
    nested = _jsonable({"outer": {"v": np.array([1j]), 3: np.float64(1.5)}})
    assert nested == {"outer": {"v": [[0.0, 1.0]], "3": 1.5}}
    # the result is plain JSON: it round-trips unchanged
    assert json.loads(json.dumps(nested)) == nested
