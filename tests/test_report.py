import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qvlab.report import (CheckReport, NonFiniteReport, _jsonable,
                          complex_to_json, json_text, json_to_complex,
                          json_to_matrix, json_to_vector, matrix_to_json,
                          vector_to_json)


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


# JSON trees that reach both of json_text's paths: whole arrays of floats or
# of ints (1-d, and 2-d of one width) and everything else
FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e22, 0.1, -1.7976931348623157e308]))
INTS = st.integers() | st.sampled_from([2 ** 63, -(2 ** 64), 10 ** 30])
KEYS = st.text() | st.sampled_from(["", "\x00", "\x1f\n\t\"\\", "\u00e9", "\u2028", "\ud800", "\U0001f600"])
LEAF_ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=8), st.lists(INTS, max_size=8),
    st.lists(st.booleans() | INTS, max_size=8),
    st.integers(0, 3).flatmap(lambda w: st.lists(
        st.lists(FLOATS, min_size=w, max_size=w) | st.lists(INTS, min_size=w, max_size=w),
        max_size=4)),
    st.lists(st.lists(FLOATS | INTS, max_size=3), max_size=4))   # ragged and mixed rows
TREES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | st.text() | LEAF_ARRAYS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=20)


@seed(1)
@settings(max_examples=150, deadline=None)
@given(TREES)
def test_json_text_matches_json_dumps(tree):
    assert json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


ARRAYS = st.sampled_from([np.complex128, np.float64, np.int64, np.bool_]).flatmap(
    lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                     max_side=4),
                             elements={"allow_nan": False, "allow_infinity": False}
                             if dtype in (np.complex128, np.float64) else None))


@seed(1)
@settings(max_examples=100, deadline=None)
@given(ARRAYS)
def test_json_text_of_jsonable_arrays_matches_json_dumps(a):
    for obj in (_jsonable(a), _jsonable({"a": a, "b": [a]})):
        assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("tree, where", [
    ({"report": {"x": [1.0, 2.0, math.inf]}}, "report.x[2]"),
    ({"m": [[0.5, 1.0], [math.nan, 0.0]]}, "m[1][0]"),
    ([{"k": [[1, 2], [3, -math.inf]]}], "[0].k[1][1]"),
    (math.nan, "(root)"),
])
def test_json_text_refuses_non_finite_values(tree, where):
    with pytest.raises(NonFiniteReport) as info:
        json_text(tree)
    assert isinstance(info.value, ValueError)
    assert str(info.value).startswith(f"report value {where} is ")
