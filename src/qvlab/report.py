"""Verdict and report containers shared by the verification suites, the
one JSON encoder every report goes through, and the writer of report text.

JSON conventions: complex numbers are ``[re, im]`` pairs (so a complex
matrix is an array of rows of pairs), real arrays are nested lists, numpy
scalars are plain numbers, tuples are lists, and the boolean verdict key is
``"pass"``.  ``_jsonable`` is the only code that applies them: each result
class's ``to_dict`` encodes its fields with ``fields_to_json``, and the CLI
encodes each whole report once before writing it.

``json_text`` writes a ``_jsonable`` tree as text.  Its contract: the result
is byte-for-byte ``json.dumps(obj, sort_keys=True, indent=2)`` for every
tree of dicts with string keys, lists, strings, ints, bools, None and
finite floats; a NaN or infinite float raises ``NonFiniteReport``, naming
its key path, so every report is strict JSON.  A list whose entries are all
floats or all ints, or all lists of one nonzero width of such entries, is
formatted in one pass of ``float.__repr__`` or ``int.__repr__`` over its
entries; everything else takes a plain recursive path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

import numpy as np


def json_to_complex(pair: Any) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    re, im = pair
    return complex(re, im)


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return _jsonable(np.asarray(m, dtype=np.complex128))


def json_to_matrix(rows: Any) -> np.ndarray:
    return np.array([[json_to_complex(z) for z in row] for row in rows],
                    dtype=np.complex128)


def json_to_vector(entries: Any) -> np.ndarray:
    return np.array([json_to_complex(z) for z in entries], dtype=np.complex128)


def _jsonable(obj: Any) -> Any:
    """Coerce numpy scalars/arrays and complex values into JSON-fit types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic, complex)) and np.iscomplexobj(obj):
        a = np.asarray(obj)
        return np.stack((a.real, a.imag), axis=-1).tolist()
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


class NonFiniteReport(ValueError):
    """A report holds a NaN or infinite float, which strict JSON cannot write.

    ``path`` lists the dict keys and list indices from the report's root to
    the value.
    """

    def __init__(self, value: float):
        super().__init__(value)
        self.value = value
        self.path: list = []   # filled innermost first while the error unwinds

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                        for k in reversed(self.path)).lstrip(".")
        return (f"report value {where or '(root)'} is {self.value!r}; "
                f"strict JSON has no NaN or infinity")


def json_text(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for a ``_jsonable`` tree,
    byte for byte, except that a NaN or infinity raises ``NonFiniteReport``."""
    return _encode(obj, "\n")


def _encode(obj: Any, newline: str) -> str:
    # newline is "\n" plus the indent of the line obj's text ends on
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteReport(obj)
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in sorted(obj.items()):
            try:
                parts.append(f"{encode_basestring_ascii(key)}: {_encode(value, inner)}")
            except NonFiniteReport as exc:
                exc.path.append(key)
                raise
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        body = _leaf_array_body(obj, inner)
        if body is None:
            parts = []
            for index, value in enumerate(obj):
                try:
                    parts.append(_encode(value, inner))
                except NonFiniteReport as exc:
                    exc.path.append(index)
                    raise
            body = ("," + inner).join(parts)
        return "[" + inner + body + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _leaf_strings(values: list) -> Iterator[str] | None:
    """The text of each entry if all are finite floats or all are ints, else None."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    return None


def _leaf_array_body(values: list, inner: str) -> str | None:
    """The text between a list's brackets when it is a 1-d array of leaves
    or a 2-d one (rows of one nonzero width); None for any other list."""
    sep = "," + inner
    if type(values[0]) is not list:
        strings = _leaf_strings(values)
        return None if strings is None else sep.join(strings)
    if set(map(type, values)) != {list}:
        return None
    widths = set(map(len, values))
    if len(widths) != 1:
        return None
    strings = _leaf_strings(list(chain.from_iterable(values)))
    if strings is None:
        return None
    row_inner = inner + "  "
    rows = map(("," + row_inner).join, zip(*[strings] * widths.pop()))
    return "[" + row_inner + (inner + "]" + sep + "[" + row_inner).join(rows) + inner + "]"


def fields_to_json(obj: Any) -> dict:
    """The JSON form of a dataclass instance: each field through ``_jsonable``."""
    return _jsonable({f.name: getattr(obj, f.name) for f in fields(obj)})


@dataclass
class CheckReport:
    """Outcome of one verification claim.

    ``witnesses`` holds whatever concrete objects demonstrate a failure
    (vectors, matrices, parameter tuples); empty when the claim passes.
    ``residuals`` maps measurement names to numbers.
    """

    claim: str
    passed: bool
    witnesses: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        data = fields_to_json(self)
        data["pass"] = data.pop("passed")
        return data

    def to_json(self) -> str:
        return json_text(self.to_dict())
