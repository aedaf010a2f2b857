"""Verdict and report containers shared by the verification suites, and the
one JSON encoder every report goes through.

JSON conventions: complex numbers are ``[re, im]`` pairs (so a complex
matrix is an array of rows of pairs), real arrays are nested lists, numpy
scalars are plain numbers, tuples are lists, and the boolean verdict key is
``"pass"``.  ``_jsonable`` is the only code that applies them: each result
class's ``to_dict`` encodes its fields with ``fields_to_json``, and the CLI
encodes each whole report once before writing it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np


def complex_to_json(z: complex) -> list[float]:
    return _jsonable(complex(z))


def json_to_complex(pair: Any) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    re, im = pair
    return complex(re, im)


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return _jsonable(np.ravel(v).astype(np.complex128))


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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
