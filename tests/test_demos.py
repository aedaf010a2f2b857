"""Every walkthrough in demos/ runs to completion and prints something.

Run in-process under the suite's warning filters, so a demo that hits an
overflow or invalid-value warning fails here too.
"""
import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    with np.printoptions():   # demos set print options; keep them local
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
