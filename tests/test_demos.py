"""Smoke test: each walkthrough under ``demos/`` runs to its end.

The demos run in process, with their stdout captured, so a demo that raises
(or trips a RuntimeWarning, which the suite treats as an error) fails here.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_counter_chain_basics.py",
        "02_closure_growth.py",
        "03_surprise_and_information_gain.py",
        "04_oracle_crosschecks.py",
    ],
)
def test_demo_runs_to_its_end(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()
