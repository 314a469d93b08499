"""Smoke test: each walkthrough under ``demos/``, and the README's library
example, runs to its end.

They run in process, with their stdout captured, so one that raises (or
trips a RuntimeWarning, which the suite treats as an error) fails here.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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


def test_readme_library_example_runs():
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 4
