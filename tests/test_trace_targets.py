"""Every function the benchmark's call tracer wraps must still exist.

``bench/spans.py`` names its targets by module and attribute; a rename in the
package would otherwise surface only as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from infoclosure.cli import _render
from infoclosure.oracle import build_joint

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_target_resolves_to_a_callable():
    for name, module_name, attr, kind in load_targets():
        obj = importlib.import_module(f"infoclosure.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
        # The tracer drives generator targets item by item.
        assert inspect.isgeneratorfunction(obj) == (kind == "gen"), name


def test_build_joint_takes_what_the_tracer_reads():
    # ``spans._note_joint`` labels a traced build by its first three
    # positional arguments, read as (phi, xi0, t).
    assert list(inspect.signature(build_joint).parameters)[:3] == ["phi", "xi0", "t"]


def test_render_takes_what_the_tracer_reads():
    # ``spans._note_render`` reads the command from the first positional
    # argument and counts the rows in the fourth.
    assert list(inspect.signature(_render).parameters)[:4] == ["command", "args", "columns", "rows"]
