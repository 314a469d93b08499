"""Every name the package exports is read by a command, a demo, README or the benchmark.

A name that only tests read belongs in its submodule, where the tests can
import it; ``infoclosure.__all__`` names what a caller is meant to use.
"""

import re
from pathlib import Path

import infoclosure

ROOT = Path(__file__).resolve().parent.parent
READERS = [
    ROOT / "src" / "infoclosure" / "cli.py",
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "README.md",
    *sorted((ROOT / "bench").glob("*.py")),
]


def unread(names):
    """The names that occur as a word in none of ``READERS``, in order."""
    text = "\n".join(path.read_text(encoding="utf-8") for path in READERS)
    return [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)]


def test_every_export_has_a_reader():
    assert unread(infoclosure.__all__) == []
