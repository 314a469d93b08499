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


def test_every_public_measure_is_a_plain_float():
    phi = infoclosure.CategoricalParam((0.2, 0.3, 0.5))
    xi0 = infoclosure.Hyperparameter((0.5, 2, 1))
    traj = (0, 2, 1, 2)
    c, x, t = infoclosure.count(traj, 3), traj[-1], len(traj)
    values = {
        "ntic": infoclosure.ntic(phi, t),
        "one_step_ntic": infoclosure.one_step_ntic(phi, t),
        "count_entropy": infoclosure.count_entropy(phi, t),
        "symbol_entropy": infoclosure.symbol_entropy(phi),
        "pointwise_ntic": infoclosure.pointwise_ntic(phi, traj),
        "one_step_pointwise_ntic": infoclosure.one_step_pointwise_ntic(traj),
        "marginal_surprise": infoclosure.marginal_surprise(xi0, traj[:-1], x),
        "hindsight_empirical_surprise": infoclosure.hindsight_empirical_surprise(traj),
        "one_step_info_gain": infoclosure.one_step_info_gain(xi0, traj),
        "one_step_info_gain_from_count": infoclosure.one_step_info_gain_from_count(xi0, c, x),
        "full_past_info_gain": infoclosure.full_past_info_gain(xi0, traj),
        "oracle_ntic": infoclosure.oracle_ntic(phi, xi0, t, "full_past"),
    }
    assert [name for name, v in values.items() if type(v) is not float] == []
