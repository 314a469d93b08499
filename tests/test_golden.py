"""Pinned output bytes of the commands whose digits must not move.

The expected files under ``golden/`` and the strings below are CLI outputs
kept byte for byte: trajectory tables, a seeded Monte Carlo curve, an exact
JSON curve (also read from a config file) and the README witness.  A
refactor that changes any digit here changes what users read.  One file,
``kernel_long_rows_hex.json``, holds library values instead: the
``float.hex`` of ``closure.expected_values`` at rows too long to print here.

The ``*_xi0_nondyadic_*`` files use the counter start 0.37,2.5,1.13, whose
components have denominators up to 2**53, where the other files' start has
a common denominator of 4.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import infoclosure.bayes as bayes
import infoclosure.cli as cli
import infoclosure.closure as closure
from infoclosure.process import CategoricalParam, Hyperparameter

GOLDEN = Path(__file__).parent / "golden"

# 66 symbols, so the pointwise closure crosses the exact-integer/log-gamma
# switch of the multinomial coefficient at a total of 64.
TRAJ = ",".join(str((i * i + i // 3) % 3) for i in range(66))
TRAJECTORY_ARGS = ("trajectory", "--traj", TRAJ, "--xi0", "0.5,2,1.25")
NONDYADIC_XI0 = ("--xi0", "0.37,2.5,1.13")

CURVE_MC_CSV = """\
t,ntic,one_step_ntic,info_gain,surprise,method
1,0.0,0.0,0.28759524355077987,0.7652206330131375,mc
2,0.849601803810866,-0.29458755173797674,0.21219673702524652,0.7501471090947069,mc
3,0.9568739002387259,-0.6768348285493234,0.2070211794207113,0.8599282963639009,mc
4,1.358874612577037,-0.772259750484185,0.2079646913566957,0.9290546258006703,mc
"""

# An exact curve with every quantity, in bits: the JSON document echoes the
# curve's own flags, --out and --config aside; "seed" and "samples" hold
# their defaults.
CURVE_EXACT_ARGS = (
    "curve", "--phi", "0.2,0.3,0.5", "--xi0", "0.5,2,1.25", "--tmax", "3",
    "--quantities", "ntic,one_step_ntic,info_gain,surprise", "--format", "json", "--units", "bits",
)
CURVE_EXACT_JSON_BITS = """\
{
  "command": "curve",
  "config": {
    "phi": [
      0.2,
      0.3,
      0.5
    ],
    "xi0": [
      0.5,
      2.0,
      1.25
    ],
    "tmax": 3,
    "quantities": [
      "ntic",
      "one_step_ntic",
      "info_gain",
      "surprise"
    ],
    "seed": 0,
    "samples": 0,
    "units": "bits",
    "format": "json"
  },
  "columns": [
    "t",
    "ntic",
    "one_step_ntic",
    "info_gain",
    "surprise",
    "method"
  ],
  "rows": [
    {
      "t": 1,
      "ntic": 0.0,
      "one_step_ntic": 0.0,
      "info_gain": 0.3780897145338896,
      "surprise": 1.0704837623618513,
      "method": "exact"
    },
    {
      "t": 2,
      "ntic": 0.8654752972273343,
      "one_step_ntic": -0.62,
      "info_gain": 0.3294091768417419,
      "surprise": 1.1466575270988395,
      "method": "exact"
    },
    {
      "t": 3,
      "ntic": 1.4595820938488977,
      "one_step_ntic": -0.8913685006057713,
      "info_gain": 0.2882199073924888,
      "surprise": 1.2009851085820853,
      "method": "exact"
    }
  ]
}
"""

WITNESS_TAIL = (
    "witness established: the pointwise closure is identical while the "
    "information gains differ, so prior experience stays invisible to it.\n"
)
WITNESS = {
    "nats": (
        "trajectory: 0\n"
        "one-step pointwise closure (shared): 0.0 nats\n"
        "one-step information gain, prior A (1.0, 1.0): 0.19314718055994506 nats\n"
        "one-step information gain, prior B (10.0, 10.0): 0.024375777384517572 nats\n"
        "gain gap: 0.1687714031754275 nats\n" + WITNESS_TAIL
    ),
    "bits": (
        "trajectory: 0\n"
        "one-step pointwise closure (shared): 0.0 bits\n"
        "one-step information gain, prior A (1.0, 1.0): 0.2786524795555179 bits\n"
        "one-step information gain, prior B (10.0, 10.0): 0.035166813150456847 bits\n"
        "gain gap: 0.24348566640506109 bits\n" + WITNESS_TAIL
    ),
}


def stdout_of(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(args))
    assert rc == 0
    return out.getvalue()


@pytest.mark.parametrize(
    "name, extra",
    [
        ("trajectory_phi_bits.json", ("--phi", "0.2,0.3,0.5", "--format", "json", "--units", "bits")),
        ("trajectory_phi_nats.csv", ("--phi", "0.2,0.3,0.5")),
        ("trajectory_nophi_nats.csv", ()),
    ],
)
def test_trajectory_bytes(name, extra):
    assert stdout_of(*TRAJECTORY_ARGS, *extra) == (GOLDEN / name).read_text(encoding="utf-8")


def test_nondyadic_prior_trajectory_bytes():
    out = stdout_of("trajectory", "--traj", TRAJ, *NONDYADIC_XI0, "--phi", "0.2,0.3,0.5")
    assert out == (GOLDEN / "trajectory_xi0_nondyadic_nats.csv").read_text(encoding="utf-8")


def test_long_trajectory_bytes():
    """700 symbols from the non-dyadic start, in bits.

    The shorter files stop at 66 symbols; this one pins the rows past the
    log m! table's doublings and along long digamma and log-gamma columns.
    A trajectory row is evaluated with scalar ``math`` only, with no numpy
    transcendental, so unlike the exact curve below this file does not
    depend on which SIMD kernels numpy dispatches (ROADMAP item 2).
    """
    traj = ",".join(str((i * i + i // 3) % 3) for i in range(700))
    out = stdout_of(
        "trajectory", "--traj", traj, *NONDYADIC_XI0, "--phi", "0.2,0.3,0.5",
        "--format", "json", "--units", "bits",
    )
    assert out == (GOLDEN / "trajectory_long_bits.json").read_text(encoding="utf-8")


def test_nondyadic_prior_exact_curve_bytes():
    out = stdout_of(
        "curve", "--phi", "0.2,0.3,0.5", *NONDYADIC_XI0, "--tmax", "12",
        "--quantities", "ntic,one_step_ntic,info_gain,surprise",
    )
    assert out == (GOLDEN / "curve_xi0_nondyadic_nats.csv").read_text(encoding="utf-8")


def test_long_kernel_rows_bits():
    """``expected_values`` at long rows, as ``float.hex``, recorded from sums in n = 1..t order.

    The rows are K=2 at t = 1000, 1500 and 2000, where a table holds
    thousands of nonzero weights, and K=3 at t = 300 with all five
    quantities.  Like the exact curve above, these bits depend on which SIMD
    kernels numpy dispatches for ``np.exp`` and ``np.log`` (ROADMAP item 2).
    """
    for row in json.loads((GOLDEN / "kernel_long_rows_hex.json").read_text(encoding="utf-8")):
        phi, xi0, t = CategoricalParam(row["phi"]), row["xi0"], row["t"]
        beliefs = bayes.belief_tables(Hyperparameter(xi0), t) if xi0 else None
        values = closure.expected_values(phi, t, tuple(row["values"]), beliefs)
        assert {q: v.hex() for q, v in values.items()} == row["values"], (row["phi"], t)


def test_monte_carlo_curve_bytes(monkeypatch):
    monkeypatch.setattr(closure, "TABLE_TERM_CAP", 3)  # every K=3 row samples
    out = stdout_of(
        "curve", "--phi", "0.2,0.3,0.5", "--xi0", "0.5,2,1.25", "--tmax", "4",
        "--quantities", "ntic,one_step_ntic,info_gain,surprise",
        "--samples", "40", "--seed", "7",
    )
    assert out == CURVE_MC_CSV


@pytest.mark.parametrize("units", ["nats", "bits"])
def test_witness_readme_example_bytes(units):
    out = stdout_of("witness", "--traj", "0", "--xi0-a", "1,1", "--xi0-b", "10,10", "--units", units)
    assert out == WITNESS[units]


def test_exact_curve_json_bytes():
    assert stdout_of(*CURVE_EXACT_ARGS) == CURVE_EXACT_JSON_BITS


def test_config_file_prints_the_same_bytes(tmp_path):
    config = tmp_path / "curve.json"
    config.write_text(json.dumps({
        "phi": [0.2, 0.3, 0.5],
        "xi0": [0.5, 2, 1.25],
        "tmax": 3,
        "quantities": ["ntic", "one_step_ntic", "info_gain", "surprise"],
        "format": "json",
        "units": "bits",
    }))
    assert stdout_of("curve", "--config", str(config)) == CURVE_EXACT_JSON_BITS
