"""Checks for the command-line interface: formats, determinism, exit codes."""

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import infoclosure.cli as cli
import infoclosure.closure as closure
import infoclosure.conformance as conformance
from infoclosure import CategoricalParam, ResourceCapError, ntic, one_step_ntic


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(args))
    return rc, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestCurve:
    def test_deterministic_phi_all_zero(self):
        rc, out, _ = run_cli("curve", "--phi", "1,0", "--tmax", "10")
        header, rows = parse_csv(out)
        assert rc == 0
        assert header == ["t", "ntic", "method"]
        assert len(rows) == 10
        assert all(row[1] == "0.0" for row in rows)

    def test_fair_pair_values(self):
        rc, out, _ = run_cli("curve", "--phi", "0.5,0.5", "--tmax", "2")
        _, rows = parse_csv(out)
        assert rc == 0
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-14)
        assert float(rows[1][1]) == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_one_step_single_row(self):
        rc, out, _ = run_cli(
            "curve", "--phi", "0.5,0.5", "--tmax", "1", "--quantities", "one_step_ntic"
        )
        _, rows = parse_csv(out)
        assert rc == 0
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-14)

    def test_units_bits_spot_check(self):
        rc, out, _ = run_cli("curve", "--phi", "0.5,0.5", "--tmax", "2", "--units", "bits")
        _, rows = parse_csv(out)
        assert rc == 0
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-15)

    def test_csv_and_json_carry_identical_digits(self):
        args = (
            "curve", "--phi", "0.2,0.8", "--xi0", "0.5,2", "--tmax", "5",
            "--quantities", "ntic,one_step_ntic,info_gain,surprise",
        )
        _, csv_text, _ = run_cli(*args)
        _, json_text, _ = run_cli(*args, "--format", "json")
        header, csv_rows = parse_csv(csv_text)
        document = json.loads(json_text)
        assert document["columns"] == header
        assert len(document["rows"]) == len(csv_rows)
        json_dump_digits = json_text  # digits as emitted
        for csv_row, json_row in zip(csv_rows, document["rows"]):
            for column, cell in zip(header, csv_row):
                value = json_row[column]
                if isinstance(value, float):
                    assert repr(value) == cell  # identical digit strings
                    assert cell in json_dump_digits
                else:
                    assert str(value) == cell

    def test_method_column_flags_monte_carlo(self, monkeypatch):
        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 6)
        rc, out, _ = run_cli(
            "curve", "--phi", "0.5,0.5", "--tmax", "4", "--samples", "200", "--seed", "3"
        )
        _, rows = parse_csv(out)
        assert rc == 0
        assert [row[-1] for row in rows] == ["exact", "exact", "mc", "mc"]

    def test_monte_carlo_estimates_track_exact_values(self, monkeypatch):
        # Taken before the patch: the cap refuses the library's t = 4 table too.
        exact = ntic(CategoricalParam((0.5, 0.5)), 4)
        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 6)
        rc, out, _ = run_cli(
            "curve", "--phi", "0.5,0.5", "--tmax", "4", "--samples", "20000", "--seed", "5"
        )
        _, rows = parse_csv(out)
        assert rc == 0
        assert float(rows[3][1]) == pytest.approx(exact, abs=0.02)

    def test_monte_carlo_needs_samples(self, monkeypatch):
        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 6)
        rc, _, err = run_cli("curve", "--phi", "0.5,0.5", "--tmax", "5")
        assert rc == 4
        assert "--samples" in err

    @pytest.mark.parametrize("samples, reason", [("0", "--samples"), ("1000000000", "bytes")])
    def test_monte_carlo_refusal_comes_before_any_row(self, monkeypatch, samples, reason):
        # K = 10: rows 1..14 are exact, 15 and 16 would sample 16 * 10**9 symbols.
        def no_row(*args):
            raise AssertionError("a row was computed before the refusal")

        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 150)
        monkeypatch.setattr(cli, "last_count_weights", no_row)
        monkeypatch.setattr(cli, "sample_trajectories", no_row)
        rc, out, err = run_cli(
            "curve", "--phi", ",".join(["0.1"] * 10), "--tmax", "16", "--samples", samples
        )
        assert rc == 4
        assert out == ""
        assert reason in err

    def test_monte_carlo_refuses_a_negative_seed(self, monkeypatch):
        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 6)
        argv = ("curve", "--phi", "0.5,0.5", "--samples", "10", "--seed", "-1", "--tmax")
        assert run_cli(*argv, "2")[0] == 0  # exact rows never read the seed
        rc, out, err = run_cli(*argv, "3")
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and "seed" in err

    def test_monte_carlo_budget_bounds_samples_times_tmax(self, monkeypatch):
        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 6)
        monkeypatch.setattr(cli, "MC_BUDGET_BYTES", 24 * 200 * 4)
        argv = ("curve", "--phi", "0.5,0.5", "--tmax", "4", "--seed", "3", "--samples")
        assert run_cli(*argv, "200")[0] == 0
        rc, out, err = run_cli(*argv, "201")
        assert rc == 4
        assert out == ""
        assert "19296 bytes" in err

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 4)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"]
        for path, seed in zip(paths, ("9", "9", "10")):
            rc, _, _ = run_cli(
                "curve", "--phi", "0.3,0.7", "--xi0", "1,1", "--tmax", "4",
                "--quantities", "ntic,info_gain", "--samples", "300",
                "--seed", seed, "--out", str(path),
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() != paths[2].read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"phi": [0.5, 0.5], "tmax": 4, "quantities": ["ntic"]})
        )
        rc, out, _ = run_cli("curve", "--config", str(config), "--tmax", "2")
        _, rows = parse_csv(out)
        assert rc == 0
        assert len(rows) == 2  # flag wins over the file's tmax=4

    def test_rejects_pointwise_quantity(self):
        rc, _, err = run_cli(
            "curve", "--phi", "0.5,0.5", "--tmax", "2", "--quantities", "pointwise"
        )
        assert rc == 1
        assert "trajectory" in err

    def test_usage_errors(self):
        assert run_cli("curve", "--phi", "0.5,0.6", "--tmax", "2")[0] == 1
        assert run_cli("curve", "--phi", "0.5,0.5")[0] == 1  # missing tmax
        assert run_cli("curve", "--phi", "0.5,0.5", "--tmax", "2", "--quantities", "x")[0] == 1
        assert run_cli("curve", "--phi", "0.5,0.5", "--xi0", "1,1,1", "--tmax", "2")[0] == 1
        assert run_cli("nonsense")[0] == 1


class TestExactSwitch:
    """Row t is exact exactly when ``last_count_weights`` can build its table."""

    def test_one_symbol_is_refused_before_any_table(self, monkeypatch):
        real, built = cli.last_count_weights, []

        def spy(phi, t):
            built.append(t)
            return real(phi, t)

        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 10)
        monkeypatch.setattr(cli, "last_count_weights", spy)
        rc, out, err = run_cli("curve", "--phi", "1", "--tmax", "20")
        assert (rc, out, built) == (4, "", [])
        assert "11 entries" in err and "cap of 10" in err and "--samples" in err

        rc, out, _ = run_cli("curve", "--phi", "1", "--tmax", "20", "--samples", "5")
        _, rows = parse_csv(out)
        assert rc == 0
        assert [row[-1] for row in rows] == ["exact"] * 9 + ["mc"] * 11
        assert built == list(range(1, 10))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 10])
    def test_first_sampled_row_is_the_first_refused_table(self, monkeypatch, k):
        monkeypatch.setattr(closure, "TABLE_TERM_CAP", 40)
        phi = CategoricalParam((1.0 / k,) * k)
        refused = 1
        while True:
            try:
                closure.last_count_weights(phi, refused)
            except ResourceCapError:
                break
            refused += 1
        assert refused == 40 // k
        phi_text = ",".join(map(repr, phi.probs))
        rc, out, _ = run_cli(
            "curve", "--phi", phi_text, "--tmax", "45", "--samples", "3", "--seed", "1"
        )
        _, rows = parse_csv(out)
        assert rc == 0
        assert [row[-1] for row in rows].index("mc") + 1 == refused

    def test_four_symbols_run_exact_to_t_200(self):
        rc, out, _ = run_cli(
            "curve", "--phi", "0.25,0.25,0.25,0.25", "--xi0", "1,1,1,1", "--tmax", "200",
            "--quantities", "ntic,one_step_ntic,info_gain,surprise",
        )
        header, rows = parse_csv(out)
        assert rc == 0
        assert {row[-1] for row in rows} == {"exact"}
        phi = CategoricalParam((0.25,) * 4)
        for t, row in enumerate(rows, start=1):
            cells = dict(zip(header, row))
            assert float(cells["ntic"]) == ntic(phi, t)
            assert float(cells["one_step_ntic"]) == one_step_ntic(phi, t)


class TestTrajectory:
    def test_per_prefix_values(self):
        rc, out, _ = run_cli(
            "trajectory", "--traj", "0,1,0", "--xi0", "1,1", "--phi", "0.5,0.5"
        )
        header, rows = parse_csv(out)
        assert rc == 0
        assert len(rows) == 3
        by_name = dict(zip(header, rows[2]))
        assert float(by_name["one_step_pointwise_ntic"]) == pytest.approx(math.log(2 / 3))
        assert float(by_name["hindsight_empirical_surprise"]) == pytest.approx(math.log(1.5))
        assert by_name["marginal_surprise_next"] == ""  # no next symbol at the end
        first = dict(zip(header, rows[0]))
        assert float(first["one_step_info_gain"]) == pytest.approx(
            math.log(2) - 0.5, abs=1e-12
        )

    def test_phi_optional(self):
        rc, out, _ = run_cli("trajectory", "--traj", "0,1", "--xi0", "1,1")
        header, rows = parse_csv(out)
        assert rc == 0
        assert dict(zip(header, rows[0]))["pointwise_ntic"] == ""

    def test_empty_trajectory_is_header_only(self):
        rc, out, _ = run_cli("trajectory", "--traj", "", "--xi0", "1,1")
        header, rows = parse_csv(out)
        assert rc == 0
        assert header[0] == "t"
        assert rows == []

    def test_zero_probability_prefix_is_refused(self):
        rc, out, err = run_cli("trajectory", "--phi", "1,0", "--xi0", "1,1", "--traj", "0,1")
        assert rc == 1
        assert "zero probability" in err
        assert out == ""

    def test_symbol_outside_alphabet(self):
        rc, _, err = run_cli("trajectory", "--traj", "0,3", "--xi0", "1,1")
        assert rc == 1
        assert "alphabet" in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("curve", "--phi", "0.5,0.5", "--tmax", "2", "--traj", "0,1"),
            ("trajectory", "--traj", "0,1", "--xi0", "1,1", "--tmax", "5"),
            ("trajectory", "--traj", "0,1", "--xi0", "1,1", "--quantities", "ntic"),
            ("trajectory", "--traj", "0,1", "--xi0", "1,1", "--seed", "2"),
            ("trajectory", "--traj", "0,1", "--xi0", "1,1", "--samples", "3"),
            ("conformance", "--max-k", "2", "--max-t", "1", "--tolerance", "0"),
            ("conformance", "--max-k", "2", "--max-t", "1", "--jobs", "2"),
        ],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, argv):
        rc, out, err = run_cli(*argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")
        assert "unrecognized arguments" in err

    def test_readme_lists_the_flags_each_command_accepts(self):
        assert readme_flags() == parser_flags()


def readme_flags():
    """Each command's flags as README's "Flags, per command" bullets list them."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    first = text.index("\n* ", text.index("Flags, per command"))
    flags = {}
    for bullet in text[first:text.index("\n\n", first)].split("\n* ")[1:]:
        command, listed = bullet.split(":", 1)
        flags[command.strip("`")] = {item.split()[0] for item in re.findall(r"`([^`]+)`", listed)}
    return flags


def parser_flags():
    """Each command's flags as ``cli.build_parser`` accepts them, help aside."""
    (commands,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, parser in commands.choices.items()
    }


Q4 = ["ntic", "one_step_ntic", "info_gain", "surprise"]

# (command, config file, the same values as flags, flags that override the file)
VALID_CONFIGS = [
    (
        "curve",
        {"phi": [0.2, 0.3, 0.5], "xi0": [0.5, 2, 1.25], "tmax": 3, "quantities": Q4,
         "format": "json", "units": "bits"},
        ("--phi", "0.2,0.3,0.5", "--xi0", "0.5,2,1.25", "--tmax", "3",
         "--quantities", ",".join(Q4), "--format", "json", "--units", "bits"),
        ("--units", "nats", "--xi0", "1,1,1"),
    ),
    (
        "curve",
        {"phi": "0.5,0.5", "tmax": "3", "quantities": "ntic,one_step_ntic"},
        ("--phi", "0.5,0.5", "--tmax", "3", "--quantities", "ntic,one_step_ntic"),
        ("--tmax", "2", "--phi", "0.25,0.75"),
    ),
    (
        "curve",
        # K = 10: rows from t = 15 are Monte Carlo.
        {"phi": [0.1] * 10, "xi0": [1] * 10, "tmax": 15, "quantities": ["ntic", "info_gain"],
         "samples": 40, "seed": 3, "format": "json"},
        ("--phi", ",".join(["0.1"] * 10), "--xi0", ",".join(["1"] * 10), "--tmax", "15",
         "--quantities", "ntic,info_gain", "--samples", "40", "--seed", "3", "--format", "json"),
        ("--seed", "4", "--samples", "30"),
    ),
    (
        "trajectory",
        {"traj": [0, 1, 1, 0], "xi0": [1, 2.5], "phi": [0.4, 0.6], "format": "json"},
        ("--traj", "0,1,1,0", "--xi0", "1,2.5", "--phi", "0.4,0.6", "--format", "json"),
        ("--traj", "1,0", "--format", "csv"),
    ),
    (
        "trajectory",
        {"traj": 0, "xi0": 2, "units": "bits"},
        ("--traj", "0", "--xi0", "2", "--units", "bits"),
        ("--traj", "", "--format", "json"),
    ),
]

# (command, config file, text the one error line must hold)
REFUSED_CONFIGS = [
    ("trajectory", {"traj": [0.7, 1.2], "xi0": [1, 1]}, "--traj"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2.9}, "--tmax"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 3.0}, "--tmax"),
    ("curve", {"phi": 5, "tmax": 2}, "--phi"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "samples": True}, "'samples'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "bogus": 1}, "'bogus'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "traj": [0, 1]}, "'traj'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "config": "other.json"}, "'config'"),
    ("trajectory", {"traj": [0, 1], "xi0": [1, 1], "tmax": 5}, "'tmax'"),
    ("trajectory", {"traj": [0, 1], "xi0": [1, 1], "seed": 2}, "'seed'"),
    ("trajectory", {"traj": [0, 1], "xi0": [1, 1], "samples": 3}, "'samples'"),
    ("trajectory", {"traj": [0, 1], "xi0": [1, 1], "quantities": ["ntic"]}, "'quantities'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "xi0": None}, "'xi0'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "quantities": None}, "'quantities'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": None}, "'tmax'"),
    ("trajectory", {"traj": [0, 1], "xi0": [1, 1], "phi": None}, "'phi'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "xi0": ["1/2", "1"]}, "--xi0"),
    ("trajectory", {"traj": [0, 1], "xi0": ["1/2", 1]}, "--xi0"),
    ("curve", {"phi": [[0.5], [0.5]], "tmax": 2}, "'phi'"),
    ("curve", {"phi": {"a": 1}, "tmax": 2}, "'phi'"),
    ("curve", {"phi": [0.5, 0.5], "tmax": 2, "seed": False}, "'seed'"),
    ("curve", ["phi", 0.5], "JSON object"),
]


def write_config(tmp_path, content):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(content))
    return str(path)


class TestConfigFile:
    @pytest.mark.parametrize("command, content, flags, overrides", VALID_CONFIGS)
    def test_file_prints_the_bytes_of_its_flags(self, tmp_path, command, content, flags, overrides):
        config = write_config(tmp_path, content)
        alone = run_cli(command, "--config", config)
        assert alone == run_cli(command, *flags)
        assert alone[0] == 0 and alone[2] == ""
        overridden = run_cli(command, "--config", config, *overrides)
        assert overridden == run_cli(command, *flags, *overrides)
        assert overridden[0] == 0
        assert overridden[1] != alone[1]  # the command line won

    def test_out_key_names_the_output_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        config = write_config(tmp_path, {"phi": [0.5, 0.5], "tmax": 3, "out": str(a)})
        assert run_cli("curve", "--config", config) == (0, "", "")
        assert run_cli("curve", "--phi", "0.5,0.5", "--tmax", "3", "--out", str(b)) == (0, "", "")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, content, named", REFUSED_CONFIGS)
    def test_refused_with_one_error_line(self, tmp_path, command, content, named):
        rc, out, err = run_cli(command, "--config", write_config(tmp_path, content))
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err

    def test_unreadable_file_is_a_usage_error(self, tmp_path):
        rc, out, err = run_cli("curve", "--config", str(tmp_path / "missing.json"))
        assert (rc, out) == (1, "")
        assert err.startswith("error: cannot read config file")
        (tmp_path / "bad.json").write_bytes(b"\xff{")
        rc, out, err = run_cli("curve", "--config", str(tmp_path / "bad.json"))
        assert (rc, out) == (1, "")
        assert err.startswith("error: cannot read config file")


class TestWitness:
    def test_default_example_passes(self):
        rc, out, _ = run_cli("witness", "--traj", "0", "--xi0-a", "1,1", "--xi0-b", "10,10")
        assert rc == 0
        assert "witness established" in out

    def test_pair_example(self):
        rc, out, _ = run_cli("witness", "--traj", "0,1", "--xi0-a", "1,1", "--xi0-b", "5,1")
        assert rc == 0

    def test_identical_priors_exit_two(self):
        rc, _, err = run_cli("witness", "--traj", "0,0", "--xi0-a", "2,2", "--xi0-b", "2,2")
        assert rc == 2
        assert "different priors" in err


class TestConformance:
    def test_small_grid_passes(self, tmp_path):
        report = tmp_path / "report.json"
        rc, out, _ = run_cli(
            "conformance", "--max-k", "2", "--max-t", "3", "--out", str(report)
        )
        assert rc == 0
        assert "checks passed" in out
        document = json.loads(report.read_text())
        assert document["summary"]["failed"] == 0
        record = document["records"][0]
        assert set(record) == {"quantity", "context", "closed_form", "oracle", "abs_diff", "pass"}

    def test_impossible_tolerance_fails_with_exit_three(self, monkeypatch):
        monkeypatch.setattr(conformance, "CLOSURE_TOLERANCE", 0.0)
        rc, out, _ = run_cli("conformance", "--max-k", "2", "--max-t", "3")
        assert rc == 3
        assert "FAILED" in out

    @pytest.mark.parametrize("flags", [("--max-k", "4"), ("--max-k", "1"), ("--max-t", "0")])
    def test_grid_outside_its_definition_is_a_usage_error(self, flags):
        rc, _, err = run_cli("conformance", *flags)
        assert rc == 1
        assert err.startswith("error:")


class TestEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "infoclosure", "curve", "--phi", "1,0", "--tmax", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "t,ntic,method"

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, infoclosure.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_conformance_leaves_scipy_unloaded(self):
        # The quadrature oracle runs here, and it is numpy alone.
        script = (
            "import contextlib, io, sys, infoclosure.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    rc = infoclosure.cli.main(['conformance', '--max-k', '2', '--max-t', '2'])\n"
            "print(rc, 'scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_package_source_never_imports_scipy(self):
        package = Path(cli.__file__).parent
        sources = sorted(package.glob("*.py"))
        assert len(sources) >= 10
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)
