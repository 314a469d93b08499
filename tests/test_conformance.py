"""Checks for the conformance runner and the report surfaces."""

import contextlib
import hashlib
import io
import json

import pytest

import infoclosure.cli as cli
import infoclosure.closure as closure
import infoclosure.conformance as conformance
import infoclosure.oracle as oracle
from infoclosure import (
    CategoricalParam,
    DomainError,
    Hyperparameter,
    ResourceCapError,
    ntic,
    one_step_ntic,
    run_conformance,
)
from infoclosure.bayes import belief_tables
from infoclosure.closure import expected_values, last_count_weights


class TestRunner:
    def test_small_grid_all_pass(self):
        result = run_conformance(max_k=2, max_t=3)
        assert result.total > 0
        assert result.all_passed
        assert result.failed == 0

    def test_quantities_covered(self):
        result = run_conformance(max_k=3, max_t=2)
        quantities = {r.quantity for r in result.records}
        assert quantities == {
            "ntic_full_past",
            "ntic_one_step",
            "ntic_full_past_xi0_spread",
            "ntic_one_step_xi0_spread",
            "full_past_info_gain_vs_quadrature",
        }

    def test_grid_over_the_joint_cap_is_refused_before_any_joint(self, monkeypatch):
        # The cap is read at call time: 2**3 rows fit a cap of 8, 2**4 do not.
        builds = []
        build = conformance.build_joint

        def counting_build(phi, xi0, t):
            builds.append(t)
            return build(phi, xi0, t)

        monkeypatch.setattr(oracle, "DEFAULT_JOINT_CAP", 8)
        monkeypatch.setattr(conformance, "build_joint", counting_build)
        with pytest.raises(ResourceCapError, match="2\\*\\*4 trajectories"):
            run_conformance(max_k=2, max_t=4)
        assert builds == []
        # At the cap the whole grid runs: every point of every data parameter.
        result = run_conformance(max_k=2, max_t=3)
        assert sorted(builds) == sorted([1, 2, 3] * len(conformance.PHI_GRIDS[2]))
        points = len(conformance.PHI_GRIDS[2]) * 3
        starts = len(conformance.XI0_GRIDS[2])
        quadrature = starts * len(conformance.KL_COUNT_GRID)
        assert result.total == points * (2 * starts + 2) + quadrature
        assert result.all_passed

    def test_zero_tolerance_fails(self, monkeypatch):
        monkeypatch.setattr(conformance, "CLOSURE_TOLERANCE", 0.0)
        result = run_conformance(max_k=2, max_t=2)
        assert not result.all_passed

    def test_grid_bounds(self):
        with pytest.raises(DomainError):
            run_conformance(max_k=4)
        with pytest.raises(DomainError):
            run_conformance(max_k=1)
        with pytest.raises(DomainError):
            run_conformance(max_t=0)

    def test_default_grid_is_the_commands(self, tmp_path):
        report = tmp_path / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["conformance", "--out", str(report)]) == 0
        records = json.loads(report.read_text())["records"]
        assert records == [r.to_json_dict() for r in run_conformance().records]

    def test_one_kernel_pass_per_grid_point(self, monkeypatch):
        tables = []

        def counting_table(phi, t):
            tables.append((phi.probs, t))
            return last_count_weights(phi, t)

        monkeypatch.setattr(closure, "last_count_weights", counting_table)
        result = run_conformance(max_k=2, max_t=3)
        assert len(tables) == len(set(tables)) == 5 * 3
        # The shared table gives the same closed forms as the two functions.
        monkeypatch.undo()
        for record in result.records:
            context = record.context
            if record.quantity in ("ntic_full_past", "ntic_one_step"):
                phi, t = CategoricalParam(context["phi"]), context["t"]
                expected = (
                    ntic(phi, t)
                    if record.quantity == "ntic_full_past"
                    else one_step_ntic(phi, t)
                )
                assert record.closed_form == expected

    def test_one_joint_per_grid_point(self, monkeypatch):
        builds = []
        build = conformance.build_joint

        def counting_build(phi, xi0, t, *args, **kwargs):
            builds.append((phi.probs, t))
            return build(phi, xi0, t, *args, **kwargs)

        monkeypatch.setattr(conformance, "build_joint", counting_build)
        oracle._layout.cache_clear()
        result = run_conformance(max_k=3, max_t=8)
        assert len(builds) == len(set(builds)) == 2 * 5 * 8
        assert result.total == 820 and result.all_passed
        # The five data parameters of one (k, t) share the oracle's row
        # layout: the grid enumerates each (k, t) once, not once per phi.
        assert oracle._layout.cache_info().misses == 2 * 8

    def test_one_oracle_evaluation_per_grid_point(self, monkeypatch):
        calls = []
        transfer_entropy = conformance.oracle_transfer_entropy

        def counting_te(joint):
            calls.append((joint.phi.probs, joint.t))
            return transfer_entropy(joint)

        monkeypatch.setattr(conformance, "oracle_transfer_entropy", counting_te)
        result = run_conformance(max_k=3, max_t=4)
        assert len(calls) == len(set(calls)) == 2 * 5 * 4
        assert result.all_passed

    def test_spread_check_can_fail(self):
        # Negative control: the expected one-step information gain depends on
        # the counter start, so its spread over the start grid fails the
        # check the start-independent closure passes.
        for k in (2, 3):
            for probs in conformance.PHI_GRIDS[k]:
                phi = CategoricalParam(probs)
                for t in range(1, 9):
                    gains = [
                        expected_values(
                            phi, t, ("info_gain",), belief_tables(Hyperparameter(xi0), t)
                        )["info_gain"]
                        for xi0 in conformance.XI0_GRIDS[k]
                    ]
                    spread = max(gains) - min(gains)
                    assert spread > conformance.XI0_SPREAD_TOL
                    record = conformance._record(
                        "gain_spread", {}, 0.0, spread, conformance.XI0_SPREAD_TOL
                    )
                    assert not record.passed

    def test_record_shape(self):
        record = run_conformance(max_k=2, max_t=1).records[0].to_json_dict()
        assert set(record) == {
            "quantity",
            "context",
            "closed_form",
            "oracle",
            "abs_diff",
            "pass",
        }


class TestReportBytes:
    # sha256 of the benchmark grid's report: stdout without --out, and the
    # --out file with the stdout printed beside it.  The run order of the grid
    # and the oracle's sharing of work between tables may change; these bytes
    # may not.  A change to them is a change to the report, made on purpose.
    STDOUT = "7f1069e112a9f8c24cc1cdfdd1cbd30b8e806976688c243f1f951eb7e28d74ca"
    OUT_FILE = "4cb1ea0c69aaa9342e54fa8ebb4049808abd2a5530e22fa290cfd1146d7df2bc"
    OUT_STDOUT = "d1fdc1f8b9ba2c8b25ca81863cfef73ca9942fad594bbf6d79cf6a4c84b564e8"

    @staticmethod
    def run(*args):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["conformance", "--max-k", "3", "--max-t", "8", *args]) == 0
        return hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()

    def test_benchmark_grid_report_is_byte_stable(self, tmp_path):
        assert self.run() == self.STDOUT
        report = tmp_path / "report.json"
        assert self.run("--out", str(report)) == self.OUT_STDOUT
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.OUT_FILE
