"""Checks for the conformance runner and the report surfaces."""

import contextlib
import io
import json

import pytest

import infoclosure.cli as cli
import infoclosure.conformance as conformance
import infoclosure.oracle as oracle
from infoclosure import (
    CategoricalParam,
    DomainError,
    Hyperparameter,
    ntic,
    one_step_ntic,
    run_conformance,
)
from infoclosure.bayes import belief_tables
from infoclosure.closure import expectation, last_count_weights


class TestRunner:
    def test_small_grid_all_pass(self):
        result = run_conformance(max_k=2, max_t=3)
        assert result.total > 0
        assert result.all_passed
        assert result.failed == 0
        assert result.warnings == []

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

    def test_reduced_grid_on_tight_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_JOINT_CAP", 8)
        result = run_conformance(max_k=2, max_t=4)
        # t=4 joints exceed the cap and get skipped, one warning per start.
        assert len(result.warnings) == 5 * len(conformance.XI0_GRIDS[2])
        assert result.all_passed  # skipping is a warning, not a failure

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

        monkeypatch.setattr(conformance, "last_count_weights", counting_table)
        result = run_conformance(max_k=2, max_t=3)
        assert len(tables) == len(set(tables)) == 5 * 3
        # The shared table gives the same closed forms as the two functions.
        monkeypatch.undo()
        for record in result.records:
            context = record.context
            if record.quantity in ("ntic_full_past", "ntic_one_step"):
                phi, t = CategoricalParam(context["phi"]), context["t"]
                expected = (
                    ntic(phi, t).value
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
        result = run_conformance(max_k=3, max_t=8)
        assert len(builds) == len(set(builds)) == 2 * 5 * 8
        assert result.total == 820 and result.all_passed

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
                    weights = last_count_weights(phi, t)
                    gains = []
                    for xi0 in conformance.XI0_GRIDS[k]:
                        gain, _ = belief_tables(Hyperparameter(xi0), t)
                        gains.append(expectation(weights, gain))
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

