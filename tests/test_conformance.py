"""Checks for the conformance runner and the report surfaces."""

import pytest

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
        assert result.warnings  # t=4 joints exceed the cap and get skipped
        assert result.all_passed  # skipping is a warning, not a failure

    def test_zero_tolerance_fails(self):
        result = run_conformance(max_k=2, max_t=2, tolerance=0.0)
        assert not result.all_passed

    def test_parallel_matches_serial(self):
        serial = run_conformance(max_k=2, max_t=3)
        parallel = run_conformance(max_k=2, max_t=3, jobs=2)
        assert [r.to_json_dict() for r in serial.records] == [
            r.to_json_dict() for r in parallel.records
        ]

    def test_grid_bounds(self):
        with pytest.raises(DomainError):
            run_conformance(max_k=4)
        with pytest.raises(DomainError):
            run_conformance(max_k=1)
        with pytest.raises(DomainError):
            run_conformance(max_t=0)

    @pytest.mark.parametrize("cpus, max_t, expected", [(4, 2, 4), (64, 1, 5)])
    def test_jobs_clamped_to_cpus_and_grid_points(self, monkeypatch, cpus, max_t, expected):
        # The k=2 grid has 5 data parameters, so max_t=1 gives 5 points and
        # max_t=2 gives 10.  The fake pool runs serially and spawns nothing.
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(conformance, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(conformance.os, "cpu_count", lambda: cpus)
        result = run_conformance(max_k=2, max_t=max_t, jobs=10**6)
        assert seen == [expected]
        assert result.all_passed

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

