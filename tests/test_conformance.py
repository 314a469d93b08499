"""Checks for the conformance runner and the report surfaces."""

import pytest

import infoclosure.conformance as conformance
from infoclosure import DomainError, run_conformance


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

    def test_reduced_grid_on_tight_cap(self):
        result = run_conformance(max_k=2, max_t=4, joint_cap=8)
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

