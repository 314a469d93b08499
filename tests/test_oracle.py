"""Checks for the definitional oracles themselves.

The oracles are ground truth for everything else, so they get their own
direct scrutiny: hand-counted joint tables, textbook values of the component
information measures, the internal independence cross-check and the limit of
its reach, and quadrature against exact special values and against mpmath at
50 digits.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import infoclosure.oracle as oracle
from infoclosure import (
    CategoricalParam,
    CountVector,
    DomainError,
    Hyperparameter,
    InternalConsistencyError,
    QuadratureError,
    ResourceCapError,
    add_counts,
    build_joint,
    count,
    count_entropy,
    ntic,
    one_step_ntic,
    one_step_pointwise_ntic,
    oracle_kl_quadrature,
    oracle_mutual_information,
    oracle_ntic,
    oracle_transfer_entropy,
    pointwise_ntic,
    symbol_entropy,
)
from infoclosure.conformance import KL_COUNT_GRID, PHI_GRIDS, XI0_GRIDS
from infoclosure.oracle import (
    beta_log_moment_quadrature,
    oracle_expected_log_predictive,
    oracle_pointwise_ntic,
)

UNIFORM2 = CategoricalParam((0.5, 0.5))
XI_FLAT2 = Hyperparameter((1, 1))


class TestBuildJoint:
    def test_uniform_cube(self):
        joint = build_joint(UNIFORM2, XI_FLAT2, 3)
        assert len(joint) == 8
        assert all(p == 0.125 for p in joint.probs)

    def test_deterministic_process(self):
        joint = build_joint(CategoricalParam((1.0, 0.0)), XI_FLAT2, 5)
        assert len(joint) == 1
        assert joint.probs[0] == 1.0

    def test_three_symbols(self):
        joint = build_joint(
            CategoricalParam((0.2, 0.3, 0.5)), Hyperparameter((1, 1, 1)), 2
        )
        assert len(joint) == 9
        assert math.fsum(joint.probs.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        # 2**30 trajectories, over the cap of 10**6; refused before any array is built.
        with pytest.raises(ResourceCapError, match="1073741824 trajectories"):
            build_joint(UNIFORM2, XI_FLAT2, 30)

    def test_checks_sizes(self):
        with pytest.raises(DomainError):
            build_joint(UNIFORM2, Hyperparameter((1, 1, 1)), 2)

    def test_needs_positive_depth(self):
        with pytest.raises(DomainError):
            build_joint(UNIFORM2, XI_FLAT2, 0)

    def test_entries_kernel_consistency(self):
        # Every (state, last, previous state) group's state must be the
        # previous state plus a one-hot of the last symbol, and states derive
        # from the start plus the counts of t and t - 1 symbols.
        xi0 = Hyperparameter((0.5, 2))
        joint = build_joint(CategoricalParam((0.3, 0.7)), xi0, 3)
        triples = joint.marginals()["p_triple"]
        for xi_t, last, xi_prev in triples:
            diff = [after - before for after, before in zip(xi_t, xi_prev)]
            expected = [0] * joint.k
            expected[last] = 1
            assert diff == expected
            assert sum(xi_t) - xi0.total == joint.t
            assert all((a - a0).denominator == 1 for a, a0 in zip(xi_prev, xi0.alpha))
        assert len(triples) == 6  # (count of symbol 0 in the first 2, last symbol)
        assert math.fsum(triples.values()) == pytest.approx(1.0, abs=1e-12)

    def test_underflowing_row_is_refused(self):
        # 1e-200 squared underflows to 0, which no definitional log-ratio takes.
        with pytest.raises(DomainError):
            build_joint(CategoricalParam((1e-200, 1.0)), XI_FLAT2, 2)

    def test_prob_lookup(self):
        joint = build_joint(CategoricalParam((0.2, 0.8)), XI_FLAT2, 3)
        assert joint.prob((1, 1, 0)) == pytest.approx(0.8 * 0.8 * 0.2)
        with pytest.raises(DomainError):
            joint.prob((0, 1))


class TestOracleMutualInformation:
    def test_deterministic_is_zero(self):
        joint = build_joint(CategoricalParam((1.0, 0.0)), XI_FLAT2, 4)
        assert oracle_mutual_information(joint, "full_past") == pytest.approx(0.0)
        assert oracle_mutual_information(joint, "one_step") == pytest.approx(0.0)

    def test_single_step_reveals_symbol(self):
        joint = build_joint(UNIFORM2, XI_FLAT2, 1)
        assert oracle_mutual_information(joint, "full_past") == pytest.approx(math.log(2))

    def test_two_steps_full_past_is_count_entropy(self):
        joint = build_joint(UNIFORM2, XI_FLAT2, 2)
        assert oracle_mutual_information(joint, "full_past") == pytest.approx(
            1.5 * math.log(2), abs=1e-14
        )

    def test_unknown_mode(self):
        joint = build_joint(UNIFORM2, XI_FLAT2, 1)
        with pytest.raises(DomainError):
            oracle_mutual_information(joint, "weekly")


class TestOracleTransferEntropy:
    def test_deterministic_is_zero(self):
        joint = build_joint(CategoricalParam((1.0, 0.0)), XI_FLAT2, 4)
        assert oracle_transfer_entropy(joint) == pytest.approx(0.0)

    def test_uniform_equals_log2(self):
        for t in (1, 2, 4):
            joint = build_joint(UNIFORM2, XI_FLAT2, t)
            assert oracle_transfer_entropy(joint) == pytest.approx(math.log(2), abs=1e-12)

    def test_biased_equals_symbol_entropy(self):
        phi = CategoricalParam((0.25, 0.75))
        for t in (1, 3):
            joint = build_joint(phi, XI_FLAT2, t)
            assert oracle_transfer_entropy(joint) == pytest.approx(
                symbol_entropy(phi), abs=1e-12
            )


class TestOracleNtic:
    def test_t_one_is_zero(self):
        assert oracle_ntic(UNIFORM2, XI_FLAT2, 1, "full_past") == pytest.approx(0.0)

    def test_two_step_value(self):
        assert oracle_ntic(UNIFORM2, XI_FLAT2, 2, "full_past") == pytest.approx(
            0.5 * math.log(2), abs=1e-12
        )

    def test_one_step_matches_closed_form(self):
        phi = CategoricalParam((0.3, 0.7))
        assert oracle_ntic(phi, XI_FLAT2, 5, "one_step") == pytest.approx(
            one_step_ntic(phi, 5), abs=1e-10
        )

    def test_full_past_matches_closed_form(self):
        phi = CategoricalParam((0.2, 0.3, 0.5))
        xi0 = Hyperparameter((0.5, 2, 2))
        for t in (1, 2, 4, 6):
            assert oracle_ntic(phi, xi0, t, "full_past") == pytest.approx(
                ntic(phi, t), abs=1e-10
            )


class TestOraclePointwise:
    @pytest.mark.parametrize(
        "probs,xi0",
        [((0.5, 0.5), (1, 1)), ((0.2, 0.8), (0.5, 2)), ((0.2, 0.3, 0.5), (3, 3, 3))],
    )
    def test_full_past_matches_closed_form(self, probs, xi0):
        phi = CategoricalParam(probs)
        joint = build_joint(phi, Hyperparameter(xi0), 4)
        for row in joint.trajectories.tolist():
            traj = tuple(row)
            assert oracle_pointwise_ntic(joint, traj, "full_past") == pytest.approx(
                pointwise_ntic(phi, traj), abs=1e-12
            )

    @pytest.mark.parametrize(
        "probs,xi0",
        [((0.5, 0.5), (1, 1)), ((0.2, 0.8), (10, 1)), ((0.2, 0.3, 0.5), (1, 1, 1))],
    )
    def test_one_step_matches_relative_frequency(self, probs, xi0):
        phi = CategoricalParam(probs)
        joint = build_joint(phi, Hyperparameter(xi0), 5)
        for row in joint.trajectories.tolist():
            traj = tuple(row)
            assert oracle_pointwise_ntic(joint, traj, "one_step") == pytest.approx(
                one_step_pointwise_ntic(traj), abs=1e-12
            )

    def test_zero_probability_trajectory(self):
        joint = build_joint(CategoricalParam((1.0, 0.0)), XI_FLAT2, 3)
        with pytest.raises(DomainError):
            oracle_pointwise_ntic(joint, (0, 1, 0), "one_step")


class TestQuadrature:
    def test_equal_parameters_give_zero(self):
        xi = Hyperparameter((2.5, 4))
        assert oracle_kl_quadrature(xi, xi) == pytest.approx(0.0, abs=1e-12)

    def test_first_observation_value(self):
        value = oracle_kl_quadrature(Hyperparameter((2, 1)), XI_FLAT2)
        assert value == pytest.approx(math.log(2) - 0.5, abs=1e-8)

    def test_against_exact_symmetric_case(self):
        # KL[Beta(2,2) || Beta(1,1)] = ln 6 + 2 * (Psi(2) - Psi(4)), with
        # exact harmonic numbers: Psi(2) - Psi(4) = -(1/2 + 1/3) = -5/6.
        exact = math.log(6.0) - 2.0 * (5.0 / 6.0)
        value = oracle_kl_quadrature(Hyperparameter((2, 2)), XI_FLAT2)
        assert value == pytest.approx(exact, abs=1e-8)

    def test_three_three_case_matches_closed_form(self):
        from infoclosure import full_past_info_gain

        value = oracle_kl_quadrature(Hyperparameter((3, 3)), XI_FLAT2)
        assert value == pytest.approx(full_past_info_gain(XI_FLAT2, (0, 0, 1, 1)), abs=1e-7)

    def test_requires_two_symbols(self):
        with pytest.raises(DomainError):
            oracle_kl_quadrature(Hyperparameter((1, 1, 1)), Hyperparameter((1, 1, 1)))

    def test_expected_log_predictive_integer_identities(self):
        assert oracle_expected_log_predictive(XI_FLAT2, 0) == pytest.approx(-1.0, abs=1e-10)
        assert oracle_expected_log_predictive(Hyperparameter((2, 1)), 0) == pytest.approx(
            -0.5, abs=1e-10
        )

    def test_expected_log_predictive_point_mass(self):
        assert oracle_expected_log_predictive(Hyperparameter((3,)), 0) == 0.0

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-0.5, 2.0), (2.0, -3.0), (math.nan, 1.0)])
    def test_exponents_must_be_positive(self, a, b):
        with pytest.raises(DomainError):
            beta_log_moment_quadrature(a, b, (0.0, 1.0, 0.0))

    @pytest.mark.parametrize("a,b", [(1e7, 1e7), (1e7, 3e7)])
    def test_unresolved_peak_is_refused(self, a, b):
        # The peak is far narrower than the finest step: on (1e7, 1e7) the
        # coarse levels agree exactly, because one node sits on the peak, and
        # on (1e7, 3e7) every coarse node misses it.  Only the density's mass
        # shows either.
        with pytest.raises(QuadratureError, match="error estimate"):
            beta_log_moment_quadrature(a, b, (0.0, 1.0, 0.0), abs_tol=1e-10)

    def test_a_normaliser_off_by_more_than_its_rounding_is_refused(self, monkeypatch):
        # A shift of log B(a, b) leaves the self-normalised value unchanged;
        # only the mass shows it, once past the allowance for the lgamma
        # rounding (3.7e-9 here).  Unshifted, (1e5, 1e5) resolves (LARGE).
        log_beta = oracle._log_beta
        monkeypatch.setattr(oracle, "_log_beta", lambda a, b: log_beta(a, b) + 1e-8)
        with pytest.raises(QuadratureError, match="error estimate"):
            beta_log_moment_quadrature(1e5, 1e5, (0.0, 1.0, 0.0), abs_tol=1e-10)


def mpmath_log_moments(a, b, kappa):
    """k0 + k1 E[ln x] + k2 E[ln(1-x)] under Beta(a, b), at 50 digits."""
    k0, k1, k2 = kappa
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        total = mpmath.digamma(a + b)
        return float(k0 + k1 * (mpmath.digamma(a) - total) + k2 * (mpmath.digamma(b) - total))


def mpmath_beta_kl(post, prior):
    (a1, b1), (a0, b0) = post, prior
    with mpmath.workdps(50):
        k0 = mpmath.log(mpmath.beta(a0, b0) / mpmath.beta(a1, b1))
        return mpmath_log_moments(a1, b1, (k0, a1 - a0, b1 - b0))


def kl_grid():
    for xi0 in XI0_GRIDS[2]:
        for counts in KL_COUNT_GRID:
            yield xi0, tuple(x + c for x, c in zip(xi0, counts))


SUB_UNIT = [(0.5, 0.5), (0.05, 0.05), (0.05, 0.5), (0.5, 3.0), (20.0, 0.05)]
LARGE = [(1e3, 1e3), (1e3, 1e4), (1e4, 1e4), (1e4, 2.5), (0.5, 5e3), (1e5, 1e5), (1e6, 1e6)]


class TestQuadratureAccuracy:
    """The tanh-sinh rule against mpmath at 50 digits, to 1e-12 absolute."""

    @pytest.mark.parametrize("xi0,post", list(kl_grid()))
    def test_conformance_grid_kl(self, xi0, post):
        reference = mpmath_beta_kl(post, xi0)
        value = oracle_kl_quadrature(Hyperparameter(post), Hyperparameter(xi0), abs_tol=1e-10)
        assert abs(value - reference) <= 1e-12
        a0, b0 = xi0
        a1, b1 = post
        kappa = (math.log(2.5), a1 - a0, b1 - b0)
        assert abs(
            beta_log_moment_quadrature(a1, b1, kappa, abs_tol=1e-10) - mpmath_log_moments(a1, b1, kappa)
        ) <= 1e-12

    @pytest.mark.parametrize("xi0,post", list(kl_grid()))
    def test_conformance_grid_expected_log_predictive(self, xi0, post):
        xi = Hyperparameter(post)
        a, b = post
        for x, kappa in ((0, (0.0, 1.0, 0.0)), (1, (0.0, 0.0, 1.0))):
            reference = mpmath_log_moments(a, b, kappa)
            assert abs(oracle_expected_log_predictive(xi, x) - reference) <= 1e-12

    @pytest.mark.parametrize("a,b", SUB_UNIT + LARGE)
    def test_sub_unit_and_large_exponents(self, a, b):
        for kappa in ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.25, -1.5, 2.0)):
            value = beta_log_moment_quadrature(a, b, kappa, abs_tol=1e-10)
            assert abs(value - mpmath_log_moments(a, b, kappa)) <= 1e-12
        xi = Hyperparameter((a, b))
        for x, kappa in ((0, (0.0, 1.0, 0.0)), (1, (0.0, 0.0, 1.0))):
            assert abs(oracle_expected_log_predictive(xi, x) - mpmath_log_moments(a, b, kappa)) <= 1e-12


class TestInternalConsistency:
    def test_dsep_check_runs_clean_on_grid(self):
        # The simplified and whole-past conditional informations coincide for
        # every grid point; the oracle enforces it internally.
        for probs in [(0.5, 0.5), (0.1, 0.9), (0.2, 0.3, 0.5)]:
            phi = CategoricalParam(probs)
            xi0 = Hyperparameter((1,) * len(probs))
            for t in (1, 2, 4):
                oracle_transfer_entropy(build_joint(phi, xi0, t))

    def test_damaged_row_fails_the_dsep_check(self):
        # A copy sharing the table's groups, one of whose rows no longer
        # matches them: the per-row whole-past sum and the grouped sum part.
        joint = build_joint(CategoricalParam((0.3, 0.7)), XI_FLAT2, 4)
        oracle_transfer_entropy(joint)
        probs = joint.probs.copy()
        probs[5] *= 1.01
        damaged = dataclasses.replace(joint, probs=probs)
        with pytest.raises(InternalConsistencyError):
            oracle_transfer_entropy(damaged)

    def test_damaged_row_on_fresh_groups_passes_the_dsep_check(self):
        # The check's limit: for this deterministic counter the triple,
        # (state, previous) and (last, previous) partitions coincide, so the
        # grouped and whole-past sums agree for any row probabilities once the
        # groups are recomputed from the damaged rows.
        joint = build_joint(CategoricalParam((0.3, 0.7)), XI_FLAT2, 4)
        probs = joint.probs.copy()
        probs[5] *= 1.01
        regrouped = dataclasses.replace(joint, probs=probs, _groups={})
        damaged = oracle_transfer_entropy(regrouped)
        assert damaged != oracle_transfer_entropy(joint)
        assert damaged == pytest.approx(0.611, abs=1e-3)

    def test_probability_sum_guard(self):
        # A parameter at the edge of its own normalization gate drifts past
        # the joint's tighter budget once probabilities are multiplied out.
        phi = CategoricalParam((0.5, 0.5 - 9e-13))
        with pytest.raises(InternalConsistencyError):
            build_joint(phi, XI_FLAT2, 2)


def xi0_grid(k):
    return [Hyperparameter(v) for v in [(1,) * k, (0.5,) + (2,) * (k - 1), (10,) + (1,) * (k - 1)]]


class TestMarginals:
    @pytest.mark.parametrize("probs", [(0.3, 0.7), (0.2, 0.3, 0.5), (0.5, 0.0, 0.5)])
    def test_oracle_sums_match_across_starts(self, probs):
        # The conformance grid evaluates the oracle once per (phi, t) for every
        # start; that holds because tables built afresh at different starts
        # give bit-identical sums (``hex`` tells -0.0 from 0.0).
        phi = CategoricalParam(probs)
        for t in range(1, 7):
            joints = [build_joint(phi, xi0, t) for xi0 in xi0_grid(len(probs))]
            for mode in ("full_past", "one_step"):
                assert len({oracle_mutual_information(j, mode).hex() for j in joints}) == 1
            assert len({oracle_transfer_entropy(j).hex() for j in joints}) == 1

    @pytest.mark.parametrize("xi0", [(1, 1, 1), (0.5, 2, 2), (10, 1, 1)])
    def test_keys_are_realised_states(self, xi0):
        xi0 = Hyperparameter(xi0)
        joint = build_joint(CategoricalParam((0.2, 0.3, 0.5)), xi0, 3)
        marginals = joint.marginals()
        states, prevs, triples = set(), set(), set()
        for row in joint.trajectories.tolist():
            x = row[-1]
            state = add_counts(xi0, count(row, 3)).alpha
            prev = add_counts(xi0, count(row[:-1], 3)).alpha
            states.add(state)
            prevs.add(prev)
            triples.add((state, x, prev))
        assert set(marginals["p_state"]) == states
        assert set(marginals["p_prev"]) == prevs
        assert set(marginals["p_last"]) == {0, 1, 2}
        assert set(marginals["p_triple"]) == triples
        assert set(marginals["p_last_state"]) == {(x, s) for s, x, _ in triples}
        assert set(marginals["p_last_prev"]) == {(x, p) for _, x, p in triples}
        assert set(marginals["p_state_pair"]) == {(s, p) for s, _, p in triples}
        for table in marginals.values():
            assert math.fsum(table.values()) == pytest.approx(1.0, abs=1e-12)
        # The state probability of a count vector, under its realised label.
        c = CountVector((1, 1, 1))
        assert marginals["p_state"][add_counts(xi0, c).alpha] == pytest.approx(6 * 0.2 * 0.3 * 0.5)

    def test_long_keys_are_reranked(self):
        # 50 symbols at t=2: a mixed-radix code of radix 3 reaches 2 * 3^49,
        # far beyond 64 bits.
        phi = CategoricalParam((1 / 50,) * 50)
        joint = build_joint(phi, Hyperparameter((1,) * 50), 2)
        states = list(joint.marginals()["p_state"])
        assert len(states) == 50 * 51 // 2
        # Groups come in ascending key order, which a wrapped code would scramble.
        assert states == sorted(states)
        assert oracle_mutual_information(joint, "full_past") == pytest.approx(
            count_entropy(phi, 2), abs=1e-12
        )


def oracle_sums(joint):
    """The grid's three oracle sums, as bits (``hex`` tells -0.0 from 0.0)."""
    return [
        oracle_mutual_information(joint, "full_past").hex(),
        oracle_mutual_information(joint, "one_step").hex(),
        oracle_transfer_entropy(joint).hex(),
    ]


class TestSharedLayout:
    # Tables of one (K, support, t) share one row layout, kept for the last
    # (K, support, t) built; only their probabilities are their own.

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_shared_layout_gives_the_sums_of_a_fresh_one(self, k):
        grid = PHI_GRIDS[k]
        xi0 = Hyperparameter(XI0_GRIDS[k][0])
        unrelated = CategoricalParam((0.5, 0.5) if k == 3 else (0.2, 0.3, 0.5))
        for t in range(1, 7):
            for i, probs in enumerate(grid):
                phi = CategoricalParam(probs)
                build_joint(CategoricalParam(grid[i - 1]), xi0, t)
                before = oracle._layout.cache_info()
                shared = build_joint(phi, xi0, t)
                assert oracle._layout.cache_info().hits == before.hits + 1
                build_joint(unrelated, Hyperparameter((1,) * unrelated.size), t)
                before = oracle._layout.cache_info()
                fresh = build_joint(phi, xi0, t)
                assert oracle._layout.cache_info().misses == before.misses + 1
                assert oracle_sums(shared) == oracle_sums(fresh)

    def test_support_is_part_of_the_key(self):
        xi0 = Hyperparameter((1, 1, 1))
        for t in range(1, 6):
            assert len(build_joint(CategoricalParam((0.2, 0.3, 0.5)), xi0, t)) == 3**t
            joint = build_joint(CategoricalParam((0.5, 0.0, 0.5)), xi0, t)
            assert len(joint) == 2**t
            assert 1 not in joint.trajectories
            assert joint.probs.tolist() == [0.5**t] * 2**t

    def test_shared_arrays_are_read_only(self):
        joint = build_joint(CategoricalParam((0.3, 0.7)), XI_FLAT2, 3)
        with pytest.raises(ValueError, match="read-only"):
            joint.trajectories[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            joint.counts[0, 0] = 0
        for part in joint._layout.partitions.values():
            for index in (part.order, part.inverse, part.rep):
                assert index.dtype == np.int32
                assert not index.flags.writeable

    def test_interleaved_builds_agree(self):
        a = (CategoricalParam((0.2, 0.8)), XI_FLAT2, 5)
        b = (CategoricalParam((0.2, 0.3, 0.5)), Hyperparameter((1, 1, 1)), 4)
        first = build_joint(*a)
        sums = oracle_sums(first)
        other = build_joint(*b)
        oracle_sums(other)
        again = build_joint(*a)
        assert oracle_sums(again) == sums
        assert again.trajectories.tolist() == first.trajectories.tolist()
        assert again.probs.tolist() == first.probs.tolist()
        assert first.marginals() == again.marginals()
