"""Checks for the per-row last-count table and the per-(symbol, count) belief tables.

Exact curve rows reduce one ``closure.last_count_weights`` table, K binomial
rows, against the log relative frequency, the centred log-factorials of the
count entropy and the tables from ``bayes.belief_tables``.  The references
below walk count space one state at a time with the scalar functions, or with
mpmath at 50 digits, and share no array code with it.
"""

import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import infoclosure.bayes as bayes
import infoclosure.cli as cli
import infoclosure.closure as closure
import infoclosure.process as process
from infoclosure import (
    CategoricalParam,
    CountVector,
    Hyperparameter,
    marginal_surprise_from_count,
    one_step_info_gain_from_count,
    symbol_entropy,
)

QUANTITIES = ("ntic", "one_step_ntic", "info_gain", "surprise")


def compositions(k, t):
    """Count vectors of length-t trajectories over k symbols, by brute force."""
    return [c for c in itertools.product(range(t + 1), repeat=k) if sum(c) == t]


def curve_row(phi, xi0, t):
    """An exact curve row of all four quantities, keyed by its columns."""
    return dict(zip(["t", *QUANTITIES, "method"], cli._curve_exact_row(phi, xi0, QUANTITIES, t)))


def scalar_row(phi, xi0, t):
    """The four curve cells as per-state sums of the scalar functions."""
    terms = {q: [] for q in QUANTITIES}
    for counts in compositions(phi.size, t):
        if any(n > 0 and p == 0.0 for n, p in zip(counts, phi.probs)):
            continue
        log_pc = math.log(math.factorial(t)) + math.fsum(
            n * math.log(p) - math.log(math.factorial(n))
            for n, p in zip(counts, phi.probs)
            if n > 0
        )
        c = CountVector(counts)
        for x, n in enumerate(counts):
            if n == 0:
                continue
            p = math.exp(log_pc) * n / t
            terms["ntic"].append(-p * log_pc)
            terms["one_step_ntic"].append(p * math.log(n / t))
            terms["info_gain"].append(p * one_step_info_gain_from_count(xi0, c, x))
            terms["surprise"].append(p * marginal_surprise_from_count(xi0, c, x))
    row = {q: math.fsum(values) for q, values in terms.items()}
    row["ntic"] -= symbol_entropy(phi)
    return row


def mpmath_row(phi, xi0, t):
    """The four curve cells at 50 digits, phi and xi0 read as their exact binary values."""
    with mpmath.workdps(50):
        probs = [mpmath.mpf(p) for p in phi.probs]
        alpha = [mpmath.mpf(float(a)) for a in xi0.alpha]
        total = mpmath.fsum(alpha)
        sums = {q: mpmath.mpf(0) for q in QUANTITIES}
        for counts in compositions(phi.size, t):
            pc = mpmath.factorial(t)
            for n, p in zip(counts, probs):
                pc *= p**n / mpmath.factorial(n)
            if pc == 0:
                continue
            for x, n in enumerate(counts):
                if n == 0:
                    continue
                p = pc * n / t
                a = alpha[x]
                sums["ntic"] -= p * mpmath.log(pc)
                sums["one_step_ntic"] += p * mpmath.log(mpmath.mpf(n) / t)
                sums["info_gain"] += p * (
                    -mpmath.log((a - 1 + n) / (total - 1 + t))
                    + mpmath.digamma(a + n)
                    - mpmath.digamma(total + t)
                )
                sums["surprise"] -= p * mpmath.log((a + n) / (total + t))
        sums["ntic"] += mpmath.fsum(p * mpmath.log(p) for p in probs if p > 0)
        return {q: float(v) for q, v in sums.items()}


@st.composite
def phi_xi0(draw):
    k = draw(st.sampled_from((1, 2, 3, 4)))
    # Integer weights, some zero, give data parameters with zero components.
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
    phi = CategoricalParam(tuple(w / sum(weights) for w in weights))
    # Sub-unit, moderate and strong counter starts.
    xi0 = Hyperparameter(tuple(
        draw(st.lists(st.sampled_from((0.05, 0.3, 1.0, 2.5, 40.0)), min_size=k, max_size=k))
    ))
    return phi, xi0


class TestBeliefTables:
    @pytest.mark.parametrize(
        "alpha", [(1, 1), (0.5, 2), (0.1, 0.7, 3.3), (10, 1, 1), (0.05, 40.0, 2.5, 1)]
    )
    def test_entries_equal_the_scalar_functions_bit_for_bit(self, alpha):
        xi0 = Hyperparameter(alpha)
        k = xi0.size
        for t in (1, 2, 5, 13):
            gain, surprise = bayes.belief_tables(xi0, t)
            assert gain.shape == surprise.shape == (k, t + 1)
            for x in range(k):
                for n in range(1, t + 1):
                    # Any count vector with c_x = n and total t; the rest on one symbol.
                    counts = [0] * k
                    counts[x] = n
                    counts[(x + 1) % k] += t - n
                    c = CountVector(tuple(counts))
                    assert gain[x, n] == one_step_info_gain_from_count(xi0, c, x)
                    assert surprise[x, n] == marginal_surprise_from_count(xi0, c, x)


class TestKernelRows:
    @given(phi_xi0(), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_matches_a_per_state_scalar_sum(self, case, t):
        phi, xi0 = case
        row = curve_row(phi, xi0, t)
        expected = scalar_row(phi, xi0, t)
        for q in QUANTITIES:
            # The floor covers cells that are zero in exact arithmetic
            # (ntic at t = 1 is a difference of two equal entropies).
            assert row[q] == pytest.approx(expected[q], rel=1e-12, abs=1e-15), q

    @pytest.mark.parametrize(
        "phi,xi0",
        [
            ((0.3, 0.7), (0.5, 2)),
            ((0.2, 0.3, 0.5), (1, 0.25, 10)),
            ((0.6, 0.0, 0.4), (2.5, 1, 0.3)),
        ],
    )
    def test_cells_match_mpmath_at_50_digits(self, phi, xi0):
        phi, xi0 = CategoricalParam(phi), Hyperparameter(xi0)
        for t in range(1, 13):
            row = curve_row(phi, xi0, t)
            reference = mpmath_row(phi, xi0, t)
            for q in QUANTITIES:
                assert row[q] == pytest.approx(reference[q], rel=1e-12, abs=1e-15), (t, q)

    @pytest.mark.parametrize(
        "phi,xi0",
        [
            ((0.2, 0.3, 0.5), (1, 0.25, 10)),
            ((0.6, 0.0, 0.4), (2.5, 1, 0.3)),
        ],
    )
    def test_k3_cells_match_the_per_state_sum_at_larger_t(self, phi, xi0):
        phi, xi0 = CategoricalParam(phi), Hyperparameter(xi0)
        for t in (30, 60):
            row = curve_row(phi, xi0, t)
            expected = scalar_row(phi, xi0, t)
            for q in QUANTITIES:
                assert row[q] == pytest.approx(expected[q], rel=1e-12, abs=1e-15), (t, q)

    @pytest.mark.parametrize(
        "probs", [(0.2, 0.3, 0.5), (0.6, 0.0, 0.4), (1.0, 0.0), (0.1, 0.2, 0.3, 0.4)]
    )
    def test_table_groups_the_joint_by_last_symbol_and_its_count(self, probs):
        phi = CategoricalParam(probs)
        for t in (1, 2, 5, 9):
            grouped = {}
            for c, x, p, _ in closure.count_last_distribution(phi, t):
                grouped.setdefault((x, c.counts[x]), []).append(p)
            weights = closure.last_count_weights(phi, t)
            assert weights.shape == (phi.size, t + 1)
            for x in range(phi.size):
                for n in range(t + 1):
                    expected = math.fsum(grouped.get((x, n), []))
                    assert weights[x, n] == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_zero_probability_symbols_are_masked(self):
        phi = CategoricalParam((0.0, 0.5, 0.0, 0.5))
        weights = closure.last_count_weights(phi, 6)
        assert not weights[[0, 2]].any()
        assert (weights[[1, 3], 1:] > 0.0).all()
        assert closure.count_entropy(phi, 6) == pytest.approx(
            closure.count_entropy(CategoricalParam((0.5, 0.5)), 6), rel=1e-14
        )


def full_count_entropy(phi, weights):
    """The count entropy with a term for every column, zero weights included."""
    t = weights.shape[1] - 1
    log_fact = process.log_factorials(t)
    n = np.arange(t + 1)
    terms = [-log_fact[t]]
    for x, p in enumerate(phi.probs):
        if p == 0.0:
            continue
        num, den = p.as_integer_ratio()
        m = t * num // den
        slope = math.log(m + 1)
        binom = np.empty(t + 1)
        binom[0] = math.exp(t * math.log1p(-p)) if p < 1.0 else 0.0
        binom[1:] = t / n[1:] * weights[x, 1:]
        terms += [log_fact[m], slope * ((t * num - m * den) / den), -t * p * math.log(p)]
        terms += (binom * (log_fact - log_fact[m] - slope * (n - m))).tolist()
    return math.fsum(terms)


def full_one_step_ntic(weights):
    """E[log(c_x / t)] with a term for every symbol and count n >= 1."""
    t = weights.shape[1] - 1
    log_frequency = np.log(np.arange(1, t + 1) / t)
    return math.fsum((weights[:, 1:] * log_frequency).ravel().tolist())


def full_table(phi, t):
    """The last-count table, each row rescaled by the ``fsum`` of all its entries, zeros too."""
    weights = np.zeros((phi.size, t + 1))
    log_fact = process.log_factorials(t)
    n = np.arange(1, t + 1)
    for x, p in enumerate(phi.probs):
        if p == 1.0:
            weights[x, t] = 1.0
        elif p > 0.0:
            log_pmf = log_fact[t - 1] - log_fact[n - 1] - log_fact[t - n]
            row = np.exp(log_pmf + n * math.log(p) + (t - n) * math.log1p(-p))
            weights[x, 1:] = row * (p / math.fsum(row.tolist()))
    return weights


def full_expectation(weights, table):
    """The sum of weights[x, n] * table[x, n] with a term for every symbol and count n >= 1."""
    return math.fsum((weights[:, 1:] * table[:, 1:]).ravel().tolist())


class TestNonzeroTerms:
    @pytest.mark.parametrize(
        "probs, t, zero_share",
        [
            ((1.0,), 3000, 0.99),  # K = 1: one nonzero entry per table
            ((1.0, 0.0), 200, 0.99),
            ((0.3, 0.0, 0.7), 60, 0.3),
            ((0.2, 0.3, 0.5), 5000, 0.5),  # underflowing binomial tails
            ((0.5, 0.5), 10**5, 0.85),
        ],
    )
    def test_sums_over_nonzero_weights_equal_the_full_sums_bit_for_bit(
        self, probs, t, zero_share
    ):
        # The kernel builds terms at the nonzero weights only; the references
        # build every column, zero weights included.
        phi = CategoricalParam(probs)
        xi0 = Hyperparameter((0.5,) * phi.size)
        beliefs = bayes.belief_tables(xi0, t)
        weights = closure.last_count_weights(phi, t)
        assert (weights == 0.0).mean() > zero_share
        assert weights.tobytes() == full_table(phi, t).tobytes()
        kernel = closure.expected_values(
            phi, t, ("count_entropy", "one_step_ntic", "info_gain", "surprise"), beliefs
        )
        full = [
            full_count_entropy(phi, weights),
            full_one_step_ntic(weights),
            *(full_expectation(weights, table) for table in beliefs),
        ]
        assert [value.hex() for value in kernel.values()] == [value.hex() for value in full]


class TestOneMaskPerRow:
    def spy(self, monkeypatch):
        """Count the tables built, their scans for nonzero entries and the belief tables."""
        calls = {"tables": 0, "scans": 0, "beliefs": 0}
        table, beliefs = closure.last_count_weights, cli.belief_tables

        class ScannedTable(np.ndarray):
            # A scan of the whole table is an ``argsort`` (``np.argsort`` calls
            # it too), a ``nonzero`` (``np.nonzero`` calls it) or a ``!=`` mask.
            # Each comes back as a plain array, as do the entries a boolean
            # mask reads, so work on what a scan found is free.  A slice stays
            # a ScannedTable, so a scan of ``weights[:, 1:]`` is counted too.
            def __getitem__(self, key):
                entries = super().__getitem__(key)
                if isinstance(key, np.ndarray) and key.dtype == bool:
                    return np.asarray(entries)
                return entries

            def argsort(self, *args, **kwargs):
                calls["scans"] += 1
                return np.asarray(super().argsort(*args, **kwargs))

            def nonzero(self):
                calls["scans"] += 1
                return super().nonzero()

            def __ne__(self, other):
                calls["scans"] += 1
                return np.asarray(super().__ne__(other))

        def counting_table(*args):
            calls["tables"] += 1
            return table(*args).view(ScannedTable)

        def counting_beliefs(*args):
            calls["beliefs"] += 1
            return beliefs(*args)

        monkeypatch.setattr(closure, "last_count_weights", counting_table)
        monkeypatch.setattr(cli, "belief_tables", counting_beliefs)
        return calls

    def test_a_row_of_all_four_quantities_scans_one_table_once(self, monkeypatch):
        calls = self.spy(monkeypatch)
        row = cli._curve_exact_row(
            CategoricalParam((0.2, 0.3, 0.5)), Hyperparameter((1, 2, 3)), QUANTITIES, 40
        )
        assert row[0] == 40 and row[-1] == "exact"
        assert [type(v) for v in row[1:-1]] == [float] * len(QUANTITIES)
        assert calls == {"tables": 1, "scans": 1, "beliefs": 1}

    def test_a_closure_row_builds_no_belief_tables(self, monkeypatch):
        calls = self.spy(monkeypatch)
        phi = CategoricalParam((0.2, 0.3, 0.5))
        cli._curve_exact_row(phi, Hyperparameter((1, 2, 3)), ("ntic", "one_step_ntic"), 40)
        assert calls == {"tables": 1, "scans": 1, "beliefs": 0}


# Finite doubles over 2073 binades, subnormals to 2**999, with either sign and
# both zeros.  A list holds at most 100 of them, so the sum of their
# magnitudes stays below DBL_MAX: past it ``fsum`` raises on an intermediate
# overflow that depends on the order ([1e308, 1e308, -1e308] raises,
# [1e308, -1e308, 1e308] does not).
KERNEL_DOUBLES = st.builds(
    math.ldexp, st.integers(1 - 2**53, 2**53 - 1), st.integers(-1074, 946)
) | st.sampled_from([0.0, -0.0])


@st.composite
def kernel_terms(draw):
    """Up to 50 doubles, then the negations of some of them, so a sum may cancel to 0."""
    terms = draw(st.lists(KERNEL_DOUBLES, max_size=50))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=len(terms))) if terms else []
    return terms + [-term for term in cancelled]


def order_free(total, **options):
    """A hypothesis check that ``total`` does not depend on the order of its terms."""

    @settings(max_examples=100, deadline=None, database=None, **options)
    @given(kernel_terms())
    def check(terms):
        largest_first = sorted(terms, key=abs, reverse=True)
        assert total(terms).hex() == total(largest_first).hex()

    return check


class TestSumOrder:
    """The row kernel hands ``math.fsum`` its terms largest weight first, with the same bits.

    ``fsum`` rounds the exact sum once, so its result cannot depend on the
    order of its terms; largest first keeps its list of partials short.
    """

    def test_fsum_is_order_free_over_the_kernels_domain(self):
        order_free(math.fsum)()

    def test_np_sum_is_not_order_free(self):
        with pytest.raises(AssertionError):
            order_free(lambda terms: float(np.sum(terms)), phases=[Phase.generate])()

    def test_each_sum_reads_every_term_largest_weight_first(self, monkeypatch):
        phi, t = CategoricalParam((0.2, 0.3, 0.5)), 1500
        weights = closure.last_count_weights(phi, t)
        # A gain of 1 makes each info_gain term its weight, and a surprise of
        # the entry's flat index makes each surprise term name its entry.
        index = np.arange(weights.size, dtype=float).reshape(weights.shape)
        beliefs = (np.ones(weights.shape), index)
        fsum, sums = math.fsum, []

        def spy(terms):
            sums.append(list(terms))
            return fsum(sums[-1])

        monkeypatch.setattr(math, "fsum", spy)
        closure.expected_values(
            phi, t, ("count_entropy", "one_step_ntic", "info_gain", "surprise"), beliefs
        )
        monkeypatch.undo()
        *rescalings, entropy, one_step, w, coded = sums

        shuffle = random.Random(26)
        for terms in sums:
            shuffled = shuffle.sample(terms, len(terms))
            assert fsum(terms).hex() == fsum(terms[::-1]).hex() == fsum(shuffled).hex()
        # Negative control: a plain running sum does depend on the order.
        assert any(sum(terms) != sum(terms[::-1]) for terms in sums)

        # Each row's rescaling sum is its weights, largest first.
        assert len(rescalings) == phi.size
        for terms in rescalings:
            assert terms == sorted(terms, reverse=True)
        # The table part of every quantity walks the nonzero entries once,
        # largest weight first, in one order shared by all four sums.
        entries = [round(term / weight) for term, weight in zip(coded, w)]
        assert sorted(entries) == np.flatnonzero(weights).tolist()
        assert w == weights.ravel()[entries].tolist()
        assert w == sorted(w, reverse=True)
        x, n = np.divmod(entries, t + 1)
        log_fact = process.log_factorials(t)
        centre = [t * num // den for num, den in map(float.as_integer_ratio, phi.probs)]
        assert entropy[-len(w):] == [
            t / n_i * w_i * (log_fact[n_i] - log_fact[m] - math.log(m + 1) * (n_i - m))
            for x_i, n_i, w_i in zip(x.tolist(), n.tolist(), w)
            for m in [centre[x_i]]
        ]
        # np.log's last bit depends on numpy's SIMD kernels, math.log's does not.
        assert one_step == pytest.approx(
            [w_i * math.log(n_i / t) for n_i, w_i in zip(n.tolist(), w)], rel=1e-15, abs=0.0
        )


class TestWorkPerRow:
    def test_no_per_state_objects_and_bounded_digamma(self, monkeypatch):
        """An exact K=3 row at t = 20 (231 states) builds no counter per state.

        Its digamma values fill one column per component, psi(a_x + n) for
        n = 1..t, and take one more call for the total; the next row adds
        one entry to each column and one call for its total.
        """
        calls = {"digamma": 0, "add_counts": 0, "Hyperparameter": 0, "CountVector": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        phi = CategoricalParam((0.2, 0.3, 0.5))
        xi0 = Hyperparameter((0.5, 2, 1.25))
        # A fresh wrapper keys fresh columns, so no earlier test's values are reused.
        monkeypatch.setattr(bayes, "digamma", counting("digamma", bayes.digamma))
        monkeypatch.setattr(process, "add_counts", counting("add_counts", process.add_counts))
        for cls in (Hyperparameter, CountVector):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        k, t = 3, 20
        curve_row(phi, xi0, t)
        assert calls["digamma"] <= k * t + 1
        cold = calls["digamma"]
        curve_row(phi, xi0, t + 1)
        assert calls["digamma"] == cold + k + 1
        assert calls["add_counts"] == calls["Hyperparameter"] == calls["CountVector"] == 0


class TestLattice:
    @pytest.mark.parametrize("rows", [1, 4, 32768])
    def test_blocks_are_the_lexicographic_lattice(self, rows):
        # Read the lazy stream a block of `rows` vectors at a time: every
        # block picks up where the last one stopped, in lexicographic order.
        for k in (1, 2, 3, 4):
            for t in (0, 1, 5):
                stream = process.enumerate_counts(k, t)
                blocks = []
                while block := [c.counts for c in itertools.islice(stream, rows)]:
                    blocks.append(block)
                assert all(1 <= len(b) <= rows for b in blocks)
                assert [c for b in blocks for c in b] == sorted(compositions(k, t))

    def test_log_factorials_split(self, monkeypatch):
        # Start from the exact part alone, so both calls below grow the table.
        monkeypatch.setattr(process, "_log_factorial_table", process._EXACT_LOG_FACTORIALS)
        first = process.log_factorials(80)
        second = process.log_factorials(150)
        assert len(first) == 81 and len(second) == 151
        for m in range(151):
            expected = (
                math.log(math.factorial(m)) if m <= 64 else process.log_gamma(m + 1.0)
            )
            assert second[m] == expected
            if m <= 80:
                assert first[m] == expected
        assert process.log_factorials(30).tolist() == second[:31].tolist()
        assert not second.flags.writeable

    def test_log_factorials_grow_without_recomputing(self, monkeypatch):
        monkeypatch.setattr(process, "_log_factorial_table", process._EXACT_LOG_FACTORIALS)
        calls = []

        def counting_log_gamma(z):
            calls.append(z)
            return math.lgamma(z)

        monkeypatch.setattr(process, "log_gamma", counting_log_gamma)
        for n in range(1, 211):
            process.log_factorials(n)
        assert len(calls) == 210 - 64

    def test_a_far_total_is_read_without_growing_the_table(self, monkeypatch):
        # One call at a total far past the table evaluates its entries on
        # their own, the values the grown table holds; a near total grows it.
        monkeypatch.setattr(process, "_log_factorial_table", process._EXACT_LOG_FACTORIALS)
        exact = len(process._EXACT_LOG_FACTORIALS)
        c = CountVector((2 * 10**5 - 101, 100, 1))
        far = process.log_count_cardinality(c)
        assert len(process._log_factorial_table) == exact
        process.log_count_cardinality(CountVector((2 * exact - 1, 1)))
        assert len(process._log_factorial_table) == 2 * exact + 1
        process.log_factorials(2 * 10**5)
        assert process.log_count_cardinality(c).hex() == far.hex()

    def test_log_factorials_grow_by_doubling(self, monkeypatch):
        # An ascending sweep, one new entry per call, reallocates the table's
        # buffer O(log n) times: every slice handed out is a view of one of
        # few buffers, and the entries stay those of a single growth.
        monkeypatch.setattr(process, "_log_factorial_table", process._EXACT_LOG_FACTORIALS)
        buffers = []
        for n in range(10_000 + 1):
            table = process.log_factorials(n)
            assert not table.flags.writeable
            if table.base is not None and all(table.base is not b for b in buffers):
                buffers.append(table.base)
        assert len(buffers) <= math.ceil(math.log2(10_000 / 64)) + 1
        whole = process.log_factorials(10_000)
        assert whole.tolist() == [
            math.log(math.factorial(m)) if m <= 64 else process.log_gamma(m + 1.0)
            for m in range(10_001)
        ]

