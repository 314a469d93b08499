"""The integer belief formulas against the exact-rational expressions they replace.

The belief layer reads the prior as integers over one common denominator
and keeps the digamma and log-gamma values an ascending sweep computes.  The
references below are the ``Fraction`` expressions it used before, with a
fresh special-function call per value.  Python rounds int / int division
and ``float(Fraction)`` alike, so every value must agree to the bit, which
``float.hex`` compares.  The priors include sub-unit and two-decimal floats
(denominators up to 2**59), exact thirds and 1e6; trajectories cross the
total of 64 where the multinomial coefficient switches from the exact
integer to log-gamma.

The call counts pin the work: an ascending sweep of belief tables evaluates
each digamma once, a trajectory row evaluates a fixed number of special
functions, and a single call on a fresh prior evaluates no more points than
its formula reads.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import infoclosure.bayes as bayes
import infoclosure.cli as cli
import infoclosure.process as process
from infoclosure import (
    CategoricalParam,
    CountVector,
    Hyperparameter,
    full_past_info_gain_from_count,
    marginal_surprise_from_count,
    one_step_info_gain_from_count,
    posterior_predictive,
)
from infoclosure.errors import InternalConsistencyError
from infoclosure.special import digamma, log_gamma

# ---------------------------------------------------------------------------
# The exact-rational references
# ---------------------------------------------------------------------------


def ref_posterior_predictive(xi, x):
    return float(xi.alpha[x] / xi.total)


def ref_marginal_surprise(xi0, counts, x):
    post = [a + n for a, n in zip(xi0.alpha, counts)]
    return -math.log(float(post[x] / sum(post, Fraction(0))))


def clamp(value):
    """The KL clamp: rounding artifacts above -1e-12 read 0; below, a refusal."""
    if value >= 0.0:
        return value
    if value > -1e-12:
        return 0.0
    raise InternalConsistencyError(f"KL divergence evaluated to {value!r} < -1e-12")


def ref_surprise_term(a, n, total0, t):
    """The marginal surprise of the last symbol before it was incorporated."""
    return -math.log(float((a - 1 + n) / (total0 - 1 + t)))


def ref_one_step_gain(a, n, total0, t):
    expected_hindsight = -(digamma(float(a + n)) - digamma(float(total0 + t)))
    return clamp(ref_surprise_term(a, n, total0, t) - expected_hindsight)


def ref_full_past(xi0, counts):
    alpha0 = xi0.as_floats()
    total0 = float(xi0.total)
    post = [a + n for a, n in zip(xi0.alpha, counts)]
    alpha1 = [float(a) for a in post]
    total1 = float(sum(post, Fraction(0)))
    log_g = log_gamma(total1) - log_gamma(total0) + math.fsum(
        log_gamma(a0) - log_gamma(a1) for a0, a1 in zip(alpha0, alpha1)
    )
    digamma_total1 = digamma(total1)
    expected = math.fsum(
        n * (digamma(a1) - digamma_total1) for n, a1 in zip(counts, alpha1) if n > 0
    )
    return clamp(log_g + expected)


def ref_belief_tables(xi0, t):
    """Rows [gain, surprise] per symbol, for n = 1..t."""
    total0 = xi0.total
    return [
        (
            [ref_one_step_gain(a, n, total0, t) for n in range(1, t + 1)],
            [-math.log(float((a + n) / (total0 + t))) for n in range(1, t + 1)],
        )
        for a in xi0.alpha
    ]


def ref_pointwise(phi, counts, x):
    """log p(x) - log p(c), the multinomial logged exactly up to a total of 64."""
    t = sum(counts)
    if t <= 64:
        log_card = math.log(process.inverse_count_cardinality(CountVector(counts)))
    else:
        log_card = log_gamma(t + 1.0) - math.fsum(log_gamma(n + 1.0) for n in counts)
    log_p = 0.0
    for n, p in zip(counts, phi.probs):
        if n:
            log_p += n * math.log(p)
    return math.log(phi.probs[x]) - (log_card + log_p)


def ref_trajectory_rows(phi, xi0, traj):
    """The rows as printed (-0.0 folded onto 0.0), or the refusal's message."""
    try:
        return [[v if v != 0.0 else 0.0 for v in row] for row in _ref_rows(phi, xi0, traj)]
    except InternalConsistencyError as exc:
        return str(exc)


def _ref_rows(phi, xi0, traj):
    rows, counts = [], [0] * xi0.size
    for t, x in enumerate(traj, start=1):
        counts[x] += 1
        one_step = math.log(counts[x] / t)
        rows.append([
            ref_pointwise(phi, counts, x),
            one_step,
            -one_step,
            ref_marginal_surprise(xi0, counts, traj[t]) if t < len(traj) else None,
            ref_marginal_surprise(xi0, counts, x),
            ref_one_step_gain(xi0.alpha[x], counts[x], xi0.total, t),
            ref_full_past(xi0, counts),
        ])
    return rows


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


def hexed(values):
    return [None if v is None else float(v).hex() for v in values]


def outcome(fn, *args):
    """``fn(*args)``, or the message of its refusal of a KL below the slack."""
    try:
        return fn(*args)
    except InternalConsistencyError as exc:
        return str(exc)


component = st.one_of(
    st.floats(min_value=0.01, max_value=0.99),  # sub-unit
    st.integers(1, 999).map(lambda n: float(f"{n / 100:.2f}")),  # two decimals, as typed
    st.just(Fraction(1, 3)),
    st.just(1e6),
)


@st.composite
def prior_and_trajectory(draw, max_len=150):
    k = draw(st.integers(1, 3))
    xi0 = Hyperparameter(tuple(draw(st.lists(component, min_size=k, max_size=k))))
    # Long enough, often, to cross the total of 64.
    traj = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=max_len))
    return xi0, traj


def trajectory_rows(phi, xi0, traj):
    """The rows ``trajectory`` prints, in nats, read back from its JSON output,
    or the message of its refusal."""
    args = cli.build_parser().parse_args(["trajectory", "--format", "json"])
    args.phi, args.xi0, args.traj = phi, xi0, tuple(traj)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.cmd_trajectory(args) == 0
    except InternalConsistencyError as exc:
        return str(exc)
    document = json.loads(out.getvalue())
    return [[row[col] for col in cli.TRAJECTORY_COLUMNS] for row in document["rows"]]


# ---------------------------------------------------------------------------
# Bit-for-bit agreement
# ---------------------------------------------------------------------------


class TestAgainstTheRationalReference:
    @given(prior_and_trajectory())
    @settings(max_examples=60, deadline=None)
    def test_trajectory_rows(self, case):
        xi0, traj = case
        # Weights 1..K: no zero component, so every row is defined.
        k = xi0.size
        phi = CategoricalParam(tuple(w / (k * (k + 1) // 2) for w in range(1, k + 1)))
        got = trajectory_rows(phi, xi0, traj)
        expected = ref_trajectory_rows(phi, xi0, traj)
        if isinstance(expected, str):
            # A full-past gain below the clamp's slack (a 1e6 prior loses
            # digits to cancellation); the command refuses with the same value.
            assert got == expected
        else:
            assert [hexed(row) for row in got] == [hexed(row) for row in expected]

    @given(prior_and_trajectory(max_len=1), st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_belief_tables(self, case, t):
        xi0, _ = case
        tables = outcome(bayes.belief_tables, xi0, t)
        expected = outcome(ref_belief_tables, xi0, t)
        if isinstance(expected, str):
            assert tables == expected
            return
        gain, surprise = tables
        for x, (g, s) in enumerate(expected):
            assert hexed(gain[x, 1:].tolist()) == hexed(g)
            assert hexed(surprise[x, 1:].tolist()) == hexed(s)

    def test_belief_tables_in_an_ascending_sweep(self):
        # Each row reads the digamma columns the rows before it grew; equal
        # components share a column.
        xi0 = Hyperparameter((0.37, 0.37, Fraction(1, 3)))
        for t in range(1, 80):
            gain, surprise = bayes.belief_tables(xi0, t)
            expected = ref_belief_tables(xi0, t)
            for x, (g, s) in enumerate(expected):
                assert hexed(gain[x, 1:].tolist()) == hexed(g)
                assert hexed(surprise[x, 1:].tolist()) == hexed(s)

    @given(prior_and_trajectory(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_scalars(self, case, data):
        xi0, traj = case
        counts = tuple(traj.count(x) for x in range(xi0.size))
        c = CountVector(counts)
        last = traj[-1]
        x = data.draw(st.integers(0, xi0.size - 1))
        assert posterior_predictive(xi0, x).hex() == ref_posterior_predictive(xi0, x).hex()
        assert marginal_surprise_from_count(xi0, c, x).hex() == (
            ref_marginal_surprise(xi0, counts, x).hex()
        )
        gain = outcome(one_step_info_gain_from_count, xi0, c, last)
        expected = outcome(ref_one_step_gain, xi0.alpha[last], counts[last], xi0.total, len(traj))
        if isinstance(expected, str):
            assert gain == expected
        else:
            assert gain.hex() == expected.hex()
        # The gain's surprise term is the marginal surprise at the prefix counts.
        prefix = CountVector(tuple(n - (y == last) for y, n in enumerate(counts)))
        assert marginal_surprise_from_count(xi0, prefix, last).hex() == (
            ref_surprise_term(xi0.alpha[last], counts[last], xi0.total, len(traj)).hex()
        )
        full_past = outcome(full_past_info_gain_from_count, xi0, c)
        expected = outcome(ref_full_past, xi0, counts)
        if isinstance(expected, str):
            assert full_past == expected
        else:
            assert full_past.hex() == expected.hex()

    def test_scalars_far_past_the_kept_values(self):
        # A count far beyond any kept column is evaluated on its own.
        xi0 = Hyperparameter((0.37, 2.5))
        for counts in [(10**7, 3), (5, 10**9)]:
            c = CountVector(counts)
            assert full_past_info_gain_from_count(xi0, c).hex() == ref_full_past(xi0, counts).hex()
            value = ref_one_step_gain(xi0.alpha[1], counts[1], xi0.total, sum(counts))
            assert one_step_info_gain_from_count(xi0, c, 1).hex() == value.hex()


# ---------------------------------------------------------------------------
# Work
# ---------------------------------------------------------------------------


def counting(calls, name, fn):
    def wrapper(z):
        calls[name] += 1
        return fn(z)

    return wrapper


class TestSpecialFunctionCalls:
    def test_an_ascending_belief_table_sweep_evaluates_each_digamma_once(self, monkeypatch):
        calls = {"digamma": 0}
        # A fresh wrapper keys fresh columns, so nothing computed before is reused.
        monkeypatch.setattr(bayes, "digamma", counting(calls, "digamma", bayes.digamma))
        xi0 = Hyperparameter((0.37, 2.5, 1.13))
        k, t_max = 3, 300
        for t in range(1, t_max + 1):
            bayes.belief_tables(xi0, t)
        # psi(a_x + n) and psi(|xi0| + n) for n = 1..t_max: O(K * T), not O(K * T^2).
        assert calls["digamma"] == (k + 1) * t_max

    def test_a_trajectory_row_makes_a_fixed_number_of_calls(self, monkeypatch):
        calls = {"digamma": 0, "log_gamma": 0, "log_gamma_counts": 0}
        monkeypatch.setattr(bayes, "digamma", counting(calls, "digamma", bayes.digamma))
        monkeypatch.setattr(bayes, "log_gamma", counting(calls, "log_gamma", bayes.log_gamma))
        monkeypatch.setattr(
            process, "log_gamma", counting(calls, "log_gamma_counts", process.log_gamma)
        )
        # Start the log m! table from its exact part, m <= 64, as a fresh process does.
        monkeypatch.setattr(process, "_log_factorial_table", process._EXACT_LOG_FACTORIALS)
        phi = CategoricalParam((0.2, 0.3, 0.5))
        xi0 = Hyperparameter((0.37, 2.5, 1.13))
        length = 150
        traj = [(i * i + i // 3) % 3 for i in range(length)]
        trajectory_rows(phi, xi0, traj)
        # Per row: psi at the moved component and at the new total, and
        # log-gamma at both; log-gamma of the prior's K components and total
        # once.
        assert calls["digamma"] == 2 * length
        assert calls["log_gamma"] == 2 * length + 3 + 1
        # log Gamma(m + 1) for m = 65..t, each once: one per row from t = 65,
        # the first row whose multinomial is logged through the log m! table.
        assert calls["log_gamma_counts"] == length - 64

    def test_a_single_call_on_a_fresh_prior_evaluates_only_its_own_points(self, monkeypatch):
        calls = {"digamma": 0, "log_gamma": 0}
        monkeypatch.setattr(bayes, "digamma", counting(calls, "digamma", bayes.digamma))
        monkeypatch.setattr(bayes, "log_gamma", counting(calls, "log_gamma", bayes.log_gamma))
        xi0 = Hyperparameter((0.37, 2.5, 1.13))
        c = CountVector((4000, 5, 0))
        one_step_info_gain_from_count(xi0, c, 0)
        # psi at the last symbol's component and at the total; no column is
        # filled up to a count of 4000.
        assert calls == {"digamma": 2, "log_gamma": 0}
        full_past_info_gain_from_count(xi0, c)
        # At most the parent formula's own points: psi at the two nonzero
        # counts and the total, log-gamma at the K components and the total
        # before and after.
        assert calls["digamma"] == 2 + 3
        assert calls["log_gamma"] <= 2 * (3 + 1)
