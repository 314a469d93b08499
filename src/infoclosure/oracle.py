"""Brute-force and quadrature oracles for the closed-form measures.

Everything here recomputes quantities from first-principles definitions so
the closed forms elsewhere in the package can be machine-checked:

* ``build_joint`` unrolls the chain to depth t by enumerating every
  nonzero-probability trajectory; the counter states before and after the
  last observation are derived per trajectory (the kernel is deterministic,
  so the table is keyed by trajectory alone and no float-valued keys arise);
* the mutual-information / transfer-entropy oracles evaluate their
  definitional sums over the joint's marginals, with no closed-form
  shortcuts -- the transfer-entropy oracle additionally computes the
  unsimplified conditional information against the whole past and checks
  that the two agree.  Both sums group the rows by the one ``pair``
  grouping below, so the check catches rows that disagree with groups they
  share, but neither a damaged row probability on a table grouped afresh nor
  a fault in that grouping;
* the quadrature oracle integrates the Beta-Beta KL divergence numerically,
  with a tanh-sinh rule, to validate the log-gamma/digamma closed form of the
  full-past information gain.

Each marginal groups the table's rows by its key: the counter state after
the last observation, the one before it, the last observation, or a tuple of
these.  The counter is deterministic, state = prev + e_last, so any two of
the three fix the third and every tuple key groups the rows as (last, state)
does.  The rows thus have four groupings, ``state``, ``prev``, ``last`` and
``pair``, the last serving (last, state), (last, prev), (state, prev) and the
triple alike.  A row's key is one integer code, with a digit of radix t + 1
per count of each state it names and a digit of radix K for the last symbol,
so each grouping is one sort.  A table owns one array per grouping, each
group's probability one exactly rounded ``math.fsum`` over its members,
independent of enumeration order, and ``JointTable._marginal`` alone reads
it, at a row, an array of rows or every row.  Each definitional sum is one
numpy term array, over the rows or over the ``pair`` groups' representative
rows, reduced with one ``math.fsum``.

A counter state is the start xi0 plus the counts, a one-to-one relabelling,
so the groups need no state labels, and neither they nor the definitional
sums read the start: one table per (phi, t) serves every start.  The
pointwise oracle reads each marginal at the trajectory's own row.  Nor do
the rows and their groups read phi: they depend on the alphabet size K, the
support of phi and t alone.  The enumeration and the four sorts form a
layout, kept for the last (K, support, t) asked for, and a table sums its
own probabilities over the layout's groups, so one layout per
(K, support, t) serves every phi.  Its symbols are of the smallest unsigned
dtype that holds K - 1, uint8 up to K = 256.

The quadrature is numpy alone: a tanh-sinh rule whose Beta densities are
normalised with the standard library's ``math.lgamma`` rather than this
package's own log-gamma, keeping the two routes of every
closed-form-vs-oracle comparison free of shared code.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    InternalConsistencyError,
    QuadratureError,
    ResourceCapError,
)
from .process import (
    CategoricalParam,
    Hyperparameter,
    check_at_least,
    check_size,
    check_symbol,
    count,
)

#: Most trajectories ``build_joint`` may enumerate.
DEFAULT_JOINT_CAP = 10**6

#: Largest count the layout's int16 counts hold, so the longest trajectory ``build_joint`` takes.
_MAX_COUNT = int(np.iinfo(np.int16).max)

#: Tolerance of the internal d-separation consistency check.
_DSEP_TOL = 1e-10

#: Finest level of the tanh-sinh quadrature: its step is 2**-_TS_MAX_LEVEL.
_TS_MAX_LEVEL = 12

#: The quadrature's nodes stop where the Beta density has fallen by e**-_TS_TAIL.
_TS_TAIL = 60.0

#: Ulps of each ``math.lgamma`` term the quadrature's mass check allows for
#: the rounding of the density's normaliser.
_TS_LGAMMA_ULPS = 4

#: Largest mixed-radix group code; a longer key is re-ranked before it overflows int64.
_CODE_LIMIT = 2**62

Mode = Literal["full_past", "one_step"]


class _Partition(NamedTuple):
    """The rows of a layout grouped by one key."""

    order: np.ndarray  # (rows,) rows sorted by key, so each group is contiguous
    bounds: tuple[int, ...]  # (groups + 1,) start of each group in order, then rows
    inverse: np.ndarray  # (rows,) group of each row
    rep: np.ndarray  # (groups,) one row of each group


class _Layout(NamedTuple):
    """The rows of every joint of one (K, support, t) and their four partitions."""

    trajectories: np.ndarray  # (n, t) of the smallest dtype that holds K - 1
    counts: np.ndarray  # (n, k) int16
    partitions: Mapping[str, _Partition]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _partition(rows: int, columns: Iterable[tuple[np.ndarray, int]]) -> _Partition:
    """Group ``rows`` rows by a key of integer columns, read one at a time.

    Column j takes values in 0..radix_j - 1.  The key's mixed-radix code is
    re-ranked densely whenever the next digit could overflow, and one sort of
    the codes numbers the groups in ascending key order.
    """
    code = np.zeros(rows, dtype=np.int64)
    size = 1
    for column, radix in columns:
        if size * radix > _CODE_LIMIT:
            _, code = np.unique(code, return_inverse=True)
            size = int(code.max()) + 1
        code = code * radix + column
        size *= radix
    # int32 indices: a layout holds at most DEFAULT_JOINT_CAP rows.
    order = np.argsort(code).astype(np.int32)
    code = code[order]
    new_group = np.concatenate(([True], code[1:] != code[:-1]))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    bounds = (*starts.tolist(), len(order))
    return _Partition(_frozen(order), bounds, _frozen(inverse), _frozen(order[starts]))


@functools.lru_cache(maxsize=1)
def _layout(k: int, support: tuple[int, ...], t: int) -> _Layout:
    """Every trajectory of length t over ``support``, its counts and their four partitions.

    Rows are in lexicographic order of the trajectories.  Memoised for the
    last (k, support, t) asked for; the layout is read-only, since every
    table built from it shares it.
    """
    m = len(support)
    n = m**t
    idx = np.arange(n, dtype=np.int64)
    # Support positions and symbols both lie in 0..k - 1: uint8 for k <= 256.
    trajs = np.empty((n, t), dtype=np.min_scalar_type(k - 1))
    divisor = n
    for j in range(t):
        divisor //= m
        trajs[:, j] = (idx // divisor) % m
    support_map = np.asarray(support, dtype=trajs.dtype)
    trajs = support_map[trajs]

    counts = np.empty((n, k), dtype=np.int16)
    for x in range(k):
        counts[:, x] = (trajs == x).sum(axis=1)

    last = trajs[:, -1].astype(np.int64)
    state = [(column, t + 1) for column in counts.T]
    # The previous counts, one column at a time: an (n, k) copy would take
    # four times the int16 counts.
    prev = ((counts[:, x] - (last == x), t + 1) for x in range(k))
    partitions = {
        "state": _partition(n, state),
        "prev": _partition(n, prev),
        "last": _partition(n, [(last, k)]),
        # Any two of (last, state, prev) fix the third, so this also groups
        # the rows by (last, prev), (state, prev) and all three.
        "pair": _partition(n, [(last, k), *state]),
    }
    return _Layout(_frozen(trajs), _frozen(counts), types.MappingProxyType(partitions))


@dataclass
class JointTable:
    """Joint distribution of (trajectory, previous counter state, counter state).

    Rows enumerate every nonzero-probability trajectory of length t; both
    counter states are uniquely determined per row, so only the trajectory is
    stored, in lexicographic order of the trajectories over phi's support.
    The rows, their counts and their groupings come from a layout that
    tables of the same (K, support, t) share, so ``trajectories`` and
    ``counts`` are read-only; ``probs`` and its group sums are the table's
    own.  The table holds no start: the row groupings depend on neither phi
    nor the start.  There are four: ``state``, ``prev``, ``last`` and
    ``pair``, which every key naming two or three of them shares.
    """

    k: int
    t: int
    phi: CategoricalParam
    probs: np.ndarray  # (n,) float
    _layout: _Layout = field(repr=False)
    _groups: dict = field(default_factory=dict, repr=False)

    @property
    def trajectories(self) -> np.ndarray:
        return self._layout.trajectories

    @property
    def counts(self) -> np.ndarray:
        return self._layout.counts

    def __len__(self) -> int:
        return self.trajectories.shape[0]

    def prob(self, traj: Sequence[int]) -> float:
        """Probability of one trajectory, recomputed the same way the table was built."""
        c = count(traj, self.k)
        check_size("trajectory", c.total, "table depth", self.t)
        p = 1.0
        for x, n in enumerate(c.counts):
            if n:
                p *= self.phi.probs[x] ** n
        return p

    # -- groupings ---------------------------------------------------------
    def _ensure_groups(self) -> dict[str, np.ndarray]:
        """Each grouping's group probabilities: one ``math.fsum`` over each group's rows."""
        groups = self._groups
        if not groups:
            for name, part in self._layout.partitions.items():
                probs = self.probs[part.order].tolist()
                bounds = part.bounds
                groups[name] = np.array([math.fsum(probs[a:b]) for a, b in zip(bounds, bounds[1:])])
        return groups

    def _marginal(self, name: str, rows) -> np.ndarray:
        """Probability of the ``name`` group each of ``rows`` (index, array or slice) belongs to."""
        return self._ensure_groups()[name][self._layout.partitions[name].inverse[rows]]


def exceeds_joint_cap(m: int, t: int) -> bool:
    """Whether m**t trajectories exceed ``DEFAULT_JOINT_CAP``, read at call time.

    m**cap.bit_length() > cap for m >= 2, so a huge t needs no huge power.
    """
    cap = DEFAULT_JOINT_CAP
    return m ** min(t, cap.bit_length()) > cap


def build_joint(phi: CategoricalParam, xi0: Hyperparameter, t: int) -> JointTable:
    """Enumerate all nonzero-probability trajectories of length t >= 1.

    The table does not depend on the start xi0, which is checked for size
    only.  Raises ``AlphabetMismatchError`` when xi0 and phi differ in size
    and ``ResourceCapError``, before anything is allocated, when the
    enumeration would exceed ``DEFAULT_JOINT_CAP`` trajectories or t exceeds
    the largest count the int16 counts hold.  Raises ``DomainError`` when a
    trajectory's probability underflows to 0, and
    ``InternalConsistencyError`` if the probabilities fail to sum to 1
    within 1e-12.
    """
    check_size("hyperparameter", xi0.size, "parameter", phi.size)
    t = check_at_least("t", t, 1)
    support = phi.support
    m = len(support)
    if exceeds_joint_cap(m, t):
        raise ResourceCapError(
            f"joint table for t={t} would enumerate {m}**{t} trajectories, exceeding "
            f"the cap of {DEFAULT_JOINT_CAP}; reduce t"
        )
    if t > _MAX_COUNT:
        raise ResourceCapError(
            f"joint table for t={t} would count past {_MAX_COUNT}, the most its "
            f"int16 counts hold; reduce t"
        )

    n = m**t
    layout = _layout(phi.size, support, t)
    probs = np.ones(n, dtype=float)
    for x in support:
        probs *= phi.probs[x] ** layout.counts[:, x]

    if not probs.all():
        raise DomainError(
            f"a trajectory probability of phi={phi.probs} at t={t} underflows to 0"
        )
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-12:
        raise InternalConsistencyError(
            f"joint probabilities sum to {total!r}, off from 1 by more than 1e-12"
        )
    return JointTable(k=phi.size, t=t, phi=phi, probs=probs, _layout=layout)


# ---------------------------------------------------------------------------
# Definitional information measures
# ---------------------------------------------------------------------------


def oracle_mutual_information(joint: JointTable, mode: Mode) -> float:
    """I(whole past : state) or I(last observation : state) by definitional sums."""
    if mode == "full_past":
        # p(trajectory, state) equals p(trajectory): the state is determined.
        rows, p_joint, p_past = slice(None), joint.probs, joint.probs
    elif mode == "one_step":
        rows = joint._layout.partitions["pair"].rep
        p_joint, p_past = joint._ensure_groups()["pair"], joint._marginal("last", rows)
    else:
        raise DomainError(f"unknown mode {mode!r}, expected 'full_past' or 'one_step'")
    terms = p_joint * np.log(p_joint / (p_past * joint._marginal("state", rows)))
    return math.fsum(terms.tolist())


def oracle_transfer_entropy(joint: JointTable) -> float:
    """I(state : last observation | previous state) by definitional sums.

    Also evaluates the unsimplified I(state : whole past | previous state)
    and raises ``InternalConsistencyError`` if the two disagree beyond 1e-10
    (they coincide by the chain's conditional-independence structure).

    The check's reach is limited.  Both sums read the ``pair`` grouping for
    the triple, (state, previous) and (last, previous) keys, and the
    simplified sum is the whole-past sum with its rows grouped, so the two
    agree for any row probabilities.  The check catches rows whose
    probabilities disagree with groups they share.  It cannot catch a damaged
    row probability on a table grouped afresh, nor a fault in the ``pair``
    grouping; the tests check it against each key's row partition
    recomputed from the trajectories.
    """
    # Against the last observation, over the ``pair`` groups: the triple,
    # (state, previous) and (last, previous) keys all read ``pair``.  Against
    # the whole past, over the rows: p(state, trajectory, previous) and
    # p(trajectory, previous) both equal p(trajectory), the states being determined.
    pair_rows = joint._layout.partitions["pair"].rep
    sums = []
    for rows, p in ((pair_rows, joint._ensure_groups()["pair"]), (slice(None), joint.probs)):
        terms = p * np.log(joint._marginal("prev", rows) * p / (joint._marginal("pair", rows) * p))
        sums.append(math.fsum(terms.tolist()))
    simplified, unsimplified = sums
    if abs(simplified - unsimplified) > _DSEP_TOL:
        raise InternalConsistencyError(
            f"transfer entropy against the last observation ({simplified!r}) and "
            f"against the whole past ({unsimplified!r}) differ by more than {_DSEP_TOL}"
        )
    return simplified


def oracle_ntic(phi: CategoricalParam, xi0: Hyperparameter, t: int, mode: Mode) -> float:
    """Closure at time t recomputed from the definitional joint table."""
    joint = build_joint(phi, xi0, t)
    return oracle_mutual_information(joint, mode) - oracle_transfer_entropy(joint)


def oracle_pointwise_ntic(joint: JointTable, traj: Sequence[int], mode: Mode) -> float:
    """Pointwise closure of one trajectory from the joint's marginals.

    Definitional log-ratios only; no closed-form shortcuts.  Each marginal
    is read at the group of the trajectory's own row, whose index is the
    trajectory's rank in base ``len(phi.support)``: the rows enumerate the
    trajectories in that order.
    """
    p_traj = joint.prob(traj)  # checks the symbols and refuses a length other than the table's
    if p_traj == 0.0:
        raise DomainError("trajectory has zero probability under the table's parameter")
    support = joint.phi.support
    row = 0
    for x in traj:
        row = row * len(support) + support.index(x)
    p_state, p_prev, p_last, p_pair = (
        float(joint._marginal(name, row)) for name in ("state", "prev", "last", "pair")
    )
    p_last_state = p_triple = p_state_pair = p_last_prev = p_pair

    if mode == "full_past":
        # log p(state | whole past) - log p(state)
        p_state_given_past = p_traj / p_traj  # state is determined by the past
        mi_pw = math.log(p_state_given_past) - math.log(p_state)
    elif mode == "one_step":
        p_state_given_last = p_last_state / p_last
        mi_pw = math.log(p_state_given_last) - math.log(p_state)
    else:
        raise DomainError(f"unknown mode {mode!r}, expected 'full_past' or 'one_step'")

    p_last_given_both = p_triple / p_state_pair
    p_last_given_prev = p_last_prev / p_prev
    te_pw = math.log(p_last_given_both) - math.log(p_last_given_prev)
    return mi_pw - te_pw


# ---------------------------------------------------------------------------
# Quadrature oracles (Beta case)
# ---------------------------------------------------------------------------


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_log_moment_quadrature(
    a: float, b: float, kappa: tuple[float, float, float], abs_tol: float = 1e-8
) -> float:
    """Integrate Beta(x; a, b) * (k0 + k1*ln(x) + k2*ln(1-x)) over (0, 1).

    A tanh-sinh rule (Takahasi & Mori, 1974): x = 1 / (1 + exp(-pi sinh u))
    turns the endpoint singularities of x^(a-1) (1-x)^(b-1) ln x into tails
    that decay double exponentially in u, where the trapezoid rule converges
    exponentially.  Both logarithms are taken in log domain from s = pi sinh u,
    so no node rounds to an endpoint.  The nodes stop at
    |u| = asinh(60 / (pi min(a, b, 1))), where the slower tail has fallen by
    e^-60; an exponent below 1 widens the range, so its tail mass is kept.

    Each level halves the step and adds only the new odd nodes.  The density
    is normalised with ``math.lgamma`` and the log moments are divided by the
    rule's own integral of it, so the normaliser's rounding cancels.  The
    error estimate at a level is the larger of the change since the previous
    level and the distance of that integral from 1, which also flags a peak
    that every node has missed.  That distance carries the normaliser's
    rounding, so it is taken less ``_TS_LGAMMA_ULPS`` ulps of each of
    lgamma(a), lgamma(b) and lgamma(a + b).  Raises ``QuadratureError`` when
    the estimate still exceeds ``abs_tol`` at step 2^-``_TS_MAX_LEVEL``.

    Range, measured for k = (0, 1, 0) and (0, 0, 1) on the grid
    a, b in {1, 3} * 10^n, n = -6..7, against mpmath at 50 digits:
        abs_tol = 1e-10 : converges for 1e-6 <= a, b <= 1e6.  The absolute
                          error is <= 1e-14 for 0.05 <= a, b <= 1e5,
                          <= 3e-14 for 0.05 <= a, b <= 1e6, <= 4e-12 for
                          a, b >= 1e-4 and <= 3e-10 for a, b >= 1e-6, where
                          the log moments grow like 1 / min(a, b).
        abs_tol = 1e-8  : converges for 1e-6 <= a, b <= 1e6, absolute error
                          <= 2e-12 for a, b >= 0.05, <= 2e-11 for
                          a, b >= 1e-4 and <= 1e-9 for a, b >= 1e-6.
    Above 1e6 the finest step stops resolving the peak, and the rule
    refuses some pairs: (3e6, 3e6) leaves an estimate of 6.9e-9 at 1e-10, and
    (1e7, 1e7) leaves 2.4e-3.
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"Beta exponents must be positive, got ({a!r}, {b!r})")
    k0, k1, k2 = kappa
    # log(pi / B(a, b)): the density's normaliser and the constant of dx/du.
    log_scale = math.log(math.pi) - _log_beta(a, b)
    u_max = math.asinh(_TS_TAIL / (math.pi * min(a, b, 1.0)))
    # The rule's integral of the density carries the rounding of the lgamma
    # normaliser, which the self-normalised value does not.
    mass_slack = _TS_LGAMMA_ULPS * math.fsum(math.ulp(math.lgamma(z)) for z in (a, b, a + b))

    def node_sums(j: np.ndarray, step: float) -> np.ndarray:
        """Sums of w, w ln x and w ln(1-x) over the nodes u = j * step."""
        u = step * j
        s = math.pi * np.sinh(u)
        log_x = -np.logaddexp(0.0, -s)
        log_1mx = -np.logaddexp(0.0, s)
        # w = Beta(x; a, b) dx/du = x^a (1-x)^b pi cosh(u) / B(a, b)
        w = np.exp(a * log_x + b * log_1mx + log_scale) * np.cosh(u)
        return np.array([w.sum(), (w * log_x).sum(), (w * log_1mx).sum()])

    def moment(sums: np.ndarray) -> float:
        mass, moment_x, moment_1mx = sums.tolist()
        # A level whose nodes all miss the density is refused by its mass alone.
        return k0 + (k1 * moment_x + k2 * moment_1mx) / mass if mass else k0

    step = 1.0
    last = int(u_max)
    sums = node_sums(np.arange(-last, last + 1), step)
    value = moment(sums)
    for _level in range(_TS_MAX_LEVEL):
        step /= 2
        last = int(u_max / step)
        j = np.arange(-last, last + 1)
        sums += node_sums(j[j % 2 != 0], step)
        previous, value = value, moment(sums)
        estimate = max(abs(value - previous), abs(step * float(sums[0]) - 1.0) - mass_slack)
        if estimate <= abs_tol:
            return value
    raise QuadratureError(
        f"quadrature error estimate {estimate!r} exceeds the requested {abs_tol!r} "
        f"for Beta exponents ({a!r}, {b!r}) with log coefficients {kappa!r}"
    )


def oracle_kl_quadrature(
    xi_post: Hyperparameter, xi_prior: Hyperparameter, abs_tol: float = 1e-8
) -> float:
    """KL divergence between two Beta beliefs by numerical integration.

    Only the two-symbol case is supported: the Dirichlet density then reduces
    to a one-dimensional Beta density and the KL integrand is integrated on
    (0, 1) to ``abs_tol`` by the rule's error estimate.
    """
    if xi_post.size != 2 or xi_prior.size != 2:
        raise DomainError("the quadrature oracle covers the two-symbol (Beta) case only")
    a1, b1 = xi_post.as_floats()
    a0, b0 = xi_prior.as_floats()
    k0 = _log_beta(a0, b0) - _log_beta(a1, b1)
    return beta_log_moment_quadrature(a1, b1, (k0, a1 - a0, b1 - b0), abs_tol=abs_tol)


def oracle_expected_log_predictive(xi: Hyperparameter, x: int) -> float:
    """Belief-expected log probability of x by numerical integration.

    Uses the Beta marginal of a single Dirichlet component, so it works for
    any alphabet size; serves as the independent route against the digamma
    closed form.  The quadrature runs to an error estimate of 1e-10.
    """
    check_symbol(x, xi.size)
    if xi.size == 1:
        return 0.0  # the belief is a point mass at probability 1
    a = float(xi.alpha[x])
    b = float(xi.total - xi.alpha[x])
    return beta_log_moment_quadrature(a, b, (0.0, 1.0, 0.0), abs_tol=1e-10)
