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
  that the two agree.  For this deterministic counter the two sums group the
  rows by the same partition, so the check catches a faulty grouping code, or
  rows that disagree with groups they share, but not a damaged row
  probability on a table grouped afresh;
* the quadrature oracle integrates the Beta-Beta KL divergence numerically,
  with a tanh-sinh rule, to validate the log-gamma/digamma closed form of the
  full-past information gain.

Each marginal groups the table's rows by its own key: the counter state
before or after the last observation, the last observation, or a tuple of
these.  A row's key is one integer code, with a digit of radix t + 1 per
count of each state it names and a digit of radix K for the last symbol,
so the grouping is one sort per marginal, and each group's probability is
one exactly rounded ``math.fsum`` over its members, independent of
enumeration order.  The per-row sums (full-past
mutual information, unsimplified transfer entropy) are numpy term arrays,
each reduced with one ``math.fsum`` as well.

``JointTable.marginals`` keys the same groups by the realised counter states
xi0 + counts, exact rationals built once per group.  Only these labels read
the start: ``JointTable.relabel`` gives the table of another start, sharing
the trajectory, probability, count and group arrays, so one enumeration per
(phi, t) serves every start.

The quadrature is numpy alone: a tanh-sinh rule whose Beta densities are
normalised with the standard library's ``math.lgamma`` rather than this
package's own log-gamma, keeping the two routes of every
closed-form-vs-oracle comparison free of shared code.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    InternalConsistencyError,
    QuadratureError,
    ResourceCapError,
)
from .process import (
    CategoricalParam,
    CountVector,
    Hyperparameter,
    add_counts,
    count,
    validate_trajectory,
)

#: Most trajectories ``build_joint`` may enumerate.
DEFAULT_JOINT_CAP = 10**6

#: Tolerance of the internal d-separation consistency check.
_DSEP_TOL = 1e-10

#: Finest level of the tanh-sinh quadrature: its step is 2**-_TS_MAX_LEVEL.
_TS_MAX_LEVEL = 12

#: The quadrature's nodes stop where the Beta density has fallen by e**-_TS_TAIL.
_TS_TAIL = 60.0

#: Largest mixed-radix group code; a longer key is re-ranked before it overflows int64.
_CODE_LIMIT = 2**62

#: The key of every marginal, as a tuple of row fields: the counter state
#: after the last observation, the one before it, and the last observation.
_MARGINAL_KEYS = {
    "p_state": ("state",),
    "p_prev": ("prev",),
    "p_last": ("last",),
    "p_last_state": ("last", "state"),
    "p_last_prev": ("last", "prev"),
    "p_state_pair": ("state", "prev"),
    "p_triple": ("state", "last", "prev"),
}

Mode = Literal["full_past", "one_step"]


class _Grouping(NamedTuple):
    """The rows of a joint table grouped by one marginal's key."""

    inverse: np.ndarray  # (rows,) group of each row
    rep: np.ndarray  # (groups,) one row of each group
    probs: np.ndarray  # (groups,) probability of each group


def _group(probs: np.ndarray, columns: Sequence[tuple[np.ndarray, int]]) -> _Grouping:
    """Group rows by a key of integer columns; each group's probability is one ``math.fsum``.

    Column j takes values in 0..radix_j - 1.  The key's mixed-radix code is
    re-ranked densely whenever the next digit could overflow, and one sort of
    the codes numbers the groups in ascending key order.
    """
    code = np.zeros(len(probs), dtype=np.int64)
    size = 1
    for column, radix in columns:
        if size * radix > _CODE_LIMIT:
            _, code = np.unique(code, return_inverse=True)
            size = int(code.max()) + 1
        code = code * radix + column
        size *= radix
    order = np.argsort(code)
    code = code[order]
    new_group = np.concatenate(([True], code[1:] != code[:-1]))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    members = probs[order].tolist()
    bounds = [*starts.tolist(), len(members)]
    sums = [math.fsum(members[a:b]) for a, b in zip(bounds, bounds[1:])]
    return _Grouping(inverse, order[starts], np.array(sums))


def _at(grouping: _Grouping, rows: np.ndarray) -> np.ndarray:
    """Probability of the group each of ``rows`` belongs to."""
    return grouping.probs[grouping.inverse[rows]]


def _check_sizes(phi: CategoricalParam, xi0: Hyperparameter) -> None:
    if xi0.size != phi.size:
        raise DomainError(
            f"hyperparameter of size {xi0.size} does not match parameter of size {phi.size}"
        )


@dataclass
class JointTable:
    """Joint distribution of (trajectory, previous counter state, counter state).

    Rows enumerate every nonzero-probability trajectory of length t; both
    counter states are uniquely determined per row, so only the trajectory is
    stored.  The row groupings of the marginals do not depend on the start
    and are shared by every ``relabel`` of the table.
    """

    k: int
    t: int
    phi: CategoricalParam
    xi0: Hyperparameter
    trajectories: np.ndarray  # (n, t) int8
    probs: np.ndarray  # (n,) float
    counts: np.ndarray  # (n, k) int16
    _groups: dict = field(default_factory=dict, repr=False)
    _marginals: dict | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.trajectories.shape[0]

    def prob(self, traj: Sequence[int]) -> float:
        """Probability of one trajectory, recomputed the same way the table was built."""
        traj = validate_trajectory(traj, self.k)
        if len(traj) != self.t:
            raise DomainError(f"trajectory length {len(traj)} does not match table depth {self.t}")
        p = 1.0
        c = count(traj, self.k)
        for x, n in enumerate(c.counts):
            if n:
                p *= self.phi.probs[x] ** n
        return p

    def relabel(self, xi0: Hyperparameter) -> JointTable:
        """The same joint under another counter start.

        Shares the trajectory, probability, count and group arrays with this
        table; only the state labels of ``marginals`` change.
        """
        _check_sizes(self.phi, xi0)
        return dataclasses.replace(self, xi0=xi0, _marginals=None)

    # -- marginal groupings ------------------------------------------------
    def _last(self) -> np.ndarray:
        return self.trajectories[:, -1].astype(np.int64)

    def _prev_counts(self) -> np.ndarray:
        prev = self.counts.astype(np.int64)
        prev[np.arange(len(self)), self._last()] -= 1
        return prev

    def _ensure_groups(self) -> dict[str, _Grouping]:
        groups = self._groups
        if groups:
            return groups
        radix = self.t + 1
        fields = {
            "state": [(column, radix) for column in self.counts.T],
            "prev": [(column, radix) for column in self._prev_counts().T],
            "last": [(self._last(), self.k)],
        }
        for name, key in _MARGINAL_KEYS.items():
            groups[name] = _group(self.probs, [column for f in key for column in fields[f]])
        return groups

    def marginals(self) -> dict[str, dict]:
        """Every marginal of the table, keyed by realised counter states.

        A state key is the exact rational vector xi0 + counts (the ``alpha``
        of a ``Hyperparameter``), built once per group; the last observation
        is keyed by its symbol, and joint keys are tuples in the order of
        ``_MARGINAL_KEYS``.
        """
        if self._marginals is not None:
            return self._marginals
        groups = self._ensure_groups()
        state, prev = groups["p_state"], groups["p_prev"]
        last = self._last().tolist()
        prev_counts = self._prev_counts()

        def realised(rows: np.ndarray) -> list[tuple]:
            return [add_counts(self.xi0, CountVector(row)).alpha for row in rows.tolist()]

        state_names = realised(self.counts[state.rep])
        prev_names = realised(prev_counts[prev.rep])
        labels = {
            "state": lambda r: state_names[state.inverse[r]],
            "prev": lambda r: prev_names[prev.inverse[r]],
            "last": lambda r: last[r],
        }
        self._marginals = {}
        for name, key in _MARGINAL_KEYS.items():
            grouping = groups[name]
            table = {}
            for row, p in zip(grouping.rep.tolist(), grouping.probs.tolist()):
                parts = tuple(labels[f](row) for f in key)
                table[parts if len(parts) > 1 else parts[0]] = p
            self._marginals[name] = table
        return self._marginals


def build_joint(phi: CategoricalParam, xi0: Hyperparameter, t: int) -> JointTable:
    """Enumerate all nonzero-probability trajectories of length t >= 1.

    Raises ``ResourceCapError`` when the enumeration would exceed
    ``DEFAULT_JOINT_CAP`` trajectories, ``DomainError`` when a trajectory's probability underflows
    to 0, and ``InternalConsistencyError`` if the resulting probabilities fail
    to sum to 1 within 1e-12.
    """
    _check_sizes(phi, xi0)
    if t < 1:
        raise DomainError(f"the joint is defined for t >= 1, got {t}")
    support = phi.support
    m = len(support)
    n = m**t
    if n > DEFAULT_JOINT_CAP:
        raise ResourceCapError(
            f"joint table for t={t} would enumerate {n} trajectories, exceeding "
            f"the cap of {DEFAULT_JOINT_CAP}; reduce t"
        )

    idx = np.arange(n, dtype=np.int64)
    trajs = np.empty((n, t), dtype=np.int8)
    divisor = n
    for j in range(t):
        divisor //= m
        trajs[:, j] = (idx // divisor) % m
    support_map = np.asarray(support, dtype=np.int8)
    trajs = support_map[trajs]

    k = phi.size
    counts = np.empty((n, k), dtype=np.int16)
    for x in range(k):
        counts[:, x] = (trajs == x).sum(axis=1)

    probs = np.ones(n, dtype=float)
    for x in support:
        probs *= phi.probs[x] ** counts[:, x]

    if not probs.all():
        raise DomainError(
            f"a trajectory probability of phi={phi.probs} at t={t} underflows to 0"
        )
    total = math.fsum(probs.tolist())
    if abs(total - 1.0) > 1e-12:
        raise InternalConsistencyError(
            f"joint probabilities sum to {total!r}, off from 1 by more than 1e-12"
        )
    return JointTable(k=k, t=t, phi=phi, xi0=xi0, trajectories=trajs, probs=probs, counts=counts)


# ---------------------------------------------------------------------------
# Definitional information measures
# ---------------------------------------------------------------------------


def oracle_mutual_information(joint: JointTable, mode: Mode) -> float:
    """I(whole past : state) or I(last observation : state) by definitional sums."""
    groups = joint._ensure_groups()
    state = groups["p_state"]
    if mode == "full_past":
        p = joint.probs
        # p(trajectory, state) equals p(trajectory): the state is determined.
        p_joint = p
        terms = p_joint * np.log(p_joint / (p * state.probs[state.inverse]))
        return math.fsum(terms.tolist())
    if mode == "one_step":
        pair = groups["p_last_state"]
        p_joint = pair.probs
        rows = pair.rep
        terms = p_joint * np.log(p_joint / (_at(groups["p_last"], rows) * _at(state, rows)))
        return math.fsum(terms.tolist())
    raise DomainError(f"unknown mode {mode!r}, expected 'full_past' or 'one_step'")


def _te_simplified(groups: dict[str, _Grouping]) -> float:
    triple = groups["p_triple"]
    p = triple.probs
    rows = triple.rep
    num = _at(groups["p_prev"], rows) * p
    den = _at(groups["p_state_pair"], rows) * _at(groups["p_last_prev"], rows)
    return math.fsum((p * np.log(num / den)).tolist())


def _te_unsimplified(joint: JointTable, groups: dict[str, _Grouping]) -> float:
    prev, pair = groups["p_prev"], groups["p_state_pair"]
    p = joint.probs
    # p(state, trajectory, previous) and p(trajectory, previous) both
    # equal p(trajectory): the states are determined.
    num = prev.probs[prev.inverse] * p
    den = pair.probs[pair.inverse] * p
    return math.fsum((p * np.log(num / den)).tolist())


def oracle_transfer_entropy(joint: JointTable) -> float:
    """I(state : last observation | previous state) by definitional sums.

    Also evaluates the unsimplified I(state : whole past | previous state)
    and raises ``InternalConsistencyError`` if the two disagree beyond 1e-10
    (they coincide by the chain's conditional-independence structure).

    The check's reach is limited.  The counter is deterministic: any two of
    (previous state, last observation, state) fix the third, so the triple,
    (state, previous) and (last, previous) partitions of the rows coincide,
    and the simplified sum is the whole-past sum with its rows grouped.  The
    two agree for any row probabilities.  The check catches a faulty grouping
    code, or rows whose probabilities disagree with groups they share; it
    cannot catch a damaged row probability on a table grouped afresh.
    """
    groups = joint._ensure_groups()
    simplified = _te_simplified(groups)
    unsimplified = _te_unsimplified(joint, groups)
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

    Definitional log-ratios only; no closed-form shortcuts.  The marginals
    are looked up by the realised counter states of the trajectory.
    """
    traj = validate_trajectory(traj, joint.k)
    if len(traj) != joint.t:
        raise DomainError(f"trajectory length {len(traj)} does not match table depth {joint.t}")
    p_traj = joint.prob(traj)
    if p_traj == 0.0:
        raise DomainError("trajectory has zero probability under the table's parameter")
    marginals = joint.marginals()
    state = add_counts(joint.xi0, count(traj, joint.k)).alpha
    prev = add_counts(joint.xi0, count(traj[:-1], joint.k)).alpha
    x = traj[-1]

    if mode == "full_past":
        # log p(state | whole past) - log p(state)
        p_state_given_past = p_traj / p_traj  # state is determined by the past
        mi_pw = math.log(p_state_given_past) - math.log(marginals["p_state"][state])
    elif mode == "one_step":
        p_state_given_last = marginals["p_last_state"][(x, state)] / marginals["p_last"][x]
        mi_pw = math.log(p_state_given_last) - math.log(marginals["p_state"][state])
    else:
        raise DomainError(f"unknown mode {mode!r}, expected 'full_past' or 'one_step'")

    p_last_given_both = marginals["p_triple"][(state, x, prev)] / marginals["p_state_pair"][(state, prev)]
    p_last_given_prev = marginals["p_last_prev"][(x, prev)] / marginals["p_prev"][prev]
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
    that every node has missed.  Raises ``QuadratureError`` when the estimate
    still exceeds ``abs_tol`` at step 2^-``_TS_MAX_LEVEL``.

    Range, measured for k = (0, 1, 0) and (0, 0, 1) on geometric grids of
    (a, b) against mpmath at 50 digits:
        abs_tol = 1e-10 : converges for 1e-6 <= a, b <= 3e4.  The absolute
                          error is <= 1e-14 for a, b >= 0.05, <= 4e-12 for
                          a, b >= 1e-4 and <= 3e-10 for a, b >= 1e-6, where
                          the log moments grow like 1 / min(a, b).
        abs_tol = 1e-8  : converges for 0.05 <= a, b <= 1e6, absolute error
                          <= 5e-13 up to 3e4 and <= 4e-12 up to 1e6.
    Beyond that the rule refuses.  At 1e-10 the rounding of the ``lgamma``
    normaliser alone reaches the tolerance near 1e5 ((1e5, 1e5) leaves an
    estimate of 6.3e-10), and by 1e7 the finest step no longer resolves the
    peak ((1e7, 1e7) leaves 2.4e-3).
    """
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"Beta exponents must be positive, got ({a!r}, {b!r})")
    k0, k1, k2 = kappa
    # log(pi / B(a, b)): the density's normaliser and the constant of dx/du.
    log_scale = math.log(math.pi) - _log_beta(a, b)
    u_max = math.asinh(_TS_TAIL / (math.pi * min(a, b, 1.0)))

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
        estimate = max(abs(value - previous), abs(step * float(sums[0]) - 1.0))
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
    if x < 0 or x >= xi.size:
        raise DomainError(f"symbol {x} outside alphabet of size {xi.size}")
    if xi.size == 1:
        return 0.0  # the belief is a point mass at probability 1
    a = float(xi.alpha[x])
    b = float(xi.total - xi.alpha[x])
    return beta_log_moment_quadrature(a, b, (0.0, 1.0, 0.0), abs_tol=1e-10)
