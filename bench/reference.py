"""Independent reference check of `infoclosure` command outputs.

Nothing here imports `infoclosure`.  Expected values are recomputed with
numpy and ``scipy.special.gammaln`` / ``digamma`` over this module's own
count lattice, from the textbook forms rather than the package's:

* the count vector of a length-t trajectory is multinomial(t, phi);
* (count c, last symbol x) has probability p(c) * c_x / t;
* every information gain is the Dirichlet KL divergence
  KL(Dir(b) || Dir(a)) = lnG(|b|) - lnG(|a|) - sum lnG(b_i) + sum lnG(a_i)
  + sum (b_i - a_i)(psi(b_i) - psi(|b|)).

Each ``check_*`` returns a list of problems; an empty list means the output
is correct.  Every reported cell must match within `REL_TOL` / `ABS_TOL`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
from scipy.special import digamma, gammaln

REL_TOL = 1e-9
ABS_TOL = 1e-9

_INV_LN2 = 1.0 / math.log(2.0)


def lattice(k: int, t: int) -> np.ndarray:
    """Every nonnegative k-vector summing to t, one per row (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(t + k - 1), k - 1)), dtype=np.int64)
    bars = bars.reshape(-1, k - 1)
    n = bars.shape[0]
    edges = np.hstack([np.full((n, 1), -1), bars, np.full((n, 1), t + k - 1)])
    return np.diff(edges, axis=1) - 1


def log_multinomial_pmf(counts: np.ndarray, log_phi: np.ndarray) -> np.ndarray:
    t = counts.sum(axis=-1)
    return gammaln(t + 1.0) - gammaln(counts + 1.0).sum(axis=-1) + (counts * log_phi).sum(axis=-1)


def dirichlet_kl(post: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """KL(Dir(post) || Dir(prior)) row by row."""
    post_total = post.sum(axis=-1)
    prior_total = prior.sum(axis=-1)
    return (
        gammaln(post_total) - gammaln(prior_total)
        - gammaln(post).sum(axis=-1) + gammaln(prior).sum(axis=-1)
        + ((post - prior) * (digamma(post) - digamma(post_total)[..., None])).sum(axis=-1)
    )


def curve_rows(phi, xi0, tmax: int, quantities) -> list[dict]:
    """Expected quantities for t = 1..tmax, in nats."""
    phi = np.asarray(phi, dtype=float)
    log_phi = np.log(phi)
    symbol_entropy = -float(np.sum(phi * log_phi))
    k = phi.size
    rows = []
    for t in range(1, tmax + 1):
        c = lattice(k, t)
        log_p = log_multinomial_pmf(c, log_phi)
        p = np.exp(log_p)
        row = {"t": t}
        if "ntic" in quantities:
            row["ntic"] = -float(np.sum(p * log_p)) - symbol_entropy
        freq = c / t
        with np.errstate(divide="ignore", invalid="ignore"):
            log_freq = np.where(c > 0, np.log(freq), 0.0)
        if "one_step_ntic" in quantities:
            row["one_step_ntic"] = float(np.sum(p[:, None] * freq * log_freq))
        if "info_gain" in quantities or "surprise" in quantities:
            alpha0 = np.asarray(xi0, dtype=float)
            gains = np.zeros_like(freq)
            surprises = np.zeros_like(freq)
            post = alpha0 + c
            for x in range(k):
                seen = c[:, x] > 0
                before = post[seen].copy()
                before[:, x] -= 1.0
                gains[seen, x] = dirichlet_kl(post[seen], before)
                surprises[:, x] = -np.log(post[:, x] / post.sum(axis=1))
            weight = p[:, None] * freq  # P(count c, last symbol x)
            if "info_gain" in quantities:
                row["info_gain"] = float(np.sum(weight * gains))
            if "surprise" in quantities:
                row["surprise"] = float(np.sum(weight * surprises))
        rows.append(row)
    return rows


TRAJECTORY_COLUMNS = (
    "pointwise_ntic",
    "one_step_pointwise_ntic",
    "hindsight_empirical_surprise",
    "marginal_surprise_next",
    "hindsight_marginal_surprise",
    "one_step_info_gain",
    "full_past_info_gain",
)


def trajectory_rows(phi, xi0, traj, units: str) -> list[dict]:
    """Per-prefix pointwise quantities, in the requested units."""
    phi = np.asarray(phi, dtype=float)
    alpha0 = np.asarray(xi0, dtype=float)
    k = phi.size
    symbols = np.asarray(traj, dtype=np.int64)
    n = symbols.size
    counts = np.cumsum(np.eye(k, dtype=np.int64)[symbols], axis=0)  # counts of each prefix
    lengths = np.arange(1, n + 1)
    rows_idx = np.arange(n)
    last_counts = counts[rows_idx, symbols]
    post = alpha0 + counts
    post_total = post.sum(axis=1)
    before = post.astype(float).copy()
    before[rows_idx, symbols] -= 1.0

    log_freq = np.log(last_counts / lengths)
    columns = {
        "pointwise_ntic": np.log(phi)[symbols] - log_multinomial_pmf(counts, np.log(phi)),
        "one_step_pointwise_ntic": log_freq,
        "hindsight_empirical_surprise": -log_freq,
        "hindsight_marginal_surprise": -np.log(post[rows_idx, symbols] / post_total),
        "one_step_info_gain": dirichlet_kl(post, before),
        "full_past_info_gain": dirichlet_kl(post, np.broadcast_to(alpha0, post.shape)),
    }
    nxt = symbols[1:]
    next_surprise = -np.log(post[rows_idx[:-1], nxt] / post_total[:-1])
    scale = _INV_LN2 if units == "bits" else 1.0
    rows = []
    for i in range(n):
        row = {"t": i + 1}
        for name in TRAJECTORY_COLUMNS:
            if name == "marginal_surprise_next":
                row[name] = float(next_surprise[i]) * scale if i + 1 < n else None
            else:
                row[name] = float(columns[name][i]) * scale
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare_rows(got_rows: list[dict], want_rows: list[dict], columns) -> list[str]:
    problems = []
    if len(got_rows) != len(want_rows):
        problems.append(f"{len(got_rows)} rows, expected {len(want_rows)}")
    for got, want in zip(got_rows, want_rows):
        if got.get("t") != want["t"]:
            problems.append(f"row t={got.get('t')!r}, expected t={want['t']}")
            continue
        for col in columns:
            g, w = got.get(col), want[col]
            if w is None or g is None:
                if g is not w:
                    problems.append(f"t={want['t']} {col}: {g!r}, expected {w!r}")
            elif not _close(g, w):
                problems.append(f"t={want['t']} {col}: {g!r}, expected {w!r}")
        if len(problems) > 20:
            break
    return problems


def check_curve(text: str, phi, xi0, tmax: int, quantities) -> list[str]:
    """Check a CSV `curve` output cell by cell."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["t", *quantities, "method"]
    if not rows or rows[0] != header:
        return [f"header {rows[0] if rows else None!r}, expected {header!r}"]
    got_rows = []
    problems = []
    for line, cells in enumerate(rows[1:], start=2):
        if len(cells) != len(header) or cells[-1] != "exact":
            problems.append(f"line {line}: malformed or non-exact row {cells!r}")
            continue
        try:
            got_rows.append({"t": int(cells[0]), **{q: float(v) for q, v in zip(quantities, cells[1:-1])}})
        except ValueError:
            problems.append(f"line {line}: unparsable row {cells!r}")
    return problems + _compare_rows(got_rows, curve_rows(phi, xi0, tmax, quantities), quantities)


def check_trajectory(text: str, phi, xi0, traj, units: str = "bits") -> list[str]:
    """Check a JSON `trajectory` output cell by cell."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    columns = ["t", *TRAJECTORY_COLUMNS]
    if document.get("columns") != columns:
        return [f"columns {document.get('columns')!r}, expected {columns!r}"]
    return _compare_rows(document.get("rows", []), trajectory_rows(phi, xi0, traj, units), TRAJECTORY_COLUMNS)


def check_conformance(text: str, expected_records: int) -> list[str]:
    """A conformance run passes only with no failed, no skipped and every record present.

    The exit code is checked by the caller.  Human-readable summary lines
    precede the JSON report on standard output.
    """
    start = 0 if text.startswith("{") else text.find("\n{") + 1
    try:
        document = json.loads(text[start:])
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if not isinstance(document, dict) or "summary" not in document:
        return ["no JSON report with a summary"]
    summary = document["summary"]
    records = document.get("records", [])
    problems = []
    if summary.get("failed") != 0:
        problems.append(f"summary.failed = {summary.get('failed')!r}")
    if summary.get("skipped") != 0:
        problems.append(f"summary.skipped = {summary.get('skipped')!r}")
    if len(records) != expected_records or summary.get("total") != expected_records:
        problems.append(
            f"{len(records)} records (summary.total {summary.get('total')!r}), "
            f"expected the full grid's {expected_records}"
        )
    failing = [r for r in records if not r.get("pass")]
    if failing:
        problems.append(f"{len(failing)} records do not pass, first: {failing[0]!r}")
    return problems
