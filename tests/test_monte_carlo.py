"""Monte Carlo curve rows against the exact rows they estimate.

At K = 2 every curve quantity of a trajectory is a function of its last
symbol x and that symbol's count c_x (the other count is t - c_x), so one
``last_count_weights`` table gives both the exact mean and the exact
variance of each per-sample value.  A seeded Monte Carlo row must then lie
within four standard errors of the exact row, and the check must reject
the exact row of a different data parameter.
"""

import argparse
import contextlib
import io
import json
import math

import pytest

import infoclosure.cli as cli
import infoclosure.closure as closure
from infoclosure import CategoricalParam, CountVector, Hyperparameter
from infoclosure.bayes import (
    belief_tables,
    marginal_surprise_from_count,
    one_step_info_gain_from_count,
)
from infoclosure.closure import last_count_weights, pointwise_ntic_from_count
from infoclosure.process import count, sample_trajectories

QUANTITIES = ("ntic", "one_step_ntic", "info_gain", "surprise")
PHI = CategoricalParam((0.3, 0.7))
XI0 = Hyperparameter((0.5, 2.0))
T = 40
SAMPLES = 4000


def standard_errors(phi, xi0, t, samples):
    """Per quantity, the standard error of a mean of ``samples`` per-trajectory values."""
    weights = last_count_weights(phi, t)
    gain, surprise = belief_tables(xi0, t)
    values = {q: {} for q in QUANTITIES}
    for x in range(2):
        for n in range(1, t + 1):
            counts = [t - n, t - n]
            counts[x] = n
            values["ntic"][x, n] = pointwise_ntic_from_count(phi, CountVector(tuple(counts)), x)
            values["one_step_ntic"][x, n] = math.log(n / t)
            values["info_gain"][x, n] = gain[x, n]
            values["surprise"][x, n] = surprise[x, n]
    errors = {}
    for q, table in values.items():
        mean = math.fsum(weights[key] * v for key, v in table.items())
        second = math.fsum(weights[key] * v * v for key, v in table.items())
        errors[q] = math.sqrt((second - mean * mean) / samples)
    return errors


@pytest.fixture(scope="module")
def mc_row():
    args = argparse.Namespace(
        phi=PHI, xi0=XI0, samples=SAMPLES, seed=11, quantities=QUANTITIES
    )
    row = cli._curve_mc_row(args, T)
    assert row["method"] == "mc"
    return row


def z_scores(mc_row, phi):
    exact = cli._curve_exact_row(phi, XI0, QUANTITIES, T)
    errors = standard_errors(PHI, XI0, T, SAMPLES)
    return {q: (mc_row[q] - exact[q]) / errors[q] for q in QUANTITIES}


def test_monte_carlo_row_lies_within_four_standard_errors_of_the_exact_row(mc_row):
    for q, z in z_scores(mc_row, PHI).items():
        assert abs(z) <= 4.0, (q, z)


def test_the_exact_row_of_another_phi_is_rejected(mc_row):
    # Negative control: the same check against the wrong parameter fails
    # for every quantity.
    for q, z in z_scores(mc_row, CategoricalParam((0.9, 0.1))).items():
        assert abs(z) > 4.0, (q, z)


def test_a_k50_row_is_the_mean_over_the_batch_it_samples(monkeypatch):
    # The cap moved so that t = 30 is a Monte Carlo row at K = 50; each
    # sample is recounted symbol by symbol from the same seeded batch.
    k, t, samples, seed = 50, 30, 300, 7
    phi = CategoricalParam(tuple(w / 1275 for w in range(1, k + 1)))
    xi0 = Hyperparameter(tuple(0.25 * (w % 7 + 1) for w in range(k)))
    monkeypatch.setattr(closure, "TABLE_TERM_CAP", k * t)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([
            "curve", "--phi", ",".join(map(repr, phi.probs)),
            "--xi0", ",".join(map(repr, xi0.as_floats())), "--tmax", str(t),
            "--quantities", ",".join(QUANTITIES), "--samples", str(samples),
            "--seed", str(seed), "--format", "json",
        ]) == 0
    row = json.loads(out.getvalue())["rows"][-1]
    assert row["method"] == "mc"
    values = {q: [] for q in QUANTITIES}
    for traj in sample_trajectories(phi, t, samples, [seed, t]).tolist():
        c, x = count(traj, k), traj[-1]
        values["ntic"].append(pointwise_ntic_from_count(phi, c, x))
        values["one_step_ntic"].append(math.log(c.counts[x] / t))
        values["info_gain"].append(one_step_info_gain_from_count(xi0, c, x))
        values["surprise"].append(marginal_surprise_from_count(xi0, c, x))
    assert {q: row[q] for q in QUANTITIES} == {
        q: math.fsum(v) / samples for q, v in values.items()
    }
