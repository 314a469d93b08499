"""Exact informational-closure measures for the Dirichlet-categorical counter chain.

The package studies a pair of coupled processes: an IID categorical data
stream and a counter that adds a one-hot per observation -- which is exactly
the hyperparameter of a Dirichlet belief tracking the stream's parameter.
It computes, in closed form and by brute-force oracle:

* full-past and one-step informational closure, expected and pointwise
  (``closure``, checked by ``oracle``);
* posterior-predictive surprise and one-step / full-past information gain of
  the belief interpretation (``bayes``);
* the constructive witness that one-step pointwise closure cannot reveal
  information gain (``bayes.ntic_ig_divergence_witness``).

A conformance runner (``conformance``) machine-checks every closed form
against its definitional oracle; the ``infoclosure`` command line exposes
curves, per-trajectory tables, the witness, and the conformance grid.
"""

from .bayes import (
    full_past_info_gain,
    full_past_info_gain_from_count,
    hindsight_empirical_surprise,
    marginal_surprise,
    marginal_surprise_from_count,
    ntic_ig_divergence_witness,
    one_step_info_gain,
    one_step_info_gain_from_count,
    posterior_predictive,
)
from .closure import (
    NticReport,
    count_entropy,
    count_last_distribution,
    ntic,
    one_step_ntic,
    one_step_pointwise_ntic,
    pointwise_ntic,
    pointwise_ntic_from_count,
    symbol_entropy,
)
from .conformance import run_conformance
from .errors import (
    DomainError,
    InfoClosureError,
    InternalConsistencyError,
    QuadratureError,
    ResourceCapError,
    WitnessFailedError,
)
from .oracle import (
    JointTable,
    build_joint,
    oracle_kl_quadrature,
    oracle_mutual_information,
    oracle_ntic,
    oracle_transfer_entropy,
)
from .process import (
    CategoricalParam,
    CountVector,
    Hyperparameter,
    add_counts,
    count,
    count_log_prob,
    enumerate_counts,
    inverse_count_cardinality,
    log_count_cardinality,
    sample_trajectory,
    trajectory_log_prob,
    update,
)
from .special import digamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "CategoricalParam",
    "CountVector",
    "DomainError",
    "Hyperparameter",
    "InfoClosureError",
    "InternalConsistencyError",
    "JointTable",
    "NticReport",
    "QuadratureError",
    "ResourceCapError",
    "WitnessFailedError",
    "add_counts",
    "build_joint",
    "count",
    "count_entropy",
    "count_last_distribution",
    "count_log_prob",
    "digamma",
    "enumerate_counts",
    "full_past_info_gain",
    "full_past_info_gain_from_count",
    "hindsight_empirical_surprise",
    "inverse_count_cardinality",
    "log_count_cardinality",
    "log_gamma",
    "marginal_surprise",
    "marginal_surprise_from_count",
    "ntic",
    "ntic_ig_divergence_witness",
    "one_step_info_gain",
    "one_step_info_gain_from_count",
    "one_step_ntic",
    "one_step_pointwise_ntic",
    "oracle_kl_quadrature",
    "oracle_mutual_information",
    "oracle_ntic",
    "oracle_transfer_entropy",
    "pointwise_ntic",
    "pointwise_ntic_from_count",
    "posterior_predictive",
    "run_conformance",
    "sample_trajectory",
    "symbol_entropy",
    "trajectory_log_prob",
    "update",
]
