"""Each input rule has one home: ``process.check_symbol`` and ``process.check_size``.

Every function that takes a symbol or a vector refuses a bad one with
``AlphabetMismatchError``, raised inside one of the two helpers with its
message, and the command line prints that message with exit code 1.
"""

import contextlib
import io

import numpy as np
import pytest

import infoclosure.bayes as bayes
import infoclosure.cli as cli
import infoclosure.closure as closure
import infoclosure.oracle as oracle
import infoclosure.process as process
from infoclosure.errors import AlphabetMismatchError, DomainError
from infoclosure.process import CategoricalParam, CountVector, Hyperparameter

PHI = CategoricalParam((0.4, 0.6))
XI0 = Hyperparameter((1, 2))
XI0_1 = Hyperparameter((1,))
XI0_3 = Hyperparameter((1, 1, 1))
W_3 = closure.last_count_weights(CategoricalParam((0.2, 0.3, 0.5)), 4)
C = CountVector((1, 1))
C_3 = CountVector((1, 1, 1))
SYMBOL = "symbol 5 outside alphabet of size 2"
NEGATIVE = "symbol -1 outside alphabet of size 2"

# (id, call, message)
CASES = [
    ("validate_trajectory", lambda: process.validate_trajectory((0, 5), 2), SYMBOL),
    ("validate_trajectory_negative", lambda: process.validate_trajectory((0, -1), 2), NEGATIVE),
    ("symbol_prob", lambda: process.symbol_prob(PHI, 5), SYMBOL),
    ("trajectory_log_prob", lambda: process.trajectory_log_prob(PHI, (0, 5)), SYMBOL),
    ("count", lambda: process.count((5,), 2), SYMBOL),
    ("update", lambda: process.update(XI0, 5), SYMBOL),
    ("update_negative", lambda: process.update(XI0, -1), NEGATIVE),
    ("add_counts", lambda: process.add_counts(XI0, C_3),
     "count vector of size 3 does not match hyperparameter of size 2"),
    ("count_log_prob", lambda: process.count_log_prob(PHI, C_3),
     "count vector of size 3 does not match parameter of size 2"),
    ("posterior_predictive", lambda: bayes.posterior_predictive(XI0, 5), SYMBOL),
    ("marginal_surprise_from_count_symbol",
     lambda: bayes.marginal_surprise_from_count(XI0, C, 5), SYMBOL),
    ("marginal_surprise_from_count_size",
     lambda: bayes.marginal_surprise_from_count(XI0, C_3, 0),
     "count vector of size 3 does not match hyperparameter of size 2"),
    ("marginal_surprise", lambda: bayes.marginal_surprise(XI0, (0, 1), 5), SYMBOL),
    ("one_step_info_gain_from_count_symbol",
     lambda: bayes.one_step_info_gain_from_count(XI0, C, 5), SYMBOL),
    ("one_step_info_gain_from_count_size",
     lambda: bayes.one_step_info_gain_from_count(XI0, C_3, 0),
     "count vector of size 3 does not match hyperparameter of size 2"),
    ("one_step_info_gain", lambda: bayes.one_step_info_gain(XI0, (0, 5)), SYMBOL),
    ("full_past_info_gain_from_count", lambda: bayes.full_past_info_gain_from_count(XI0, C_3),
     "count vector of size 3 does not match hyperparameter of size 2"),
    ("full_past_info_gain", lambda: bayes.full_past_info_gain(XI0, (5,)), SYMBOL),
    ("witness_symbol", lambda: bayes.ntic_ig_divergence_witness((0, 5), XI0, Hyperparameter((3, 1))),
     SYMBOL),
    ("witness_priors", lambda: bayes.ntic_ig_divergence_witness((0,), XI0, XI0_3),
     "prior B of size 3 does not match prior A of size 2"),
    ("pointwise_ntic", lambda: closure.pointwise_ntic(PHI, (0, 5)), SYMBOL),
    ("pointwise_ntic_from_count_symbol",
     lambda: closure.pointwise_ntic_from_count(PHI, C, 5), SYMBOL),
    ("pointwise_ntic_from_count_size",
     lambda: closure.pointwise_ntic_from_count(PHI, C_3, 0),
     "count vector of size 3 does not match parameter of size 2"),
    # A (1, 5) table would broadcast over the three weight rows and return a number.
    ("expectation_one_row", lambda: closure.expectation(W_3, bayes.belief_tables(XI0_1, 4)[0]),
     "value table of size (1, 5) does not match weight table of size (3, 5)"),
    ("expectation_rows", lambda: closure.expectation(W_3, bayes.belief_tables(XI0, 4)[0]),
     "value table of size (2, 5) does not match weight table of size (3, 5)"),
    ("expectation_columns", lambda: closure.expectation(W_3, np.zeros((3, 4))),
     "value table of size (3, 4) does not match weight table of size (3, 5)"),
    ("build_joint", lambda: oracle.build_joint(PHI, XI0_3, 2),
     "hyperparameter of size 3 does not match parameter of size 2"),
    ("oracle_ntic", lambda: oracle.oracle_ntic(PHI, XI0_3, 2, "one_step"),
     "hyperparameter of size 3 does not match parameter of size 2"),
    ("joint_prob", lambda: oracle.build_joint(PHI, XI0, 2).prob((0, 5)), SYMBOL),
    ("oracle_pointwise_ntic",
     lambda: oracle.oracle_pointwise_ntic(oracle.build_joint(PHI, XI0, 2), (0, 5), "one_step"),
     SYMBOL),
    ("oracle_expected_log_predictive", lambda: oracle.oracle_expected_log_predictive(XI0, 5),
     SYMBOL),
    ("cli_check_sizes", lambda: cli._check_sizes(PHI, XI0_3),
     "hyperparameter of size 3 does not match parameter of size 2"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_every_bad_symbol_or_size_is_refused_by_its_helper(call, message):
    with pytest.raises(AlphabetMismatchError) as excinfo:
        call()
    assert str(excinfo.value) == message
    assert excinfo.traceback[-1].name in ("check_symbol", "check_size")


def test_an_alphabet_mismatch_is_a_domain_error():
    assert issubclass(AlphabetMismatchError, DomainError)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("trajectory", "--traj", "0,3", "--xi0", "1,1"), "symbol 3 outside alphabet of size 2"),
        (("trajectory", "--traj", "0,-1", "--xi0", "1,1"), "symbol -1 outside alphabet of size 2"),
        (("curve", "--phi", "0.5,0.5", "--xi0", "1,1,1", "--tmax", "2"),
         "hyperparameter of size 3 does not match parameter of size 2"),
        (("trajectory", "--traj", "0", "--xi0", "1,1", "--phi", "0.2,0.3,0.5"),
         "hyperparameter of size 2 does not match parameter of size 3"),
        (("witness", "--traj", "0", "--xi0-a", "1,1", "--xi0-b", "1,1,1"),
         "prior B of size 3 does not match prior A of size 2"),
    ],
)
def test_the_command_line_prints_the_helpers_message(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    assert (rc, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")
