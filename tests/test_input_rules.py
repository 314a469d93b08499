"""Each input rule has one home: ``check_symbol``, ``check_size`` and ``check_at_least``.

Every function that takes a symbol or a vector refuses a bad one with
``AlphabetMismatchError``, raised inside ``process.check_symbol`` or
``process.check_size`` with its message.  Every function that takes a time,
a trajectory length, a count, a sample number, a seed or an alphabet size
refuses one that is not an integer or is too small with ``DomainError``,
raised inside ``process.check_at_least``.  Nothing is truncated: 1.5, 1.0
and "1" are refused where an integer is due.  The command line prints the
message with exit code 1.
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
from infoclosure.conformance import run_conformance
from infoclosure.errors import AlphabetMismatchError, DomainError
from infoclosure.process import CategoricalParam, CountVector, Hyperparameter

PHI = CategoricalParam((0.4, 0.6))
XI0 = Hyperparameter((1, 2))
XI0_1 = Hyperparameter((1,))
XI0_3 = Hyperparameter((1, 1, 1))
PHI_3 = CategoricalParam((0.2, 0.3, 0.5))
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
    # The kernel's belief tables: a (1, 5) table would broadcast over the three
    # weight rows and return a number.
    ("expectation_one_row",
     lambda: closure.expected_values(PHI_3, 4, ("info_gain",), bayes.belief_tables(XI0_1, 4)),
     "value table of size (1, 5) does not match weight table of size (3, 5)"),
    ("expectation_rows",
     lambda: closure.expected_values(PHI_3, 4, ("surprise",), bayes.belief_tables(XI0, 4)),
     "value table of size (2, 5) does not match weight table of size (3, 5)"),
    ("expectation_columns",
     lambda: closure.expected_values(PHI_3, 4, ("info_gain",), (np.zeros((3, 4)),) * 2),
     "value table of size (3, 4) does not match weight table of size (3, 5)"),
    ("build_joint", lambda: oracle.build_joint(PHI, XI0_3, 2),
     "hyperparameter of size 3 does not match parameter of size 2"),
    ("oracle_ntic", lambda: oracle.oracle_ntic(PHI, XI0_3, 2, "one_step"),
     "hyperparameter of size 3 does not match parameter of size 2"),
    ("joint_prob", lambda: oracle.build_joint(PHI, XI0, 2).prob((0, 5)), SYMBOL),
    ("joint_prob_length", lambda: oracle.build_joint(PHI, XI0, 2).prob((0, 1, 1)),
     "trajectory of size 3 does not match table depth of size 2"),
    ("oracle_pointwise_ntic",
     lambda: oracle.oracle_pointwise_ntic(oracle.build_joint(PHI, XI0, 2), (0, 5), "one_step"),
     SYMBOL),
    ("oracle_expected_log_predictive", lambda: oracle.oracle_expected_log_predictive(XI0, 5),
     SYMBOL),
    ("cli_check_sizes",
     lambda: cli.cmd_curve(cli.build_parser().parse_args(
         ["curve", "--phi", "0.5,0.5", "--xi0", "1,1,1", "--tmax", "1"])),
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
        (("witness", "--traj=", "--xi0-a", "1,1", "--xi0-b", "2,1"),
         "trajectory length must be an integer >= 1, got 0"),
        (("conformance", "--max-t", "0"), "max_t must be an integer >= 1, got 0"),
        (("conformance", "--max-k", "1"), "max_k must be an integer >= 2, got 1"),
    ],
)
def test_the_command_line_prints_the_helpers_message(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    assert (rc, out.getvalue(), err.getvalue()) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# Integers: symbols, times, lengths, counts, sample numbers, seeds and sizes
# ---------------------------------------------------------------------------

JOINT = oracle.build_joint(PHI, XI0, 2)
JOINT_5 = oracle.build_joint(PHI, XI0, 5)
XI0_B = Hyperparameter((3, 1))
NON_INTEGERS = [1.5, 1.0, "1"]

# (id, call of a trajectory, alphabet size the symbols are checked against)
TRAJECTORY_CALLS = [
    ("validate_trajectory", lambda traj: process.validate_trajectory(traj, 2), 2),
    ("count", lambda traj: process.count(traj, 2), 2),
    ("trajectory_log_prob", lambda traj: process.trajectory_log_prob(PHI, traj), 2),
    ("pointwise_ntic", lambda traj: closure.pointwise_ntic(PHI, traj), 2),
    ("one_step_pointwise_ntic", lambda traj: closure.one_step_pointwise_ntic(traj), "inf"),
    ("hindsight_empirical_surprise", lambda traj: bayes.hindsight_empirical_surprise(traj),
     "inf"),
    ("one_step_info_gain", lambda traj: bayes.one_step_info_gain(XI0, traj), 2),
    ("full_past_info_gain", lambda traj: bayes.full_past_info_gain(XI0, traj), 2),
    ("marginal_surprise", lambda traj: bayes.marginal_surprise(XI0, traj, 0), 2),
    ("witness", lambda traj: bayes.ntic_ig_divergence_witness(traj, XI0, XI0_B), 2),
    ("joint_prob", lambda traj: JOINT.prob(traj), 2),
    ("oracle_pointwise_ntic", lambda traj: oracle.oracle_pointwise_ntic(JOINT, traj, "one_step"),
     2),
]

# (id, call of one symbol)
SYMBOL_CALLS = [
    ("symbol_prob", lambda x: process.symbol_prob(PHI, x)),
    ("update", lambda x: process.update(XI0, x)),
    ("posterior_predictive", lambda x: bayes.posterior_predictive(XI0, x)),
    ("marginal_surprise", lambda x: bayes.marginal_surprise(XI0, (0, 1), x)),
    ("marginal_surprise_from_count", lambda x: bayes.marginal_surprise_from_count(XI0, C, x)),
    ("one_step_info_gain_from_count",
     lambda x: bayes.one_step_info_gain_from_count(XI0, C, x)),
    ("pointwise_ntic_from_count", lambda x: closure.pointwise_ntic_from_count(PHI, C, x)),
    ("oracle_expected_log_predictive", lambda x: oracle.oracle_expected_log_predictive(XI0, x)),
]

# (id, call of one integer, its name in the message, its least value)
INTEGER_CALLS = [
    ("last_count_weights", lambda t: closure.last_count_weights(PHI, t), "t", 1),
    ("count_last_distribution", lambda t: next(closure.count_last_distribution(PHI, t)), "t", 1),
    ("count_entropy", lambda t: closure.count_entropy(PHI, t), "t", 0),
    ("ntic", lambda t: closure.ntic(PHI, t), "t", 1),
    ("one_step_ntic", lambda t: closure.one_step_ntic(PHI, t), "t", 1),
    ("belief_tables", lambda t: bayes.belief_tables(XI0, t), "t", 1),
    ("build_joint", lambda t: oracle.build_joint(PHI, XI0, t), "t", 1),
    ("oracle_ntic", lambda t: oracle.oracle_ntic(PHI, XI0, t, "full_past"), "t", 1),
    ("count_space_size_t", lambda t: process.count_space_size(2, t), "t", 0),
    ("count_space_size_k", lambda k: process.count_space_size(k, 2), "k", 1),
    ("enumerate_counts_t", lambda t: next(process.enumerate_counts(2, t)), "t", 0),
    ("enumerate_counts_k", lambda k: next(process.enumerate_counts(k, 2)), "k", 1),
    ("sample_trajectories_t", lambda t: process.sample_trajectories(PHI, t, 2, 0), "t", 0),
    ("sample_trajectories_samples", lambda n: process.sample_trajectories(PHI, 2, n, 0),
     "samples", 0),
    ("sample_trajectory", lambda t: process.sample_trajectory(PHI, t, 0), "t", 0),
    ("sample_trajectory_seed", lambda s: process.sample_trajectory(PHI, 3, s), "seed", 0),
    ("sample_trajectories_seed", lambda s: process.sample_trajectories(PHI, 2, 2, s), "seed", 0),
    ("sample_trajectories_seed_entry",
     lambda s: process.sample_trajectories(PHI, 2, 2, [1, s]), "seed", 0),
    ("run_conformance_max_t", lambda t: run_conformance(2, t), "max_t", 1),
    ("run_conformance_max_k", lambda k: run_conformance(k, 2), "max_k", 2),
    ("count_vector", lambda n: CountVector((n, 1)), "count", 0),
]

# (id, call, message) of an empty trajectory or vector, or a last symbol of count 0
EMPTY_CALLS = [
    *[(name, lambda call=call: call(()), "trajectory length must be an integer >= 1, got 0")
      for name, call, _ in TRAJECTORY_CALLS
      if name in ("pointwise_ntic", "one_step_pointwise_ntic", "hindsight_empirical_surprise",
                  "one_step_info_gain", "witness")],
    ("categorical_param", lambda: CategoricalParam(()),
     "categorical parameter size must be an integer >= 1, got 0"),
    ("hyperparameter", lambda: Hyperparameter(()),
     "hyperparameter size must be an integer >= 1, got 0"),
    ("count_vector", lambda: CountVector(()), "count vector size must be an integer >= 1, got 0"),
    ("one_step_info_gain_from_count_last",
     lambda: bayes.one_step_info_gain_from_count(XI0, CountVector((0, 1)), 0),
     "the last symbol's count must be an integer >= 1, got 0"),
    ("pointwise_ntic_from_count_last",
     lambda: closure.pointwise_ntic_from_count(PHI, CountVector((0, 1)), 0),
     "the last symbol's count must be an integer >= 1, got 0"),
]


def refused(error, helper, call):
    with pytest.raises(error) as excinfo:
        call()
    assert excinfo.traceback[-1].name == helper
    return str(excinfo.value)


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize(
    "call, k", [c[1:] for c in TRAJECTORY_CALLS], ids=[c[0] for c in TRAJECTORY_CALLS]
)
def test_a_non_integer_symbol_in_a_trajectory_is_refused(call, k, bad):
    message = refused(AlphabetMismatchError, "check_symbol", lambda: call((0, bad)))
    assert message == f"symbol {bad!r} outside alphabet of size {k}"


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("call", [c[1] for c in SYMBOL_CALLS], ids=[c[0] for c in SYMBOL_CALLS])
def test_a_non_integer_symbol_alone_is_refused(call, bad):
    message = refused(AlphabetMismatchError, "check_symbol", lambda: call(bad))
    assert message == f"symbol {bad!r} outside alphabet of size 2"


@pytest.mark.parametrize(
    "bad", [None, -1, 2.5, 3.0, "3"], ids=["least-1", "-1", "2.5", "3.0", "'3'"]
)
@pytest.mark.parametrize(
    "call, what, least", [c[1:] for c in INTEGER_CALLS], ids=[c[0] for c in INTEGER_CALLS]
)
def test_an_integer_that_is_too_small_or_not_an_integer_is_refused(call, what, least, bad):
    bad = least - 1 if bad is None else bad
    message = refused(DomainError, "check_at_least", lambda: call(bad))
    assert message == f"{what} must be an integer >= {least}, got {bad!r}"


@pytest.mark.parametrize(
    "call, message", [c[1:] for c in EMPTY_CALLS], ids=[c[0] for c in EMPTY_CALLS]
)
def test_an_empty_trajectory_or_vector_is_refused(call, message):
    assert refused(DomainError, "check_at_least", call) == message


def test_numpy_integers_are_integers_and_come_back_as_python_ints():
    traj = process.validate_trajectory(np.array([0, 1, 1]), 2)
    assert traj == (0, 1, 1) and {type(x) for x in traj} == {int}
    c = CountVector(tuple(np.array([2, 1])))
    assert c.counts == (2, 1) and {type(n) for n in c.counts} == {int}
    assert closure.ntic(PHI, np.int64(3)) == closure.ntic(PHI, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda traj: closure.pointwise_ntic(PHI, traj),
        lambda traj: closure.one_step_pointwise_ntic(traj),
        lambda traj: bayes.one_step_info_gain(XI0, traj),
        lambda traj: bayes.ntic_ig_divergence_witness(traj, XI0, XI0_B),
        lambda traj: oracle.oracle_pointwise_ntic(JOINT_5, traj, "one_step"),
        lambda traj: process.trajectory_log_prob(PHI, traj),
    ],
    ids=["pointwise_ntic", "one_step_pointwise_ntic", "one_step_info_gain",
         "ntic_ig_divergence_witness", "oracle_pointwise_ntic", "trajectory_log_prob"],
)
def test_each_public_call_checks_its_trajectory_once(monkeypatch, call):
    traj, checked = (0, 1, 1, 0, 1), []
    real = process.check_symbol

    def spy(x, k):
        checked.append(x)
        return real(x, k)

    for module in (process, closure, bayes, oracle):
        if hasattr(module, "check_symbol"):
            monkeypatch.setattr(module, "check_symbol", spy)
    call(traj)
    assert len(checked) <= len(traj) + 2, checked

