"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criteria 1 and 2 share one closed-form-vs-oracle grid
computation (session fixture); everything else is self-contained.
"""

import inspect
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import infoclosure.cli as cli
import infoclosure.closure as closure
from infoclosure import (
    CategoricalParam,
    Hyperparameter,
    build_joint,
    digamma,
    full_past_info_gain,
    log_gamma,
    ntic,
    ntic_ig_divergence_witness,
    one_step_info_gain,
    one_step_ntic,
    one_step_pointwise_ntic,
    oracle_kl_quadrature,
    oracle_mutual_information,
    oracle_transfer_entropy,
    posterior_predictive,
    sample_trajectory,
    update,
)
from infoclosure.conformance import KL_COUNT_GRID, PHI_GRIDS, XI0_GRIDS
from infoclosure.oracle import _layout as oracle_layout
from infoclosure.oracle import oracle_expected_log_predictive, oracle_pointwise_ntic
from infoclosure.process import CountVector, add_counts


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {number}: {status} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared grid for criteria 1 and 2
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def ntic_grid():
    """Closed forms and oracle values over the full acceptance grid."""
    results = {}
    start = time.perf_counter()
    for k in (2, 3):
        for phi_probs in PHI_GRIDS[k]:
            phi = CategoricalParam(phi_probs)
            for t in range(1, 9):
                closed_full = ntic(phi, t)
                closed_one = one_step_ntic(phi, t)
                oracle_full = []
                oracle_one = []
                for xi0_values in XI0_GRIDS[k]:
                    joint = build_joint(phi, Hyperparameter(xi0_values), t)
                    te = oracle_transfer_entropy(joint)
                    oracle_full.append(oracle_mutual_information(joint, "full_past") - te)
                    oracle_one.append(oracle_mutual_information(joint, "one_step") - te)
                results[(k, phi_probs, t)] = (closed_full, closed_one, oracle_full, oracle_one)
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_closed_form_vs_oracle(ntic_grid):
    results, elapsed = ntic_grid
    worst = 0.0
    for closed_full, closed_one, oracle_full, oracle_one in results.values():
        for value in oracle_full:
            worst = max(worst, abs(closed_full - value))
        for value in oracle_one:
            worst = max(worst, abs(closed_one - value))
    ok = worst <= 1e-10 and elapsed <= 60.0
    report(
        1,
        "closed-form closure equals the definitional oracle on the full grid",
        ok,
        f"worst |diff| {worst:.3e}, grid time {elapsed:.1f}s",
    )


def test_criterion_2_start_independence(ntic_grid):
    results, _ = ntic_grid
    worst_spread = 0.0
    for _, _, oracle_full, oracle_one in results.values():
        worst_spread = max(worst_spread, max(oracle_full) - min(oracle_full))
        worst_spread = max(worst_spread, max(oracle_one) - min(oracle_one))
    ok = worst_spread <= 1e-12
    report(
        2,
        "every closure quantity is identical across the counter-start grid",
        ok,
        f"worst spread {worst_spread:.3e}",
    )


def test_criterion_3_monotone_divergence():
    ok = True
    details = []
    for probs in ((0.5, 0.5), (0.2, 0.8)):
        phi = CategoricalParam(probs)
        values = [ntic(phi, t) for t in range(1, 9)]
        ok = ok and abs(values[0]) <= 1e-12
        ok = ok and all(b > a for a, b in zip(values, values[1:]))
        details.append(f"phi={probs}: t=1 value {values[0]:.1e}, strictly increasing")
    deterministic = CategoricalParam((1.0, 0.0))
    flat = [ntic(deterministic, t) for t in range(1, 9)]
    ok = ok and all(v == 0.0 for v in flat)
    details.append("phi=(1,0): all zero")
    report(3, "closure diverges monotonically unless the process is deterministic", ok,
           "; ".join(details))


def test_criterion_4_binomial_spot_value():
    value = ntic(CategoricalParam((0.5, 0.5)), 2)
    ok = abs(value - 0.5 * math.log(2)) <= 1e-12
    report(4, "two-step closure of a fair coin equals half a bit in nats", ok,
           f"value {value!r}")


def test_criterion_5_one_step_pointwise_is_relative_frequency():
    rng = np.random.default_rng(20260810)
    phi_options = {
        2: (CategoricalParam((0.5, 0.5)), CategoricalParam((0.2, 0.8))),
        3: (CategoricalParam((0.2, 0.3, 0.5)), CategoricalParam((0.6, 0.3, 0.1))),
    }
    xi0_options = {
        2: (Hyperparameter((1, 1)), Hyperparameter((10, 1))),
        3: (Hyperparameter((1, 1, 1)), Hyperparameter((0.5, 2, 2))),
    }
    joints = {}

    def joint_for(k, t, phi_idx, xi0_idx):
        key = (k, t, phi_idx, xi0_idx)
        if key not in joints:
            joints[key] = build_joint(
                phi_options[k][phi_idx], xi0_options[k][xi0_idx], t
            )
        return joints[key]

    # Draw every case first, then evaluate them grouped by (K, t), so that the
    # one-slot oracle layout memo enumerates each (K, t) once.
    cases = []
    for i in range(1000):
        k = int(rng.integers(2, 4))
        t = int(rng.integers(1, 13))
        phi_idx = int(rng.integers(0, 2))
        traj = sample_trajectory(phi_options[k][phi_idx], t, seed=int(rng.integers(2**32)))
        cases.append((k, t, i, phi_idx, traj))
    cases.sort(key=lambda case: case[:2])

    oracle_layout.cache_clear()
    worst = 0.0
    worst_invariance = 0.0
    checked = 0
    for k, t, i, phi_idx, traj in cases:
        closed = one_step_pointwise_ntic(traj)
        oracle = oracle_pointwise_ntic(joint_for(k, t, phi_idx, 0), traj, "one_step")
        worst = max(worst, abs(closed - oracle))
        checked += 1
        if i % 20 == 0:
            # Invariance under the data parameter and the counter start: the
            # definitional value recomputed under the other full-support
            # parameter and a different start must not move.
            other = oracle_pointwise_ntic(joint_for(k, t, 1 - phi_idx, 1), traj, "one_step")
            worst_invariance = max(worst_invariance, abs(closed - other))

    # By construction the closed form consumes the trajectory alone.
    signature_ok = list(inspect.signature(one_step_pointwise_ntic).parameters) == ["traj"]
    layouts = oracle_layout.cache_info().misses
    distinct = len({case[:2] for case in cases})
    ok = (
        worst <= 1e-10 and worst_invariance <= 1e-10 and signature_ok and checked == 1000
        and layouts == distinct
    )
    report(
        5,
        "one-step pointwise closure is the log relative frequency of the last symbol",
        ok,
        f"1000 trajectories, worst |diff| {worst:.3e}, "
        f"invariance worst {worst_invariance:.3e}, {layouts} layouts for {distinct} (K, t)",
    )


def test_criterion_6_information_gain_consistency():
    rng = np.random.default_rng(20260811)
    worst_forms = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 4))
        alpha = tuple(float(a) for a in rng.uniform(0.1, 20.0, size=k))
        xi0 = Hyperparameter(alpha)
        t = int(rng.integers(1, 15))
        traj = tuple(int(x) for x in rng.integers(0, k, size=t))
        closed = one_step_info_gain(xi0, traj)

        # Expectation form, by independent routes: replayed posterior
        # predictive for the surprise term, Beta-marginal quadrature for the
        # expected hindsight term.
        xi_before = xi0
        for x in traj[:-1]:
            xi_before = update(xi_before, x)
        surprise = -math.log(posterior_predictive(xi_before, traj[-1]))
        xi_after = update(xi_before, traj[-1])
        expectation_form = surprise + oracle_expected_log_predictive(xi_after, traj[-1])
        worst_forms = max(worst_forms, abs(closed - expectation_form))

    worst_quadrature = 0.0
    cases = 0
    for xi0_values in XI0_GRIDS[2]:
        xi0 = Hyperparameter(xi0_values)
        for counts in KL_COUNT_GRID:
            traj = (0,) * counts[0] + (1,) * counts[1]
            closed = full_past_info_gain(xi0, traj)
            quad = oracle_kl_quadrature(add_counts(xi0, CountVector(counts)), xi0)
            worst_quadrature = max(worst_quadrature, abs(closed - quad))
            cases += 1

    spot = one_step_info_gain(Hyperparameter((1, 1)), (0,))
    spot_ok = abs(spot - (math.log(2) - 0.5)) <= 1e-10

    ok = worst_forms <= 1e-10 and worst_quadrature <= 1e-7 and cases == 20 and spot_ok
    report(
        6,
        "information-gain closed forms match expectation form and quadrature",
        ok,
        f"forms worst {worst_forms:.3e} over 500 pairs, "
        f"quadrature worst {worst_quadrature:.3e} over {cases} cases, "
        f"spot value {spot!r}",
    )


def test_criterion_7_negative_result_witness():
    witness = ntic_ig_divergence_witness((0,), Hyperparameter((1, 1)), Hyperparameter((10, 10)))
    same_closure = witness.one_step_pointwise == one_step_pointwise_ntic((0,))
    ok = same_closure and witness.gain_gap > 0.05
    report(
        7,
        "identical one-step pointwise closure coexists with distinct gains",
        ok,
        f"gain gap {witness.gain_gap:.4f} nats",
    )


def test_criterion_8_special_functions():
    worst_residual = 0.0
    for z in np.linspace(0.5, 100.0, 4001):
        z = float(z)
        worst_residual = max(
            worst_residual,
            abs(log_gamma(z + 1.0) - log_gamma(z) - math.log(z)),
            abs(digamma(z + 1.0) - digamma(z) - 1.0 / z),
        )
    worst_harmonic = 0.0
    harmonic = Fraction(0)
    euler_gamma = 0.5772156649015328606
    for n in range(1, 51):
        worst_harmonic = max(
            worst_harmonic, abs(digamma(float(n)) - (float(harmonic) - euler_gamma))
        )
        harmonic += Fraction(1, n)
    ok = worst_residual <= 1e-12 and worst_harmonic <= 1e-10
    report(
        8,
        "log-gamma and digamma satisfy their recurrences and harmonic identity",
        ok,
        f"worst residual {worst_residual:.3e}, worst harmonic error {worst_harmonic:.3e}",
    )


def test_criterion_9_curve_determinism(tmp_path, monkeypatch):
    # End-to-end: two subprocess runs of the installed CLI, exact mode.
    args = [
        sys.executable, "-m", "infoclosure", "curve",
        "--phi", "0.3,0.7", "--xi0", "1,1", "--tmax", "6",
        "--quantities", "ntic,one_step_ntic,info_gain,surprise",
        "--seed", "123", "--format", "json",
    ]
    first = subprocess.run(args + ["--out", str(tmp_path / "a.json")], capture_output=True)
    second = subprocess.run(args + ["--out", str(tmp_path / "b.json")], capture_output=True)
    exact_ok = (
        first.returncode == 0
        and second.returncode == 0
        and (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    )

    # Seed-sensitive path: Monte Carlo rows must also reproduce byte for byte.
    monkeypatch.setattr(closure, "TABLE_TERM_CAP", 4)
    for name in ("mc1.csv", "mc2.csv"):
        rc = cli.main([
            "curve", "--phi", "0.3,0.7", "--xi0", "1,1", "--tmax", "5",
            "--samples", "500", "--seed", "77", "--out", str(tmp_path / name),
        ])
        assert rc == 0
    mc_ok = (tmp_path / "mc1.csv").read_bytes() == (tmp_path / "mc2.csv").read_bytes()

    report(
        9,
        "curve runs with a fixed seed reproduce output files byte for byte",
        exact_ok and mc_ok,
        f"exact mode {'ok' if exact_ok else 'MISMATCH'}, Monte Carlo {'ok' if mc_ok else 'MISMATCH'}",
    )
