#!/usr/bin/env python3
"""The belief reading of the counter: surprise, gain, and what closure misses.

Interpreting the counter state as a Dirichlet belief gives quantities the raw
dynamics never mention: the posterior predictive probability of the next
symbol, the surprise it causes, and the KL divergence each observation moves
the belief by.  The punchline is negative: the one-step pointwise closure of
a trajectory is blind to the prior, so it cannot indicate how much was
actually learned -- two counters with different starts agree on closure and
disagree on gain.

Run:  python3 demos/03_surprise_and_information_gain.py
"""

from infoclosure import (
    Hyperparameter,
    full_past_info_gain,
    hindsight_empirical_surprise,
    marginal_surprise,
    ntic_ig_divergence_witness,
    one_step_info_gain,
    posterior_predictive,
)

xi0 = Hyperparameter((1, 1))
traj = (0, 1, 0, 0, 1, 0)

print("flat prior xi_0 =", xi0.as_floats(), " trajectory =", traj)
print()
header = "{:>3} {:>6} {:>12} {:>12} {:>12} {:>12}"
print(header.format("t", "next", "predictive", "surprise", "gain(step)", "gain(total)"))
for upto in range(len(traj)):
    prefix = traj[:upto]
    symbol = traj[upto]
    predictive = posterior_predictive(
        Hyperparameter(tuple(a + c for a, c in zip(xi0.alpha, (prefix.count(0), prefix.count(1))))),
        symbol,
    )
    print(
        header.format(
            upto + 1,
            symbol,
            f"{predictive:.4f}",
            f"{marginal_surprise(xi0, prefix, symbol):.4f}",
            f"{one_step_info_gain(xi0, traj[: upto + 1]):.4f}",
            f"{full_past_info_gain(xi0, traj[: upto + 1]):.4f}",
        )
    )
print()

print("Hindsight surprise under the empirical distribution per prefix:")
for upto in range(1, len(traj) + 1):
    prefix = traj[:upto]
    print(f"  {prefix}: {hindsight_empirical_surprise(prefix):.4f}")
print()

# --- the negative result, constructively -------------------------------------
report = ntic_ig_divergence_witness((0,), Hyperparameter((1, 1)), Hyperparameter((10, 10)))
print("witness on the single observation (0,):")
print("  one-step pointwise closure, both priors:", report.one_step_pointwise)
print("  gain under flat prior (1,1):   ", report.info_gain_a)
print("  gain under strong prior (10,10):", report.info_gain_b)
print("  gap:", report.gain_gap)
print("Same closure, different learning: closure cannot measure information gain.")
