#!/usr/bin/env python3
"""Machine-checking the closed forms against first-principles recomputation.

No closed form in this package is taken on trust.  The oracle unrolls the
chain into an explicit joint table and evaluates mutual information and
transfer entropy as definitional sums; a weighted quadrature integrates the
Beta-Beta KL divergence numerically.  This script runs a slice of those
cross-checks and then the full conformance grid.

Run:  python3 demos/04_oracle_crosschecks.py
"""

from infoclosure import (
    CategoricalParam,
    Hyperparameter,
    build_joint,
    full_past_info_gain,
    ntic,
    one_step_ntic,
    oracle_kl_quadrature,
    oracle_mutual_information,
    oracle_transfer_entropy,
    run_conformance,
)
from infoclosure.process import add_counts, count

phi = CategoricalParam((0.3, 0.7))
xi0 = Hyperparameter((0.5, 2))

print("definitional route vs closed forms, phi =", phi.probs)
header = "{:>3} {:>14} {:>14} {:>10}"
print(header.format("t", "closed", "oracle", "|diff|"))
for t in range(1, 9):
    joint = build_joint(phi, xi0, t)
    te = oracle_transfer_entropy(joint)
    oracle_value = oracle_mutual_information(joint, "full_past") - te
    closed_value = ntic(phi, t)
    print(
        header.format(
            t, f"{closed_value:.10f}", f"{oracle_value:.10f}", f"{abs(closed_value - oracle_value):.1e}"
        )
    )
print()

print("one-step closure, same treatment:")
for t in (2, 5, 8):
    joint = build_joint(phi, xi0, t)
    oracle_value = oracle_mutual_information(joint, "one_step") - oracle_transfer_entropy(joint)
    closed_value = one_step_ntic(phi, t)
    print(f"  t={t}: closed {closed_value:.10f}  oracle {oracle_value:.10f}")
print()

print("full-past information gain vs Beta-Beta quadrature:")
for traj in ((0,), (0, 1), (0, 0, 0, 1, 0), (1,) * 10):
    posterior = add_counts(xi0, count(traj, 2))
    closed_value = full_past_info_gain(xi0, traj)
    quad_value = oracle_kl_quadrature(posterior, xi0)
    print(f"  counts {count(traj, 2).counts}: closed {closed_value:.10f}  quad {quad_value:.10f}")
print()

print("full conformance grid (alphabets 2 and 3, t up to 6):")
result = run_conformance(max_k=3, max_t=6)
print(f"  {result.passed}/{result.total} checks passed")
worst = max(record.abs_diff for record in result.records)
print(f"  worst |closed - oracle| anywhere: {worst:.3e}")
