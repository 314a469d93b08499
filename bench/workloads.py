"""The benchmark's four workloads and their seeded inputs.

A workload turns (seed, invocation index) into one `Case`: the arguments of
one `infoclosure` command and what the reference check needs to verify its
output.  Inputs come from ``numpy.random.default_rng([seed, index])``, so a
seed fixes every input of a run.  The program sees only the generated
arguments.  Why each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALL_CURVE_QUANTITIES = ("ntic", "one_step_ntic", "info_gain", "surprise")
CLOSURE_QUANTITIES = ("ntic", "one_step_ntic")

#: Shape of the conformance grid the CLI must cover in full: five data
#: parameters and four counter starts per alphabet size, and 5 x 4 Beta
#: quadrature cases.
CONFORMANCE_PHIS_PER_K = 5
CONFORMANCE_XI0S_PER_K = 4
CONFORMANCE_KL_CASES = 20


@dataclass(frozen=True)
class Case:
    """One command: its arguments and the inputs behind them."""

    argv: tuple[str, ...]
    phi: tuple[float, ...] | None = None
    xi0: tuple[float, ...] | None = None
    traj: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # curve, trajectory or conformance
    k: int
    size: int  # tmax, trajectory length or conformance max-t
    quantities: tuple[str, ...] = ()

    @property
    def work_units(self) -> int:
        """Work one invocation must do, computed from the inputs alone.

        Count-space states summed over the curve's rows, prefix rows of a
        trajectory, or checks of a conformance grid.
        """
        if self.command == "curve":
            return sum(math.comb(t + self.k - 1, self.k - 1) for t in range(1, self.size + 1))
        if self.command == "trajectory":
            return self.size
        return conformance_grid_records(self.k, self.size)

    def case(self, seed: int, index: int) -> Case:
        rng = np.random.default_rng([seed, index])
        if self.command == "conformance":
            return Case(("conformance", "--max-k", str(self.k), "--max-t", str(self.size)))
        phi_text, phi = _draw_phi(rng, self.k)
        xi0_text, xi0 = _draw_xi0(rng, self.k)
        if self.command == "curve":
            argv = ["curve", "--phi", phi_text, "--tmax", str(self.size),
                    "--quantities", ",".join(self.quantities)]
            needs_xi0 = any(q in ("info_gain", "surprise") for q in self.quantities)
            if needs_xi0:
                argv += ["--xi0", xi0_text]
            return Case(tuple(argv), phi=phi, xi0=xi0 if needs_xi0 else None)
        symbols = rng.choice(self.k, size=self.size, p=np.asarray(phi))
        traj = tuple(int(x) for x in symbols)
        argv = ("trajectory", "--phi", phi_text, "--xi0", xi0_text,
                "--traj", ",".join(map(str, traj)), "--format", "json", "--units", "bits")
        return Case(argv, phi=phi, xi0=xi0, traj=traj)


def _draw_phi(rng: np.random.Generator, k: int) -> tuple[str, tuple[float, ...]]:
    """A data parameter in steps of 1/1000 with every component >= 0.05."""
    floor = 50
    extra = rng.multinomial(1000 - floor * k, rng.dirichlet([4.0] * k))
    parts = [f"{(floor + int(n)) / 1000:.3f}" for n in extra]
    return ",".join(parts), tuple(float(p) for p in parts)


def _draw_xi0(rng: np.random.Generator, k: int) -> tuple[str, tuple[float, ...]]:
    """A counter start with components in [0.25, 4) written to two decimals."""
    parts = [f"{int(n) / 100:.2f}" for n in rng.integers(25, 400, size=k)]
    return ",".join(parts), tuple(float(p) for p in parts)


def conformance_grid_records(max_k: int, max_t: int) -> int:
    """Records of the full grid: per (k, phi, t), two comparisons per counter
    start plus two start-spread records; then the quadrature cases."""
    points = (max_k - 1) * CONFORMANCE_PHIS_PER_K * max_t
    return points * (2 * CONFORMANCE_XI0S_PER_K + 2) + CONFORMANCE_KL_CASES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curve_k3_beliefs", "curve", 3, 26, ALL_CURVE_QUANTITIES),
        Workload("curve_k2_closure", "curve", 2, 210, CLOSURE_QUANTITIES),
        Workload("trajectory_k3_long", "trajectory", 3, 700),
        Workload("conformance_grid", "conformance", 3, 8),
    )
}
