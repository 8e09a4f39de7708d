"""The tests' input corpus: every family of inputs the oracles run on, named
once (``FAMILIES``), and the reason for each (oracle, family) pair that does
not run (``LEFT_OUT``). The families: desk (the example scenarios), grid (the
72 acceptance shapes on seeds 0 and 1), large (``LARGE_SHAPES``), wide
(``WIDE_SHAPES``), edge (24 ``rank_deficient`` slots, where eta is singular
and Hall is skipped), suite (the acceptance suite's 200 scenarios) and
null-cell (``NULL_CELL_SCENARIOS``). An ``Input`` builds its scenario, its
report and its per-state scalars on first read and keeps them for the
session, so each is computed once however many tests read it; no test may
change them."""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracle
from conftest import KET0, KET1, orthogonal_ensemble
from qinstr import harness, infobounds, instrument, qstate
from qinstr.harness import (
    ACCEPTANCE_GRID, EXAMPLE_NAMES, Scenario, example_scenario, random_scenario, run_scenario, splitmix64)
from qinstr.instrument import Instrument, KrausMap
from qinstr.qstate import Ensemble

sys.path.append(str(Path(__file__).resolve().parent.parent / "scenariobench"))

import workloads  # noqa: E402

MASTER_SEED = 20240817  # the acceptance suite's
TRIALS = 200

# Shapes (d1, d2, letters, outcomes, Kraus operators) beyond the grid's
# d <= 3: each (d1, d2) from {2, 3, 4, 5} with max(d1, d2) >= 4, where the
# compound states reach 25 x 25, but those that random_instrument cannot
# normalize (outcomes * Kraus * d2 < d1); and the wide workload's nine.
LARGE_SHAPES = tuple((d1, d2, nl, no, kp) for d1 in (2, 3, 4, 5) for d2 in (2, 3, 4, 5) if max(d1, d2) >= 4
                     for nl in (2, 4) for no in (2, 4) for kp in (1, 2) if no * kp * d2 >= d1)
WIDE_SHAPES = tuple((5, 5, nl, no, 2) for nl in (2, 3, 4) for no in (2, 3, 4))


def diagonal_instrument(effects, kraus=1, seed=0):
    """One outcome per row of ``effects`` (each row the diagonal of E(w), the
    columns summing to 1), with Kraus operators U diag(sqrt(E(w)) / sqrt(kraus))
    for random unitaries U, so the a posteriori states are not diagonal."""
    effects = np.asarray(effects, dtype=float)
    rng = np.random.default_rng(seed)
    d = effects.shape[1]
    maps = tuple(
        KrausMap(d, d, tuple(oracle.haar_unitary(d, rng) @ np.diag(np.sqrt(row / kraus)) for _ in range(kraus)))
        for row in effects
    )
    return Instrument(tuple(range(len(effects))), maps)


# Hand-built near-null scenarios, (ensemble, instrument) by name; outcome A is
# 0 and B is 1. Three names describe the scenario as an earlier rule saw it,
# which also called an outcome null when its weight P_f was <= 1e-12; now a
# cell of trace <= NULL_TRACE (1.4e-14) is the only null, and an outcome is
# null iff every cell under it is. The cut-off the other two names mean is
# NULL_TRACE.
NULL_CELL_SCENARIOS = {
    # P(A|0) = 0.9e-14 is a null cell under the live outcome A, so rho_f(A)
    # is letter 1's cell state alone
    "sub_cutoff_cell_under_a_live_column": (
        orthogonal_ensemble(), diagonal_instrument([[0.9e-14, 0.8], [1 - 0.9e-14, 0.2]])),
    # P(A|1) = 7e-10 is live, so outcome A is live although P_f(A) = 7e-13
    # (the earlier rule called column A null and dropped it from tau_f(1))
    "live_cell_under_a_null_column": (
        Ensemble((0, 1), np.array([0.999, 0.001]), (KET0.mat, KET1.mat)),
        diagonal_instrument([[0.0, 7e-10], [1.0, 1 - 7e-10]])),
    # P(B|1) = 1 is live, so outcome B is live although P_f(B) = 1e-13, and
    # tau_f(1) is rho_f(B) (the earlier rule left letter 1 no live weight)
    "letter_with_no_live_weight": (
        Ensemble((0, 1), np.array([1 - 1e-13, 1e-13]), (KET0.mat, KET1.mat)),
        diagonal_instrument([[1.0, 0.0], [0.0, 1.0]])),
    # letter 1's cells P(A|1) = 2e-12 and P(B|1) are both live, so tau_f(1)
    # mixes rho_f(A) and rho_f(B) although P_f(B) = 1e-15 (the earlier rule
    # kept only A and renormalized letter 1 by 2e-12)
    "letter_with_little_live_weight": (
        Ensemble((0, 1), np.array([1 - 1e-15, 1e-15]), (KET0.mat, KET1.mat)),
        diagonal_instrument([[1.0, 2e-12], [0.0, 1 - 2e-12]])),
    # P(A|0) = 1e-15 is null and P(A|1) = 4e-12 live, so outcome A is live at
    # P_f(A) = 2e-12 and Hall's J must read the |0> cell of A as null too
    "null_cell_beside_a_near_cutoff_live_cell": (
        orthogonal_ensemble(), diagonal_instrument([[1e-15, 4e-12], [1 - 1e-15, 1 - 4e-12]])),
}

QINSTR = SimpleNamespace(harness=harness, infobounds=infobounds, instrument=instrument, qstate=qstate)


def edge_scenario(slot: int) -> Scenario:
    """|j> and |k> under the projective instrument, whose third outcome is then
    null ("basis"), or two random pure letters under a one-Kraus instrument
    ("pure"), seeded by the slot's index, so no two draw alike."""
    return workloads.make_scenario(QINSTR, "rank_deficient", slot, slot)


@dataclass(eq=False)
class Input:
    """One input: its family, its name (a test id), how to build it, and the
    seeds an oracle's random draws take on it."""

    family: str
    name: str
    build: Callable[[], Scenario]
    seeds: tuple

    @functools.cached_property
    def scenario(self) -> Scenario:
        return self.build()

    @functools.cached_property
    def report(self) -> dict:
        return run_scenario(self.scenario)

    @functools.cached_property
    def scalars(self) -> dict:
        return oracle.per_state_scalars(self.scenario.ensemble, self.scenario.instrument)


def _shaped(family: str, shapes, seed: int) -> list:
    return [Input(family, f"{family}-{seed}-" + "-".join(map(str, shape)),
                  functools.partial(random_scenario, *shape, seed=seed), (seed,)) for shape in shapes]


FAMILIES = {
    "desk": [Input("desk", name, functools.partial(example_scenario, name), (0,)) for name in EXAMPLE_NAMES],
    "grid": _shaped("grid", ACCEPTANCE_GRID, 0) + _shaped("grid", ACCEPTANCE_GRID, 1),
    "large": _shaped("large", LARGE_SHAPES, 0),
    "wide": _shaped("wide", WIDE_SHAPES, 1),
    "edge": [Input("edge", "edge-" + "-".join(map(str, (slot, *workloads.RANK_DEFICIENT[slot]))),
                   functools.partial(edge_scenario, slot), (slot,))
             for slot in range(len(workloads.RANK_DEFICIENT) // 2)],
    "suite": [Input("suite", f"suite-{index}", functools.partial(
        random_scenario, *ACCEPTANCE_GRID[index % len(ACCEPTANCE_GRID)], seed=splitmix64(MASTER_SEED + index)),
        (index,)) for index in range(TRIALS)],
    "null-cell": [Input("null-cell", f"null-{name}", functools.partial(Scenario, *pair), (0, 1))
                  for name, pair in NULL_CELL_SCENARIOS.items()],
}
INPUTS = {inp.name: inp for family in FAMILIES.values() for inp in family}

ORACLES = ("per_state_scalars", "sequential_gl", *oracle.TRANSFORMS, *oracle.RELATIONS)

# Why an oracle does not run on a family, or on one input (by its name). The
# per-state oracle leaves out the gl_* rows, which sequential_gl holds.
LEFT_OUT = {
    **{("sequential_gl", family): f"the replay costs 6-66 ms an input at the reports' 100 trials, {cost} for "
       "this family, and test_batched_gl_matches_sequential replays the grid's 72 shapes at 20 trials"
       for family, cost in (("grid", "2.5 s"), ("large", "1.9 s"), ("suite", "3.6 s"))},
    ("merged_outcomes", "identity-instrument"): "one outcome: there are not two to merge",
    ("permute_outcomes", "identity-instrument"): "one outcome: a permutation leaves the scenario as it is",
    **{(name, "suite"): "the suite's scenarios are the grid's 72 shapes at other seeds, and the grid runs every "
       "transform; its 1200 cases would add about 4 s to tier-1" for name in oracle.TRANSFORMS},
}
# The near-null scenarios run each seeded oracle on two seeds, each oracle that
# draws nothing once (a second seed would repeat the first case), and the
# rotation of H1 on forty: a near-null live cell's state is its output divided
# by a trace as small as 8e-14, so a rotation's rounding of about 1e-17 can put
# its least eigenvalue as low as -5e-5, which the cell's weight takes out of
# every number. No transformation moves a cell across NULL_TRACE: on every seed
# 0-39, each null cell's trace stays <= 9.1e-15 and each live cell's >= 8e-14.
SEEDS = {("rotate_input", "null-cell"): range(40), **{
    (name, "null-cell"): (0,)
    for name in ("permute_outcomes", "permute_letters", "merged_outcomes", "merged_letters", "split_and_merged_back")}}

RAN = Counter()  # cases run this session, by (oracle, family)


def inputs(oracle_name: str) -> list:
    """Every input but those ``LEFT_OUT`` names for ``oracle_name``, by family or by name."""
    return [inp for inp in INPUTS.values()
            if (oracle_name, inp.family) not in LEFT_OUT and (oracle_name, inp.name) not in LEFT_OUT]


def cases(oracle_name: str) -> list:
    """(input, seed) of each case: each input under its seeds, or the pair's in ``SEEDS``."""
    return [(inp, seed) for inp in inputs(oracle_name) for seed in SEEDS.get((oracle_name, inp.family), inp.seeds)]


def coverage_lines() -> list:
    """One line per (oracle, family) pair: the cases run this session, and
    the reason for each input left out, or the reason the pair does not run."""
    lines = []
    for name in ORACLES:
        for family, members in FAMILIES.items():
            ran = [] if (name, family) in LEFT_OUT else [f"{RAN[name, family]} cases"]
            left = [f"{what} left out: {why}" for (oracle_name, what), why in LEFT_OUT.items()
                    if oracle_name == name and what in (family, *(inp.name for inp in members))]
            lines.append(f"{name} on {family}: " + "; ".join(ran + left))
    return lines
