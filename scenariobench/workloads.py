"""Scenario inputs of the three workloads, generated with qinstr's own generators.

A workload is a fixed list of slots; one pass runs every slot once. Each slot
has VARIANTS recorded inputs per pool, and the run seed picks one variant per
slot, so every input a run can see has a reference report recorded in
``reference/``. The ``main`` pool is the one runs use by default; ``holdout``
is a second, independent pool for confirming a gain on inputs nobody tuned on.
"""

from __future__ import annotations

import json

VARIANTS = 4
POOL_SEEDS = {"main": 20240817, "holdout": 7919}

# (d1, d2, letters, outcomes, kraus per outcome), the cycle of
# harness.run_acceptance_suite, frozen here so the inputs stay fixed.
ACCEPTANCE_GRID = tuple(
    (d1, d2, nl, no, kp)
    for d1 in (2, 3)
    for d2 in (2, 3)
    for nl in (2, 3, 4)
    for no in (2, 3, 4)
    for kp in (1, 2)
)

# 25x25 compound states: the eigensolver and the compound/Scutaru stages lead.
# Each shape appears three times, so that one pass has enough samples for a
# steady median.
WIDE = tuple((5, 5, nl, no, 2) for _ in range(3) for nl in (2, 3, 4) for no in (2, 3, 4))

# d1 = 3 with two pure letters, so the a priori state is singular and Hall is
# skipped. "basis" slots put two computational-basis letters under the
# projective instrument (null outcomes, so run_scenario analyzes twice);
# "pure" slots put random pure letters under one-Kraus random instruments
# with (d2, outcomes) = (2, 3) or (3, 3). The 16 slowest slots share one
# shape, so the tail percentile (10 samples above it) falls inside that group
# rather than on the step between two shapes.
_BASIS_PAIRS = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))
_PURE_SHAPES = ((2, 3), (3, 3), (3, 3), (2, 3), (3, 3), (3, 3))
RANK_DEFICIENT = tuple(
    slot
    for _ in range(4)
    for pair, shape in zip(_BASIS_PAIRS, _PURE_SHAPES)
    for slot in (("basis", *pair), ("pure", *shape))
)

SLOTS = {
    "accept_grid": ACCEPTANCE_GRID,
    "wide": WIDE,
    "rank_deficient": RANK_DEFICIENT,
}


def scenario_seed(splitmix64, workload: str, pool: str, slot: int, variant: int) -> int:
    offset = list(SLOTS).index(workload) * 1_000_000 + slot * VARIANTS + variant
    return splitmix64(POOL_SEEDS[pool] + offset)


def pick_variants(splitmix64, workload: str, run_seed: int) -> list:
    base = splitmix64(run_seed)
    return [splitmix64(base + slot) % VARIANTS for slot in range(len(SLOTS[workload]))]


def _probs(rng, n: int, floor: float = 0.05):
    probs = rng.uniform(size=n)
    probs = probs / probs.sum()
    probs = [max(p, floor) for p in probs]
    total = sum(probs)
    return [p / total for p in probs]


def _rank_deficient(q, slot, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    if slot[0] == "basis":
        eye = np.eye(3)
        states = tuple(q.qstate.pure_state(eye[k]) for k in slot[1:])
        proj = tuple(
            q.instrument.KrausMap(3, 3, (np.outer(eye[k], eye[k]).astype(complex),))
            for k in range(3)
        )
        ins = q.instrument.Instrument((0, 1, 2), proj)
    else:
        _, d2, n_out = slot
        states = tuple(q.infobounds.random_pure(3, rng) for _ in range(2))
        ins = q.instrument.random_instrument(3, d2, n_out, 1, seed=q.harness.splitmix64(seed))
    ensemble = q.qstate.Ensemble((0, 1), np.array(_probs(rng, 2)), states)
    return q.harness.Scenario(ensemble=ensemble, instrument=ins, seed=seed)


def make_scenario(qinstr, workload: str, slot: int, seed: int):
    spec = SLOTS[workload][slot]
    if workload == "rank_deficient":
        return _rank_deficient(qinstr, spec, seed)
    return qinstr.harness.random_scenario(*spec, seed)


def generate(qinstr, workload: str, run_seed: int, pool: str = "main") -> list:
    """One pass of (reference key, scenario JSON text) for this run seed."""
    mix = qinstr.harness.splitmix64
    out = []
    for slot, variant in enumerate(pick_variants(mix, workload, run_seed)):
        seed = scenario_seed(mix, workload, pool, slot, variant)
        scenario = make_scenario(qinstr, workload, slot, seed)
        out.append((f"{slot}:{variant}", json.dumps(scenario.to_json())))
    return out
