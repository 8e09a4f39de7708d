"""A report depends on its scenario only through the ensemble as a state and
the instrument as a channel. So relabelling outcomes or letters, a unitary on
either space, splitting an outcome by a coin that ignores the letter, and
another Kraus representation of each outcome's map (the paper identifies an
instrument with its channel) move no panel entry and no check. These hold
without any recorded reference."""

import dataclasses
import functools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracle import channel_roundtrip, haar_unitary
from qinstr import harness, infobounds, instrument, qstate
from qinstr.harness import ACCEPTANCE_GRID, random_scenario, run_scenario
from qinstr.infobounds import analyze
from qinstr.instrument import Instrument, KrausMap
from qinstr.qstate import Ensemble

sys.path.append(str(Path(__file__).resolve().parent.parent / "scenariobench"))

import workloads  # noqa: E402
from test_infobounds import NULL_CELL_SCENARIOS  # noqa: E402

TOL = 1e-12


def _instrument(ins: Instrument, outcomes, kraus) -> Instrument:
    return Instrument(tuple(outcomes), tuple(KrausMap(ins.dim_in, ins.dim_out, k) for k in kraus))


def permute_outcomes(s, seed):
    ins = s.instrument
    order = np.roll(np.arange(len(ins.outcomes)), 1)
    ins = _instrument(ins, [ins.outcomes[w] for w in order], [ins.maps[w].kraus for w in order])
    return dataclasses.replace(s, instrument=ins)


def permute_letters(s, seed):
    e = s.ensemble
    order = np.roll(np.arange(len(e.letters)), 1)
    e = Ensemble(tuple(e.letters[a] for a in order), e.probs[order], e.states[order])
    return dataclasses.replace(s, ensemble=e)


def rotate_output(s, seed):
    """K -> V K for a unitary V on H2."""
    ins = s.instrument
    v = haar_unitary(ins.dim_out, np.random.default_rng(seed))
    return dataclasses.replace(s, instrument=_instrument(ins, ins.outcomes, [v @ m.kraus for m in ins.maps]))


def rotate_input(s, seed):
    """rho -> U rho U^dag and K -> K U^dag for a unitary U on H1."""
    e, ins = s.ensemble, s.instrument
    u = haar_unitary(e.dim, np.random.default_rng(seed))
    e = Ensemble(e.letters, e.probs, u @ e.states @ u.conj().T)
    ins = _instrument(ins, ins.outcomes, [m.kraus @ u.conj().T for m in ins.maps])
    return dataclasses.replace(s, ensemble=e, instrument=ins)


def split_outcome(s, seed):
    """Outcome 0's Kraus operators K become c K and s K, with c^2 + s^2 = 1."""
    ins = s.instrument
    theta = np.random.default_rng(seed).uniform(0.2, 1.4)
    kraus = [np.cos(theta) * ins.maps[0].kraus, *(m.kraus for m in ins.maps[1:]), np.sin(theta) * ins.maps[0].kraus]
    return dataclasses.replace(s, instrument=_instrument(ins, (*ins.outcomes, "split"), kraus))


def rebuild_kraus(s, seed):
    """Each outcome's Kraus operators refactored from its Choi matrix
    (``oracle.channel_roundtrip``), padded with a zero operator, and the first
    factor and the pad mixed by a seeded 2 x 2 unitary: the same channel, and
    other operators on every input, the basis slots' projectors too, which are
    their own Choi factors."""
    ins = channel_roundtrip(s.instrument)
    u = haar_unitary(2, np.random.default_rng(seed))
    kraus = [np.concatenate([u[0, 0] * m.kraus[:1], m.kraus[1:], u[1, 0] * m.kraus[:1]]) for m in ins.maps]
    ins = _instrument(ins, ins.outcomes, kraus)
    assert not np.array_equal(ins.kraus_stack, s.instrument.kraus_stack)
    return dataclasses.replace(s, instrument=ins)


@functools.lru_cache(maxsize=None)
def _scenario_and_report(shape, seed):
    s = random_scenario(*shape, seed=seed)
    return s, run_scenario(s)


# the first two of the four cycles of the benchmark's rank_deficient slots:
# two pure letters in d1 = 3, so eta is singular and Hall is skipped. A
# "basis" slot puts |j> and |k> under the 3-outcome projective instrument,
# whose third outcome is then null; a "pure" slot puts two random pure letters
# under a one-Kraus random instrument with (d2, outcomes) = (2, 3) or (3, 3).
# Each slot is built with its own index as seed, so no two draw alike.
EDGE_SLOTS = range(len(workloads.RANK_DEFICIENT) // 2)
QINSTR = SimpleNamespace(harness=harness, infobounds=infobounds, instrument=instrument, qstate=qstate)


def edge_scenario(slot: int):
    return workloads.make_scenario(QINSTR, "rank_deficient", slot, slot)


def edge_id(slot: int) -> str:
    return "-".join(map(str, (slot, *workloads.RANK_DEFICIENT[slot])))


# the random states of the Groenewold-Lindblad trials are drawn in a fixed
# basis of H1, so a rotation of H1 moves its gl_* rows
TRANSFORM_CASES = [
    (permute_outcomes, False),
    (permute_letters, False),
    (rotate_output, False),
    (rotate_input, True),
    (split_outcome, False),
    (rebuild_kraus, False),
]
TRANSFORMS = pytest.mark.parametrize("transform, moves_gl", TRANSFORM_CASES)

# TestNullCells' near-null scenarios under every transformation, on seeds 0
# and 1, and under a rotation of H1 on seeds 0-39 too. A near-null live cell's
# a posteriori state is its output divided by a trace as small as 8e-14, so
# the rotation's rounding of about 1e-17 can put its least eigenvalue as low
# as -5e-5, which the cell's weight takes out of every number. No
# transformation moves a cell across NULL_TRACE (1.4e-14): on every seed 0-39,
# each null cell's trace stays <= 9.1e-15 and each live cell's >= 8e-14.
NULL_CELL_CASES = [
    (seed, name, transform, moves_gl)
    for seed in range(40)
    for name in NULL_CELL_SCENARIOS
    for transform, moves_gl in TRANSFORM_CASES
    if seed < 2 or transform is rotate_input
]


def _assert_invariant(s, a, transform, seed, moves_gl):
    b = run_scenario(transform(s, seed))
    assert b["purity_preserving"] == a["purity_preserving"]
    assert b["hall_skipped"] == a["hall_skipped"]
    assert [c["name"] for c in b["checks"]] == [c["name"] for c in a["checks"]]
    assert b["panel"].keys() == a["panel"].keys()
    for k in a["panel"]:
        assert abs(b["panel"][k] - a["panel"][k]) <= TOL, k
    for ca, cb in zip(a["checks"], b["checks"]):
        if not (moves_gl and ca["name"].startswith("gl_")):
            assert abs(cb["lhs"] - ca["lhs"]) <= TOL and abs(cb["rhs"] - ca["rhs"]) <= TOL, (ca, cb)
    assert abs(b["quantum_info_gain"] - a["quantum_info_gain"]) <= TOL
    assert b["default_state_sensitivity"] == a["default_state_sensitivity"]


@TRANSFORMS
@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("shape", ACCEPTANCE_GRID)
def test_report_is_invariant(shape, seed, transform, moves_gl):
    _assert_invariant(*_scenario_and_report(shape, seed), transform, seed, moves_gl)


@TRANSFORMS
@pytest.mark.parametrize("slot", EDGE_SLOTS, ids=edge_id)
def test_edge_report_is_invariant(slot, transform, moves_gl):
    s = edge_scenario(slot)
    a = run_scenario(s)
    assert a["hall_skipped"] is not None  # eta is singular
    if workloads.RANK_DEFICIENT[slot][0] == "basis":
        assert analyze(s.ensemble, s.instrument).output_marginal.min() == 0.0  # the null outcome
    _assert_invariant(s, a, transform, slot, moves_gl)


@pytest.mark.parametrize("seed, name, transform, moves_gl", NULL_CELL_CASES)
def test_null_cell_report_is_invariant(seed, name, transform, moves_gl):
    s = harness.Scenario(*NULL_CELL_SCENARIOS[name])
    _assert_invariant(s, run_scenario(s), transform, seed, moves_gl)
