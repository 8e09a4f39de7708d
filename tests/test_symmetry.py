"""A report depends on its scenario only through the ensemble as a state and
the instrument as a channel. So relabelling outcomes or letters, a unitary on
either space, and splitting an outcome by a coin that ignores the letter move
no panel entry and no check. These hold without any recorded reference."""

import dataclasses
import functools

import numpy as np
import pytest

from qinstr.harness import ACCEPTANCE_GRID, random_scenario, run_scenario
from qinstr.instrument import Instrument, KrausMap
from qinstr.qstate import Ensemble

TOL = 1e-12


def _unitary(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


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
    v = _unitary(ins.dim_out, seed)
    return dataclasses.replace(s, instrument=_instrument(ins, ins.outcomes, [v @ m.kraus for m in ins.maps]))


def rotate_input(s, seed):
    """rho -> U rho U^dag and K -> K U^dag for a unitary U on H1."""
    e, ins = s.ensemble, s.instrument
    u = _unitary(e.dim, seed)
    e = Ensemble(e.letters, e.probs, u @ e.states @ u.conj().T)
    ins = _instrument(ins, ins.outcomes, [m.kraus @ u.conj().T for m in ins.maps])
    return dataclasses.replace(s, ensemble=e, instrument=ins)


def split_outcome(s, seed):
    """Outcome 0's Kraus operators K become c K and s K, with c^2 + s^2 = 1."""
    ins = s.instrument
    theta = np.random.default_rng(seed).uniform(0.2, 1.4)
    kraus = [np.cos(theta) * ins.maps[0].kraus, *(m.kraus for m in ins.maps[1:]), np.sin(theta) * ins.maps[0].kraus]
    return dataclasses.replace(s, instrument=_instrument(ins, (*ins.outcomes, "split"), kraus))


@functools.lru_cache(maxsize=None)
def _scenario_and_report(shape, seed):
    s = random_scenario(*shape, seed=seed)
    return s, run_scenario(s)


# the random states of the Groenewold-Lindblad trials are drawn in a fixed
# basis of H1, so a rotation of H1 moves its gl_* rows
@pytest.mark.parametrize("transform, moves_gl", [
    (permute_outcomes, False),
    (permute_letters, False),
    (rotate_output, False),
    (rotate_input, True),
    (split_outcome, False),
])
@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("shape", ACCEPTANCE_GRID)
def test_report_is_invariant(shape, seed, transform, moves_gl):
    s, a = _scenario_and_report(shape, seed)
    b = run_scenario(transform(s, seed))
    assert b.purity_preserving == a.purity_preserving
    assert b.hall_skipped == a.hall_skipped
    assert [c.name for c in b.checks] == [c.name for c in a.checks]
    assert b.panel.keys() == a.panel.keys()
    for k in a.panel:
        assert abs(b.panel[k] - a.panel[k]) <= TOL, k
    for ca, cb in zip(a.checks, b.checks):
        if not (moves_gl and ca.name.startswith("gl_")):
            assert abs(cb.lhs - ca.lhs) <= TOL and abs(cb.rhs - ca.rhs) <= TOL, (ca, cb)
    assert abs(b.quantum_info_gain - a.quantum_info_gain) <= TOL
