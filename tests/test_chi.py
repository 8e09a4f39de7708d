"""Every chi of the pipeline is an entropy difference against its family's own
barycenter (entropy.chi_against), which reads every positive eigenvalue. Where
a rare letter leaves eta an eigenvalue below SUPPORT_CUTOFF, the
relative-entropy form's support test reads +inf; these tests hold the report
finite and passing there. The relative-entropy form itself is the
per-state oracle's (``oracle.per_state_scalars``), which
``test_corpus.test_report_matches_the_per_state_oracle`` holds every
report number to."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qinstr.harness import Scenario, main, run_scenario
from qinstr.instrument import Instrument, KrausMap, random_instrument
from qinstr.qstate import Ensemble, pure_state


def projective(d):
    eye = np.eye(d)
    maps = tuple(KrausMap(d, d, (np.outer(eye[k], eye[k]).astype(complex),)) for k in range(d))
    return Instrument(tuple(range(d)), maps)


def rare_direction_ensemble(lam=7e-10):
    """|0>, |+> and a rare letter whose weight outside their span is lam: eta's
    eigenvalue there, 1e-3 lam, lies below SUPPORT_CUTOFF, and every entropy
    still reads it."""
    inv = 1 / math.sqrt(2)
    states = (
        pure_state([1, 0, 0]),
        pure_state([inv, inv, 0]),
        np.diag([0.5 - lam / 2, 0.5 - lam / 2, lam]),
    )
    return Ensemble((0, 1, 2), np.array([0.5, 0.499, 0.001]), states)


class TestRareDirection:
    def test_report_is_finite_and_passes(self):
        report = run_scenario(Scenario(rare_direction_ensemble(), projective(3)))
        assert all(math.isfinite(v) for v in report["panel"].values())
        assert all(math.isfinite(c["lhs"]) and math.isfinite(c["rhs"]) for c in report["checks"])
        assert report["overall_pass"]

    def test_analyze_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(Scenario(rare_direction_ensemble(), projective(3)).to_json()))
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall_pass"] is True


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0 ** x)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 3),
    weight=_log_uniform(1e-9, 1e-3),
    lam=_log_uniform(1e-14, 1e-6),
    pure_outside=st.booleans(),
    use_projective=st.booleans(),
    seed=st.integers(0, 10 ** 6),
)
def test_rare_letters_stay_finite(d, weight, lam, pure_outside, use_projective, seed):
    """Common letters live in the first d-1 coordinates (so without the rare
    letter eta is rank-deficient); the rare letter has weight `weight` and puts
    `lam` on the last coordinate. The projective instrument makes that
    coordinate's outcome near-null."""
    rng = np.random.default_rng(seed)

    def ket():
        v = np.zeros(d, dtype=complex)
        v[: d - 1] = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        return v / np.linalg.norm(v)

    common = [pure_state(ket()) for _ in range(2)]
    k = ket()
    last = np.zeros(d)
    last[-1] = 1.0
    rare = (1 - lam) * np.outer(k, k.conj()) + lam * np.diag(last)
    if not pure_outside:
        rare = 0.5 * rare + 0.5 * common[0]
    split = rng.uniform(0.2, 0.8)
    probs = np.array([(1 - weight) * split, (1 - weight) * (1 - split), weight])
    e = Ensemble((0, 1, 2), probs, (*common, rare))
    ins = projective(d) if use_projective else random_instrument(d, d, 3, 1, seed=seed)
    scenario = Scenario(e, ins, gl_trials=10, gl_demix=1, seed=seed)
    report = run_scenario(scenario)

    assert all(math.isfinite(v) for v in report["panel"].values())
    assert all(math.isfinite(c["lhs"]) and math.isfinite(c["rhs"]) for c in report["checks"])
    shannon = -sum(p * math.log(p) for p in probs)
    assert report["panel"]["chi_initial"] <= shannon + scenario.tol
