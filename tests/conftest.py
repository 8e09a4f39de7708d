"""Helpers the test modules share, which are not tests: no test module
imports another (``tests/test_imports.py``). The inputs the oracles run on
are ``tests/corpus.py``'s, and the oracles ``tests/oracle.py``'s."""

import ast
import dataclasses
import inspect
import math
import sys

import numpy as np

from qinstr.errors import QinstrError
from qinstr.hallmap import hall_section
from qinstr.harness import Scenario, example_scenario, judged_rows, random_scenario, run_scenario
from qinstr.infobounds import INEQ_TOL, ROWS, compound_states, entropy_panel, random_pure, scutaru_chains
from qinstr.instrument import Instrument, KrausMap, random_instrument
from qinstr.qstate import DensityMatrix, Ensemble, pure_state

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    corpus = sys.modules.get("corpus")  # loaded once a test reads the corpus
    if corpus and corpus.RAN:
        terminalreporter.section("corpus coverage")
        for line in corpus.coverage_lines():
            terminalreporter.write_line(line)


def counted(counts: dict, name: str, fn):
    """``fn``, adding one to ``counts[name]`` on each call: patched in for
    ``fn``, it counts the calls a run makes."""

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


KIND = {name: kind for name, kind, _, _ in ROWS}  # each row's kind, by its name
TERMS = {name: {term.lstrip("-") for term in lhs + rhs} for name, _, lhs, rhs in ROWS}


def judged(stage: dict, context=None, kind=None, tol: float = INEQ_TOL) -> list:
    """The report rows that read one of ``stage``'s scalars, built and judged
    at ``tol`` as a base-e report builds and judges them, by
    ``harness.judged_rows``: one dict per row, in nats. ``context`` (a dict
    of scalars, such as the panel) gives the other terms they read, as I_c
    and chi_initial for the Scutaru and Hall rows. With ``kind``, only rows
    of that kind in ``ROWS``: the panel's own "eq" rows are the identities
    and its "ge" rows the bounds."""
    return [row for row in judged_rows({**(context or {}), **stage}, "e", tol)
            if TERMS[row["name"]] & stage.keys() and kind in (None, KIND[row["name"]])]


def pure(vec) -> DensityMatrix:
    """A ket's state as the oracles in ``oracle`` take it. Its
    ``.mat`` is ``pure_state``'s array, which is what an ``Ensemble`` takes."""
    return DensityMatrix(pure_state(vec))


KET0, KET1, PLUS = pure([1, 0]), pure([0, 1]), pure([1 / math.sqrt(2), 1 / math.sqrt(2)])


def projective_qubit():
    """The desk instrument: the computational-basis projectors on a qubit."""
    return example_scenario("orthogonal-projective").instrument


def orthogonal_ensemble():
    """|0> and |1> at prior 1/2."""
    return example_scenario("orthogonal-projective").ensemble


def zero_plus_ensemble():
    """|0> and |+> at prior 1/2."""
    return example_scenario("zero-one-plus").ensemble


# The input contract's values: random_scenario(*spec) hashes to its value, and
# the pure-letter scenario to the first value as built, the second read back
GOLDEN_GENERATED = (
    ((2, 2, 3, 3, 2, 7), "4dbc43409d64acd4"),
    ((3, 2, 2, 4, 1, 99), "9bec63adee0774ee"),
    ((5, 5, 3, 3, 2, 11), "7fc10edea4eeda1b"),
)
GOLDEN_PURE_LETTERS = ("cb12254c3f3b049b", "f20fe675733174fa")


def golden_pure_letters() -> Scenario:
    """Two pure letters in d1 = 3, whose tiny negative eigenvalues ingest clamps."""
    rng = np.random.default_rng(5)
    states = (random_pure(3, rng), random_pure(3, rng))
    return Scenario(
        ensemble=Ensemble((0, 1), np.array([0.3, 0.7]), states),
        instrument=random_instrument(3, 2, 3, 1, seed=5),
        seed=5,
    )


def qinstr_calls(fn) -> list:
    """The qinstr functions that fn's body calls, in the order of its source,
    as (module, name, function): the module is the one fn looks the name up
    in, fn's own for a bare name (``analyze``) and the named module for an
    attribute (``hallmap.hall_section``)."""
    home = sys.modules[fn.__module__]
    calls = []
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            module, name = home, node.func.id
        elif isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            module, name = getattr(home, node.func.value.id, None), node.func.attr
        else:
            continue
        called = getattr(module, name, None) if inspect.ismodule(module) else None
        if inspect.isfunction(called) and called.__module__.startswith("qinstr."):
            calls.append(((node.lineno, node.col_offset), (module, name, called)))
    return [call for _, call in sorted(calls, key=lambda c: c[0])]


RUN_SCENARIO_CALLS = qinstr_calls(run_scenario)


def right_normalized(groups):
    """The instrument with one outcome per group of raw d x d Kraus operators,
    every operator right-multiplied by S^{-1/2}, S = sum K^dag K, as
    random_instrument normalizes."""
    vals, vecs = np.linalg.eigh(sum(k.conj().T @ k for group in groups for k in group))
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    d = len(inv_sqrt)
    return Instrument(tuple(range(len(groups))),
                      tuple(KrausMap(d, d, tuple(k @ inv_sqrt for k in group)) for group in groups))


def refill(ms, state):
    """``ms`` with the a posteriori state of every null cell (a grid cell of
    P(w | a) exactly 0, an outcome of P_f(w) exactly 0) replaced by ``state``."""
    grid = ms.posterior_letter_states.copy()
    grid[ms.cond_out_given_in == 0.0] = state
    mean = ms.posterior_mean_states.copy()
    mean[ms.output_marginal == 0.0] = state
    return dataclasses.replace(ms, posterior_letter_states=grid, posterior_mean_states=mean)


def downstream(ms):
    """Every number the pipeline takes from ``ms``: the panel, I_q(eta), the
    compound states and their rows, the Scutaru chains and the Hall section,
    or the error it raises (``test_hallmap.test_near_null_dual_outcome_is_analyzed``)."""
    cs = compound_states(ms)
    panel = entropy_panel(ms)
    rows = judged({**cs.deviations, **scutaru_chains(ms, cs)}, panel)
    try:
        rows += judged(hall_section(ms), panel)
    except QinstrError as exc:
        rows.append(repr(exc))
    arrays = [a.tobytes() for a in (cs.eps_if, cs.eps_i, cs.eps_f, cs.eta_if, cs.tau_f, cs.gamma_if)]
    return panel, ms.info_gain, rows, arrays


def scaled_zero_one_plus() -> Scenario:
    """The zero-one-plus desk scenario with every Kraus entry scaled by
    sqrt(1 + 3e-10): the effects sum to (1 + 3e-10) I, which ingest accepts
    (POVM_SUM_TOL = 1e-9) and the Instrument normalizes once, when it is
    built."""
    s = example_scenario("zero-one-plus")
    scale = math.sqrt(1 + 3e-10)
    ins = Instrument(s.instrument.outcomes, tuple(KrausMap(2, 2, scale * m.kraus) for m in s.instrument.maps))
    return Scenario(s.ensemble, ins)


def effect_sum_off_the_identity_in_every_entry() -> Scenario:
    """random_scenario(3, 2, 2, 2, 1, 7)'s Kraus operators right-multiplied by
    (I + c J)^(1/2), with J the all-ones matrix and c = 0.999e-9, so that the
    effects sum to I + c J: every entry is within POVM_SUM_TOL of the
    identity's, while the operator norm of the deviation is 3c. The letters
    are psi psi^dag, psi = (0.88, b, b) near J's range, at prior 1 - 1e-6,
    and |1><1| at 1e-6."""
    ins = random_scenario(3, 2, 2, 2, 1, 7).instrument
    c = 0.999e-9
    root = np.eye(3) + (math.sqrt(1 + 3 * c) - 1) / 3 * np.ones((3, 3))
    ins = Instrument(ins.outcomes, tuple(KrausMap(3, 2, m.kraus @ root) for m in ins.maps))
    b = math.sqrt((1 - 0.88 ** 2) / 2)
    letters = (pure_state([0.88, b, b]), pure_state([0, 1, 0]))
    return Scenario(Ensemble((0, 1), np.array([1 - 1e-6, 1e-6]), letters), ins)
