import math

from qinstr.harness import example_scenario, judged_rows
from qinstr.infobounds import INEQ_TOL, ROWS
from qinstr.qstate import DensityMatrix, pure_state

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
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
