import math

from qinstr.harness import example_scenario, judged_rows
from qinstr.infobounds import ROWS, check_rows
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


def judged(rows, tol: float) -> list:
    """Check rows (``BoundCheck``) judged at tol as a base-e report judges
    them, by ``harness.judged_rows``, the one tolerance policy: one dict per
    row, whose lhs, rhs and slack are the row's own floats, in nats."""
    return judged_rows(rows, "e", tol)


def rows_reading(stage: dict, panel=None, kind=None) -> list:
    """The check rows that read one of ``stage``'s scalars, built as a report
    builds them (``infobounds.check_rows``), in nats; ``panel`` (an
    ``EntropyPanel``) gives the other terms they read, as I_c and chi_initial
    for the Scutaru and Hall rows. With ``kind``, only rows of that kind: the
    panel's own "eq" rows are the identities and its "ge" rows the bounds."""
    terms = {name: {term.lstrip("-") for term in lhs + rhs} for name, _, lhs, rhs in ROWS}
    context = {} if panel is None else panel._asdict()
    return [row for row in check_rows({**context, **stage})
            if terms[row.name] & stage.keys() and kind in (None, row.kind)]


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
