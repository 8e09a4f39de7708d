"""Command-line front end: the scenario file, seeded random suites,
full-analysis orchestration and report emission (json / markdown / csv). An
error exits by the phase of ``main`` it arose in, never by its class: reading
the input 2, a stage 3 whatever the error (its line names the stage), writing
the output 4. A report is the JSON tree it is written as: ``run_scenario``
returns it, with the check rows built from the stages' named scalars by the
one table (``infobounds.ROWS``), put in the report's unit and judged by the
one tolerance policy in one pass (``judged_rows``), and ``emit_report``
writes it.

The scenario file's format lives here alone: ``Scenario.to_json`` writes it
and ``scenario_from_json`` reads it, by its typing rules: an object has a
closed set of keys (``as_object``: ``SCENARIO_KEYS``, ``ENSEMBLE_KEYS``,
``INSTRUMENT_KEYS``, ``OPTION_KEYS``), numbers are JSON numbers
(``as_numbers``), the letters and each outcome's Kraus operators are a stack
of matrices of their shape, read in one pass (``stack_from_json``), a count is
an integer (``as_count``, which also reads the count flags), a tolerance a
finite, non-negative number (``as_tol``) and labels are a list
(``as_labels``). The letters go through ingest's clamp
(``ensemble_from_json``)."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import numbers
import sys
import traceback
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import hallmap
from .errors import QinstrError, SchemaError
from .infobounds import (
    EQ_TOL,
    INEQ_TOL,
    ROWS,
    analyze,
    compound_states,
    entropy_panel,
    groenewold_lindblad_check,
    random_ensemble,
    scutaru_chains,
)
from .instrument import Instrument, KrausMap, random_instrument
from .qstate import Ensemble, _clamped, pure_state

NATS_PER_UNIT = {"e": 1.0, "2": math.log(2.0)}  # a report's unit, by log_base: nats or bits
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Stateless 64-bit mixer used to derive per-trial seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# ---------------------------------------------------------------------------
# the scenario file: its typing rules, its matrices and its objects

def matrix_to_json(a: np.ndarray) -> list:
    """Rows of [re, im] pairs, for a matrix already checked (a state's or a
    Kraus operator's): the entries are not checked again."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def stack_from_json(name: str, rows: list, shape: Optional[tuple] = None) -> np.ndarray:
    """The stack of complex matrices that ``matrix_to_json`` wrote under
    ``name``, read in one ``numpy.array`` pass (``as_numbers``): JSON shape
    [matrix, rows, cols, 2], each matrix of ``shape`` (square when None). A
    d = 2 matrix written without its [re, im] level also ends in an axis of 2;
    only the whole shape tells it apart. The stack's reader checks the entries."""
    a = as_numbers(name, rows)
    if a.ndim != 4 or a.shape[-1] != 2 or a.shape[1:3] != (shape or (a.shape[2],) * 2):
        rows_cols = "d x d" if shape is None else f"{shape[0]} x {shape[1]}"
        raise SchemaError(f"{name} must be a stack of {rows_cols} matrices of [re, im] number pairs, "
                          f"got JSON shape {a.shape}")
    return a.view(np.complex128)[..., 0]


def as_numbers(name: str, values) -> np.ndarray:
    """A JSON list (or nested lists) of numbers as one float64 array, read in
    one ``numpy.array`` pass. Only JSON numbers are taken (dtype kind i, u or
    f): ``numpy.array(values, np.float64)`` would read "0.5" as 0.5, so a
    numeric string, null, an object, ragged lists or a boolean is a
    SchemaError. numpy promotes a boolean among numbers to 0 or 1, so the
    entries' types are read too, by ``map`` over the flattened lists (C
    iteration, no Python loop per entry)."""
    try:
        a = np.array(values)
    except (TypeError, ValueError) as exc:  # ragged lists
        raise SchemaError(f"malformed {name}: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise SchemaError(
            f"{name} must hold JSON numbers only (no string, boolean or null), "
            f"got numpy dtype {a.dtype}"
        )
    entries = [values]
    for _ in range(a.ndim):
        entries = itertools.chain.from_iterable(entries)
    if bool in map(type, entries):
        raise SchemaError(f"{name} must hold JSON numbers only, got a boolean among them")
    return a.astype(np.float64, copy=False)


def as_count(name: str, value, least: int) -> int:
    """``value`` as an integer >= ``least``. An integral float reads as its
    integer (2.0 is 2, so a fingerprint does not move); a boolean, a string, a
    fraction or a non-finite number is a SchemaError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise SchemaError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def as_tol(name: str, value) -> float:
    """``value`` as a finite, non-negative float; a boolean, a string or a
    NaN, infinite or negative number is a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value < math.inf:
        raise SchemaError(f"{name} must be a finite, non-negative number, got {value!r}")
    return float(value)


def as_labels(name: str, values) -> tuple:
    """A JSON list of labels as a tuple; a string is no list of labels."""
    if not isinstance(values, list):
        raise SchemaError(f"{name} must be a list of labels, got {type(values).__name__}")
    return tuple(values)


def as_object(name: str, obj, keys: tuple) -> dict:
    """``obj``, once it is a JSON object whose every key is one of ``keys``: a
    misspelt or retired key is a SchemaError that names it, never ignored."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{name} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise SchemaError(f"unknown key {key!r} in {name}; its keys are {', '.join(keys)}")
    return obj


def default_tol() -> float:
    """INEQ_TOL, read from nothing: kept only for the provenance that scenariobench/run.py records."""
    return INEQ_TOL


SCENARIO_KEYS = ("ensemble", "instrument", "options")
ENSEMBLE_KEYS = ("letters", "probs", "states")
INSTRUMENT_KEYS = ("dim_in", "dim_out", "outcomes", "kraus")
OPTION_KEYS = ("log_base", "tol", "gl_trials", "gl_demix", "seed")


@dataclass(frozen=True, eq=False)
class Scenario:
    ensemble: Ensemble
    instrument: Instrument
    log_base: str = "e"
    tol: float = INEQ_TOL
    gl_trials: int = 100
    gl_demix: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.ensemble.dim != self.instrument.dim_in:
            raise SchemaError(
                f"ensemble dim {self.ensemble.dim} incompatible with "
                f"instrument dim_in {self.instrument.dim_in}"
            )
        if self.log_base not in NATS_PER_UNIT:
            raise SchemaError(f"log_base must be {' or '.join(map(repr, NATS_PER_UNIT))}, got {self.log_base!r}")
        object.__setattr__(self, "tol", as_tol("tol", self.tol))
        for name, least in (("gl_trials", 1), ("gl_demix", 0), ("seed", 0)):
            object.__setattr__(self, name, as_count(name, getattr(self, name), least))

    def to_json(self) -> dict:
        e, ins = self.ensemble, self.instrument
        return {
            "ensemble": {
                "letters": list(e.letters),
                "probs": [float(p) for p in e.probs],
                "states": matrix_to_json(e.given_states),
            },
            "instrument": {
                "dim_in": ins.dim_in,
                "dim_out": ins.dim_out,
                "outcomes": list(ins.outcomes),
                "kraus": [matrix_to_json(m.kraus) for m in ins.maps],
            },
            "options": {name: getattr(self, name) for name in OPTION_KEYS},
        }


def ensemble_from_json(obj: dict) -> Ensemble:
    """The letters are read as one stack, checked and decomposed once by the
    Ensemble; only when ingest's rule (``qstate._clamped``, on the letters as
    given) repairs a letter is the repaired stack checked and decomposed again."""
    obj = as_object("ensemble", obj, ENSEMBLE_KEYS)
    letters = as_labels("letters", obj["letters"])
    probs = as_numbers("probs", obj["probs"])
    e = Ensemble(letters, probs, stack_from_json("states", obj["states"]))
    clamped = _clamped(e.given_states, e.eigenvalues[:, 0])
    return e if clamped is None else Ensemble(letters, probs, clamped)


def scenario_from_json(obj: dict) -> Scenario:
    try:
        obj = as_object("scenario", obj, SCENARIO_KEYS)
        ensemble = ensemble_from_json(obj["ensemble"])
        ins = as_object("instrument", obj["instrument"], INSTRUMENT_KEYS)
        d1 = as_count("dim_in", ins["dim_in"], 1)
        d2 = as_count("dim_out", ins["dim_out"], 1)
        # one parse per outcome; an empty outcome is KrausMap's to name
        maps = tuple(
            KrausMap(d1, d2, stack_from_json(f"kraus[{w}]", group, (d2, d1)) if group else ())
            for w, group in enumerate(ins["kraus"])
        )
        instrument = Instrument(as_labels("outcomes", ins["outcomes"]), maps)
        # the options the file gives; Scenario holds every default
        return Scenario(ensemble, instrument, **as_object("options", obj.get("options", {}), OPTION_KEYS))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed scenario: {exc}") from exc


def judged_rows(scalars: dict, log_base: str, tol: float) -> list:
    """The report's check rows, in one pass over ``ROWS``. An entry becomes a
    row only when ``scalars`` holds each of its terms, so the GL gain row
    comes only with a purity-preserving instrument and Hall's rows only when
    the section ran; a side of one list-valued term (``gl_chain``'s) gives
    one row per entry. Each row is put in the report's unit and judged once
    by the one tolerance policy: a "ge" row passes iff its slack rhs - lhs is
    >= -tol, an "eq" or "dev" row iff |slack| <= min(EQ_TOL, tol), and a
    "data" row always; a NaN slack fails every judged kind. Under base 2 an
    entropy row's lhs and rhs are in bits, so its slack and its pass are in
    bits too; a deviation row (kind "dev") reads the same in either base."""
    entropy_unit = NATS_PER_UNIT[log_base]
    eq_tol = min(EQ_TOL, tol)
    rows = []
    for name, kind, lhs_terms, rhs_terms in ROWS:
        try:
            left, right = _side(lhs_terms, scalars), _side(rhs_terms, scalars)
        except KeyError:  # a term that its stage did not return
            continue
        unit = 1.0 if kind == "dev" else entropy_unit
        for lhs, rhs in zip(left, right) if type(left) is list else ((left, right),):
            lhs, rhs = float(lhs) / unit, float(rhs) / unit
            slack = rhs - lhs
            if kind in ("eq", "dev"):
                passed = abs(slack) <= eq_tol
            else:
                passed = kind == "data" or slack >= -tol
            rows.append({"name": name, "lhs": lhs, "rhs": rhs, "slack": slack, "pass": passed})
    return rows


def _side(terms: tuple, scalars: dict):
    """One side of a row, summed left to right from its first term, and 0.0
    with no terms. The sum never starts from 0.0, which would turn a pure
    state's -0.0 entropy into 0.0."""
    if not terms:
        return 0.0
    first = terms[0]
    total = -scalars[first[1:]] if first[0] == "-" else scalars[first]
    for term in terms[1:]:
        total = total - scalars[term[1:]] if term[0] == "-" else total + scalars[term]
    return total


def json_text(obj) -> str:
    """One line of JSON with sorted keys for reports and fingerprinted scenarios,
    by CPython's C encoder (any indent selects the pure-Python one), with no
    cycle check: ``Scenario.to_json``, ``run_scenario`` and ``summarize`` build
    each tree it writes afresh."""
    return json.dumps(obj, sort_keys=True, check_circular=False)


def _fingerprint(s: Scenario) -> str:
    return hashlib.sha256(json_text(s.to_json()).encode()).hexdigest()[:16]


def run_scenario(s: Scenario) -> dict:
    """Full analysis pipeline for one (ensemble, instrument) pair; the report
    is the JSON tree that ``emit_report`` writes, in the scenario's unit."""
    ms = analyze(s.ensemble, s.instrument)
    panel = entropy_panel(ms)

    gl_scalars = groenewold_lindblad_check(
        s.instrument, trials=s.gl_trials, seed=s.seed, n_demix=s.gl_demix
    )

    cs = compound_states(ms)
    scalars = {**panel, **gl_scalars, **cs.deviations, **scutaru_chains(ms, cs)}

    hall_skipped = None
    if ms.a_priori_eigenvalues[0] <= hallmap.INVERTIBILITY_TOL:
        hall_skipped = hallmap.SINGULAR
    else:
        scalars.update(hallmap.hall_section(ms))

    # a null cell, probability exactly 0 by the one rule (instrument._posteriors),
    # reaches no number, so the sensitivity to what it holds is 0 by construction
    sensitivity = None if ms.cond_out_given_in.all() else 0.0

    unit = NATS_PER_UNIT[s.log_base]
    rows = judged_rows(scalars, s.log_base, s.tol)
    return {
        "fingerprint": _fingerprint(s),
        "seed": s.seed,
        "log_base": s.log_base,
        "panel": {k: float(v) / unit for k, v in panel.items()},
        "checks": rows,
        "quantum_info_gain": float(ms.info_gain) / unit,
        "purity_preserving": s.instrument.purity_preserving,
        "hall_skipped": hall_skipped,
        "default_state_sensitivity": sensitivity,
        "overall_pass": all(row["pass"] for row in rows),
    }


def random_scenario(
    d1: int,
    d2: int,
    n_letters: int,
    n_outcomes: int,
    kraus_per_outcome: int,
    seed: int,
) -> Scenario:
    rng = np.random.default_rng(seed)
    ensemble = random_ensemble(d1, n_letters, rng)
    instrument = random_instrument(
        d1, d2, n_outcomes, kraus_per_outcome, seed=splitmix64(seed)
    )
    return Scenario(ensemble=ensemble, instrument=instrument, seed=seed)


ACCEPTANCE_GRID = tuple(
    (d1, d2, nl, no, kp)
    for d1 in (2, 3)
    for d2 in (2, 3)
    for nl in (2, 3, 4)
    for no in (2, 3, 4)
    for kp in (1, 2)
)


def run_acceptance_suite(
    trials: int = 200, master_seed: int = 20240817, grid: tuple = ACCEPTANCE_GRID
) -> tuple[list, dict]:
    """Seeded random scenarios that cycle the (d1, d2, letters, outcomes,
    kraus) shapes of ``grid`` for `trials` runs, with a min-slack summary per
    check. Nothing in either is timed, so a suite writes the same bytes on
    every run."""
    reports = []
    for index in range(trials):
        seed = splitmix64(master_seed + index)
        reports.append(run_scenario(random_scenario(*grid[index % len(grid)], seed)))
    return reports, summarize(reports)


def summarize(reports: list) -> dict:
    min_slack: dict = {}
    failures = 0
    for r in reports:
        if not r["overall_pass"]:
            failures += 1
        for row in r["checks"]:
            name = row["name"]
            if name not in min_slack or row["slack"] < min_slack[name]:
                min_slack[name] = row["slack"]
    return {
        "trials": len(reports),
        "failures": failures,
        "min_slack": min_slack,
    }


def emit_report(r: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json_text(r)
    if fmt == "markdown":
        lines = [
            f"# Analysis report `{r['fingerprint']}` (seed {r['seed']}, base {r['log_base']})",
            "",
            "| name | lhs | rhs | slack | pass |",
            "|---|---|---|---|---|",
        ]
        for row in r["checks"]:
            lines.append(
                f"| {row['name']} | {row['lhs']:.6g} | {row['rhs']:.6g} "
                f"| {row['slack']:.6g} | {'yes' if row['pass'] else 'NO'} |"
            )
        lines += ["", f"Overall: {'PASS' if r['overall_pass'] else 'FAIL'}"]
        return "\n".join(lines)
    if fmt == "csv":
        lines = ["name,lhs,rhs,slack,pass"]
        for row in r["checks"]:
            lines.append(
                f"{row['name']},{row['lhs']!r},{row['rhs']!r},"
                f"{row['slack']!r},{str(row['pass']).lower()}"
            )
        return "\n".join(lines)
    raise QinstrError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# built-in desk scenarios

def _projective_qubit() -> Instrument:
    p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    return Instrument(
        (0, 1), (KrausMap(2, 2, (p0,)), KrausMap(2, 2, (p1,)))
    )


EXAMPLE_NAMES = ("orthogonal-projective", "zero-one-plus", "identity-instrument")


def example_scenario(name: str) -> Scenario:
    if name not in EXAMPLE_NAMES:
        raise SchemaError(f"unknown example {name!r}")
    if name == "zero-one-plus":
        inv = 1.0 / math.sqrt(2.0)
        ensemble = Ensemble(("zero", "plus"), np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([inv, inv])))
    else:
        ensemble = Ensemble((0, 1), np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))
    if name == "identity-instrument":
        ident = Instrument((0,), (KrausMap(2, 2, (np.eye(2, dtype=np.complex128),)),))
        return Scenario(ensemble=ensemble, instrument=ident)
    return Scenario(ensemble=ensemble, instrument=_projective_qubit())


# ---------------------------------------------------------------------------
# CLI

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qinstr",
        description="Quantum instrument entropies and information-bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a scenario JSON file")
    p_an.add_argument("scenario", help="path to scenario JSON")
    p_an.add_argument("--format", default="json", choices=["json", "markdown", "csv"])
    p_an.add_argument("--base", default=None, choices=list(NATS_PER_UNIT))
    p_an.add_argument("--tol", type=float, default=None)

    p_rand = sub.add_parser("random", help="run a seeded random-instance suite")
    p_rand.add_argument("--d1", type=int, default=2)
    p_rand.add_argument("--d2", type=int, default=2)
    p_rand.add_argument("--letters", type=int, default=2)
    p_rand.add_argument("--outcomes", type=int, default=2)
    p_rand.add_argument("--kraus", type=int, default=1)
    p_rand.add_argument("--trials", type=int, default=10)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--format", default="json", choices=["json", "markdown", "csv"])

    p_ex = sub.add_parser("example", help="emit a built-in desk scenario as JSON")
    p_ex.add_argument("name", choices=list(EXAMPLE_NAMES))
    return parser


def _unique_keys(pairs: list) -> dict:
    """A JSON object of the scenario file, once no key repeats in it: ``json``
    would keep a repeated key's last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"duplicate key {key!r} in the scenario file")
        obj[key] = value
    return obj


def _stage(exc: Exception) -> str:
    """The stage where exc arose: the first function outside this module on its traceback."""
    codes = [frame.f_code for frame, _ in traceback.walk_tb(exc.__traceback__)]
    return next((c.co_name for c in codes if c.co_filename != __file__), codes[-1].co_name)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:  # read: the file or the flags
        if args.command == "analyze":
            with open(args.scenario, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259)
                scenario = scenario_from_json(json.load(fh, object_pairs_hook=_unique_keys))
            flags = {"tol": args.tol, "log_base": args.base}  # judged by Scenario's rules, as the file's options are
            scenario = replace(scenario, **{k: v for k, v in flags.items() if v is not None})
        elif args.command == "random":
            shape = tuple(as_count(f"--{flag}", getattr(args, flag), 1)
                          for flag in ("d1", "d2", "letters", "outcomes", "kraus"))
            trials = as_count("--trials", args.trials, 1)
            d1, d2, _, n_outcomes, n_kraus = shape
            if n_outcomes * n_kraus * d2 < d1:  # sum_w sum_k K^dag K has rank <= that product
                raise SchemaError(f"--outcomes * --kraus * --d2 must be >= --d1 for the effects to sum to "
                                  f"the identity, got {n_outcomes} * {n_kraus} * {d2} < {d1}")
        else:
            scenario = example_scenario(args.name)
    except (OSError, ValueError, RecursionError, QinstrError) as exc:  # unreadable, not JSON, too deep, invalid
        kind = ("schema error" if isinstance(exc, SchemaError)
                else "error" if isinstance(exc, QinstrError) else "input error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2

    try:  # run: every stage of the scenario, or of the suite
        if args.command == "analyze":
            report = run_scenario(scenario)
        elif args.command == "random":
            reports, summary = run_acceptance_suite(trials, args.seed, grid=(shape,))
    except Exception as exc:  # whatever the error: the stage failed, not a check
        print(f"numerical error: {_stage(exc)}: {exc}", file=sys.stderr)
        return 3

    try:  # write
        if args.command == "example":  # an input to edit by hand, so indented, unlike a report
            print(json.dumps(scenario.to_json(), sort_keys=True, indent=2), flush=True)
            return 0
        if args.command == "analyze":
            print(emit_report(report, args.format), flush=True)
            return 0 if report["overall_pass"] else 1
        if args.format == "json":
            print(json_text({"summary": summary, "reports": reports}), flush=True)
        else:
            for r in reports:
                print(emit_report(r, args.format), end="\n\n")
            print(f"failures: {summary['failures']}/{summary['trials']}", flush=True)
        return 0 if summary["failures"] == 0 else 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):  # drop what stdout still holds, so that
            sys.stdout.close()  # its flush at exit does not fail a second time
        return 4


if __name__ == "__main__":
    sys.exit(main())
