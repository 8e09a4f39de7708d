"""Command-line front end: scenario loading, seeded random suites, full-analysis
orchestration and report emission (json / markdown / csv)."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import hallmap, matcore
from .errors import (
    QinstrError,
    SchemaError,
    SingularAprioriState,
    UnknownFormat,
)
from .infobounds import (
    BoundReport,
    INEQ_TOL,
    analyze,
    check_bounds,
    check_identities,
    compound_states,
    entropy_panel,
    groenewold_lindblad_check,
    quantum_info_gain,
    random_ensemble,
    scutaru_chains,
)
from .instrument import (
    Instrument,
    instrument_from_json,
    instrument_to_json,
    random_instrument,
)
from .qstate import (
    DensityMatrix,
    Ensemble,
    ensemble_from_json,
    ensemble_to_json,
    pure_state,
    validate_density,
)

LN2 = math.log(2.0)
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Stateless 64-bit mixer used to derive per-trial seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def default_tol() -> float:
    raw = os.environ.get("QINSTR_TOL")
    if raw is None:
        return INEQ_TOL
    try:
        return float(raw)
    except ValueError:
        raise SchemaError(f"QINSTR_TOL must be a number, got {raw!r}") from None


@dataclass(frozen=True)
class Scenario:
    ensemble: Ensemble
    instrument: Instrument
    log_base: str = "e"
    tol: float = field(default_factory=default_tol)
    default_state: Optional[DensityMatrix] = None
    gl_trials: int = 100
    gl_demix: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.ensemble.dim != self.instrument.dim_in:
            raise SchemaError(
                f"ensemble dim {self.ensemble.dim} incompatible with "
                f"instrument dim_in {self.instrument.dim_in}"
            )
        if self.log_base not in ("e", "2"):
            raise SchemaError(f"log_base must be 'e' or '2', got {self.log_base!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise SchemaError(f"tol must be finite and non-negative, got {self.tol!r}")

    def to_json(self) -> dict:
        obj = {
            "ensemble": ensemble_to_json(self.ensemble),
            "instrument": instrument_to_json(self.instrument),
            "options": {
                "log_base": self.log_base,
                "tol": self.tol,
                "gl_trials": self.gl_trials,
                "gl_demix": self.gl_demix,
                "seed": self.seed,
            },
        }
        if self.default_state is not None:
            obj["options"]["default_state"] = matcore.matrix_to_json(self.default_state.mat)
        return obj


def scenario_from_json(obj: dict, tol_override: Optional[float] = None,
                       base_override: Optional[str] = None) -> Scenario:
    try:
        ensemble = ensemble_from_json(obj["ensemble"])
        instrument = instrument_from_json(obj["instrument"])
        options = obj.get("options", {})
        default_state = None
        if "default_state" in options:
            default_state = validate_density(
                matcore.matrix_from_json(options["default_state"])
            )
        return Scenario(
            ensemble=ensemble,
            instrument=instrument,
            log_base=base_override or options.get("log_base", "e"),
            tol=tol_override if tol_override is not None else float(options.get("tol", default_tol())),
            default_state=default_state,
            gl_trials=int(options.get("gl_trials", 100)),
            gl_demix=int(options.get("gl_demix", 5)),
            seed=int(options.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed scenario: {exc}") from exc


@dataclass(frozen=True)
class AnalysisReport:
    fingerprint: str
    seed: int
    log_base: str
    tol: float  # every check is judged at this tolerance (BoundCheck.passes)
    panel: dict
    checks: tuple  # BoundCheck records
    quantum_info_gain: float
    purity_preserving: bool
    hall_skipped: Optional[str]  # reason, or None if Hall section ran
    default_state_sensitivity: Optional[float]

    @property
    def overall_pass(self) -> bool:
        return BoundReport(self.checks).all_pass(self.tol)

    def _scale(self, x: float) -> float:
        x = float(x)
        if self.log_base == "2" and math.isfinite(x):
            return x / LN2
        return x

    def check_rows(self) -> list:
        rows = BoundReport(self.checks).to_json(self.tol)
        for row in rows:
            for key in ("lhs", "rhs", "slack"):
                row[key] = self._scale(row[key])
        return rows

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "log_base": self.log_base,
            "panel": {k: self._scale(v) for k, v in self.panel.items()},
            "checks": self.check_rows(),
            "quantum_info_gain": self._scale(self.quantum_info_gain),
            "purity_preserving": self.purity_preserving,
            "hall_skipped": self.hall_skipped,
            "default_state_sensitivity": self.default_state_sensitivity,
            "overall_pass": self.overall_pass,
        }


def _fingerprint(s: Scenario) -> str:
    blob = json.dumps(s.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_scenario(s: Scenario) -> AnalysisReport:
    """Full analysis pipeline for one (ensemble, instrument) pair."""
    ms = analyze(s.ensemble, s.instrument, s.default_state)
    panel = entropy_panel(ms)

    checks = [*check_identities(panel).checks, *check_bounds(panel).checks]

    purity_preserving, gl_report = groenewold_lindblad_check(
        s.instrument, trials=s.gl_trials, seed=s.seed, n_demix=s.gl_demix
    )
    checks += gl_report.checks

    cs = compound_states(ms)
    checks += cs.consistency.checks
    checks += scutaru_chains(ms, cs).checks

    hall_skipped = None
    try:
        checks += hallmap.hall_section(ms).checks
    except SingularAprioriState as exc:
        hall_skipped = str(exc)

    # a posteriori default-state sensitivity: only relevant when some outcome
    # actually has zero probability for some input state
    sensitivity = None
    if np.any(ms.cond_out_given_in <= 1e-12) and s.default_state is None:
        alt = pure_state([1.0] + [0.0] * (s.instrument.dim_out - 1))
        panel_alt = entropy_panel(analyze(s.ensemble, s.instrument, alt))
        sensitivity = float(
            max(
                abs(a - b) if math.isfinite(a) and math.isfinite(b) else 0.0
                for a, b in zip(panel.to_json().values(), panel_alt.to_json().values())
            )
        )

    return AnalysisReport(
        fingerprint=_fingerprint(s),
        seed=s.seed,
        log_base=s.log_base,
        tol=s.tol,
        panel=panel.to_json(),
        checks=tuple(checks),
        quantum_info_gain=quantum_info_gain(s.instrument, ms.a_priori, s.default_state),
        purity_preserving=purity_preserving,
        hall_skipped=hall_skipped,
        default_state_sensitivity=sensitivity,
    )


def random_scenario(
    d1: int,
    d2: int,
    n_letters: int,
    n_outcomes: int,
    kraus_per_outcome: int,
    seed: int,
    **options,
) -> Scenario:
    rng = np.random.default_rng(seed)
    ensemble = random_ensemble(d1, n_letters, rng)
    instrument = random_instrument(
        d1, d2, n_outcomes, kraus_per_outcome, seed=splitmix64(seed)
    )
    return Scenario(ensemble=ensemble, instrument=instrument, seed=seed, **options)


def run_random_suite(
    d1: int,
    d2: int,
    n_letters: int,
    n_outcomes: int,
    kraus_per_outcome: int,
    trials: int,
    master_seed: int,
    **options,
) -> tuple[list, dict]:
    """Seeded random-instance suite with a min-slack summary per inequality."""
    started = time.perf_counter()
    reports = []
    for index in range(trials):
        seed = splitmix64(master_seed + index)
        reports.append(
            run_scenario(
                random_scenario(
                    d1, d2, n_letters, n_outcomes, kraus_per_outcome, seed, **options
                )
            )
        )
    return reports, summarize(reports, time.perf_counter() - started)


ACCEPTANCE_GRID = tuple(
    (d1, d2, nl, no, kp)
    for d1 in (2, 3)
    for d2 in (2, 3)
    for nl in (2, 3, 4)
    for no in (2, 3, 4)
    for kp in (1, 2)
)


def run_acceptance_suite(
    trials: int = 200, master_seed: int = 20240817, **options
) -> tuple[list, dict]:
    """Cycle the full (d1, d2, letters, outcomes, kraus) grid for `trials` runs."""
    started = time.perf_counter()
    reports = []
    for index in range(trials):
        d1, d2, nl, no, kp = ACCEPTANCE_GRID[index % len(ACCEPTANCE_GRID)]
        seed = splitmix64(master_seed + index)
        reports.append(
            run_scenario(random_scenario(d1, d2, nl, no, kp, seed, **options))
        )
    return reports, summarize(reports, time.perf_counter() - started)


def summarize(reports: list, runtime: float) -> dict:
    min_slack: dict = {}
    failures = 0
    for r in reports:
        if not r.overall_pass:
            failures += 1
        for row in r.check_rows():
            name = row["name"]
            if name not in min_slack or row["slack"] < min_slack[name]:
                min_slack[name] = row["slack"]
    return {
        "trials": len(reports),
        "failures": failures,
        "min_slack": min_slack,
        "runtime_s": runtime,
    }


def emit_report(r: AnalysisReport, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(r.to_json(), sort_keys=True, indent=2)
    if fmt == "markdown":
        lines = [
            f"# Analysis report `{r.fingerprint}` (seed {r.seed}, base {r.log_base})",
            "",
            "| name | lhs | rhs | slack | pass |",
            "|---|---|---|---|---|",
        ]
        for row in r.check_rows():
            lines.append(
                f"| {row['name']} | {row['lhs']:.6g} | {row['rhs']:.6g} "
                f"| {row['slack']:.6g} | {'yes' if row['pass'] else 'NO'} |"
            )
        lines += ["", f"Overall: {'PASS' if r.overall_pass else 'FAIL'}"]
        return "\n".join(lines)
    if fmt == "csv":
        lines = ["name,lhs,rhs,slack,pass"]
        for row in r.check_rows():
            lines.append(
                f"{row['name']},{row['lhs']!r},{row['rhs']!r},"
                f"{row['slack']!r},{str(row['pass']).lower()}"
            )
        return "\n".join(lines)
    raise UnknownFormat(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# built-in desk scenarios

def _projective_qubit() -> Instrument:
    from .instrument import KrausMap

    p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    return Instrument(
        (0, 1), (KrausMap(2, 2, (p0,)), KrausMap(2, 2, (p1,)))
    )


def example_scenario(name: str) -> Scenario:
    if name == "orthogonal-projective":
        ensemble = Ensemble(
            (0, 1), np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1]))
        )
        return Scenario(ensemble=ensemble, instrument=_projective_qubit())
    if name == "zero-one-plus":
        inv = 1.0 / math.sqrt(2.0)
        ensemble = Ensemble(
            ("zero", "plus"),
            np.array([0.5, 0.5]),
            (pure_state([1, 0]), pure_state([inv, inv])),
        )
        return Scenario(ensemble=ensemble, instrument=_projective_qubit())
    if name == "identity-instrument":
        from .instrument import KrausMap

        ensemble = Ensemble(
            (0, 1), np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1]))
        )
        ident = Instrument((0,), (KrausMap(2, 2, (np.eye(2, dtype=np.complex128),)),))
        return Scenario(ensemble=ensemble, instrument=ident)
    raise SchemaError(f"unknown example {name!r}")


EXAMPLE_NAMES = ("orthogonal-projective", "zero-one-plus", "identity-instrument")


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
    p_an.add_argument("--base", default=None, choices=["e", "2"])
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "analyze":
            with open(args.scenario) as fh:
                obj = json.load(fh)
            scenario = scenario_from_json(obj, tol_override=args.tol, base_override=args.base)
            report = run_scenario(scenario)
            print(emit_report(report, args.format))
            return 0 if report.overall_pass else 1
        if args.command == "random":
            reports, summary = run_random_suite(
                args.d1,
                args.d2,
                args.letters,
                args.outcomes,
                args.kraus,
                args.trials,
                args.seed,
            )
            if args.format == "json":
                print(
                    json.dumps(
                        {
                            "summary": summary,
                            "reports": [r.to_json() for r in reports],
                        },
                        sort_keys=True,
                        indent=2,
                    )
                )
            else:
                for r in reports:
                    print(emit_report(r, args.format))
                    print()
                print(f"failures: {summary['failures']}/{summary['trials']}")
            return 0 if summary["failures"] == 0 else 1
        if args.command == "example":
            print(json.dumps(example_scenario(args.name).to_json(), sort_keys=True, indent=2))
            return 0
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except QinstrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
