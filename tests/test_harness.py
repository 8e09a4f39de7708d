import ast
import builtins
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracle
from conftest import (
    GOLDEN_GENERATED,
    GOLDEN_PURE_LETTERS,
    KIND,
    RUN_SCENARIO_CALLS,
    counted,
    effect_sum_off_the_identity_in_every_entry,
    golden_pure_letters,
    judged,
    scaled_zero_one_plus,
)
from qinstr import harness, infobounds, instrument, matcore, qstate
from qinstr.harness import (
    EXAMPLE_NAMES,
    Scenario,
    _fingerprint,
    emit_report,
    example_scenario,
    main,
    random_scenario,
    run_acceptance_suite,
    run_scenario,
    scenario_from_json,
    splitmix64,
)
from qinstr.errors import NoConvergence, QinstrError, SchemaError
from qinstr.infobounds import ROWS, _gains, groenewold_lindblad_check, random_pure
from qinstr.instrument import Instrument, random_instrument
from qinstr.qstate import DensityMatrix, Ensemble, pure_state


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(0) == splitmix64(0)
        assert splitmix64(1) != splitmix64(2)

    def test_64_bit_range(self):
        for x in (0, 1, 2 ** 63, 2 ** 64 - 1):
            assert 0 <= splitmix64(x) < 2 ** 64

    def test_known_stream_distinct(self):
        vals = {splitmix64(i) for i in range(1000)}
        assert len(vals) == 1000


class TestScenarioJson:
    def test_roundtrip(self):
        s = example_scenario("zero-one-plus")
        s2 = scenario_from_json(s.to_json())
        assert s2.ensemble.letters == s.ensemble.letters
        assert np.allclose(s2.ensemble.probs, s.ensemble.probs)
        assert s2.instrument.outcomes == s.instrument.outcomes
        for m1, m2 in zip(s.instrument.maps, s2.instrument.maps):
            for k1, k2 in zip(m1.kraus, m2.kraus):
                assert np.array_equal(k1, k2)
        assert s2.log_base == s.log_base

    def test_malformed_raises_schema_error(self):
        with pytest.raises(SchemaError):
            scenario_from_json({"ensemble": {}})

    def test_one_and_two_operator_outcomes_roundtrip(self):
        # each outcome's operators are written and read back as one stack
        s = random_scenario(3, 2, 3, 3, 1, 4)
        ins = oracle.merge_outcomes(s.instrument, 0, 1)
        s = dataclasses.replace(s, instrument=ins)
        assert [len(m.kraus) for m in ins.maps] == [2, 1]
        text = harness.json_text(s.to_json())
        read = scenario_from_json(json.loads(text))
        assert [m.kraus.shape for m in read.instrument.maps] == [(2, 2, 3), (1, 2, 3)]
        assert harness.json_text(read.to_json()) == text
        assert _fingerprint(read) == _fingerprint(s)

    def test_dim_mismatch_rejected(self):
        e = Ensemble((0, 1), np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))
        ins = random_instrument(3, 2, 2, 1, seed=0)
        with pytest.raises(SchemaError):
            Scenario(ensemble=e, instrument=ins)

    def test_bad_base_rejected(self):
        e = Ensemble((0, 1), np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))
        ins = random_instrument(2, 2, 2, 1, seed=0)
        with pytest.raises(SchemaError):
            Scenario(ensemble=e, instrument=ins, log_base="10")

    def test_overrides(self, tmp_path, capsys):
        # --tol and --base replace the file's options in the scenario analyzed
        s = example_scenario("zero-one-plus")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(s.to_json()))
        assert main(["analyze", str(path), "--tol", "1e-5", "--base", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["log_base"] == "2"
        assert report["fingerprint"] == _fingerprint(dataclasses.replace(s, tol=1e-5, log_base="2"))


class TestGoldenFingerprints:
    """The input contract: seeded scenarios hash to these values, so a change
    to the generators or to the solvers behind them fails here first. A
    fingerprint hashes the digits that the generators and ingest's clamp
    write, and those digits depend on numpy's SIMD dispatch and on
    OpenBLAS's kernel (tests/test_portability.py pins it), so the values
    hold only where both match the machine they were recorded on. The
    package itself reads no environment variable
    (``test_no_module_reads_the_environment``)."""

    @staticmethod
    def _roundtrip(s, monkeypatch):
        """The scenario read back from its JSON, and the jacobi_eig calls that took."""
        counts = {"jacobi_eig": 0}
        text = json.dumps(s.to_json())
        with monkeypatch.context() as patch:
            patch.setattr(matcore, "jacobi_eig", counted(counts, "jacobi_eig", matcore.jacobi_eig))
            return scenario_from_json(json.loads(text)), counts["jacobi_eig"]

    @pytest.mark.parametrize("spec,expected", GOLDEN_GENERATED)
    def test_random_scenario(self, spec, expected, monkeypatch):
        s = random_scenario(*spec)
        assert _fingerprint(s) == expected
        read, jacobi_calls = self._roundtrip(s, monkeypatch)
        assert _fingerprint(read) == expected
        assert jacobi_calls == 0  # full-rank letters: no clamp is possible

    def test_pure_letters(self, monkeypatch):
        # reading the pure letters back clamps their tiny negative eigenvalues,
        # so the round trip hashes the repaired matrices, repaired by Jacobi
        s = golden_pure_letters()
        assert _fingerprint(s) == GOLDEN_PURE_LETTERS[0]
        read, jacobi_calls = self._roundtrip(s, monkeypatch)
        assert _fingerprint(read) == GOLDEN_PURE_LETTERS[1]
        assert jacobi_calls == 2


def stage_scalars(monkeypatch) -> dict:
    """The stages' named scalars, in nats, that run_scenario hands to judged_rows."""
    received = {}
    judged_rows = harness.judged_rows

    def spy(scalars, log_base, tol):
        received.update(scalars)
        return judged_rows(scalars, log_base, tol)

    monkeypatch.setattr(harness, "judged_rows", spy)
    return received


class TestRunScenario:
    def test_orthogonal_projective_log2(self):
        report = run_scenario(example_scenario("orthogonal-projective"))
        assert report["overall_pass"]
        assert abs(report["panel"]["classical_mi"] - math.log(2)) < 1e-10
        assert report["purity_preserving"]

    def test_identity_instrument(self):
        report = run_scenario(example_scenario("identity-instrument"))
        assert report["overall_pass"]
        assert abs(report["panel"]["classical_mi"]) < 1e-10
        assert abs(report["quantum_info_gain"]) < 1e-10

    def test_base2_scaling(self):
        s = example_scenario("orthogonal-projective")
        s2 = Scenario(
            ensemble=s.ensemble, instrument=s.instrument, log_base="2", seed=s.seed
        )
        report = run_scenario(s2)
        assert abs(report["panel"]["classical_mi"] - 1.0) < 1e-10

    def test_sensitivity_reported_on_null_outcomes(self):
        # orthogonal letters with the z measurement yield zero-probability
        # cells; their a posteriori states carry weight 0, so the reported
        # sensitivity is 0 by construction
        report = run_scenario(example_scenario("orthogonal-projective"))
        assert report["default_state_sensitivity"] == 0.0

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", [7, 99, 12345])
    def test_every_check_judged_at_scenario_tol(self, seed, tol, monkeypatch):
        # one policy for every stage: inequalities at tol, equalities and
        # deviations at min(1e-9, tol), data never fails; a stage-level test
        # judges the stages' scalars as the report does
        scalars = stage_scalars(monkeypatch)
        report = run_scenario(dataclasses.replace(random_scenario(3, 3, 3, 3, 2, seed), tol=tol))
        assert report["hall_skipped"] is None
        rows = report["checks"]
        assert judged(scalars, tol=tol) == rows
        for row in rows:
            kind = KIND[row["name"]]
            if kind == "data":
                expected = True
            elif kind in ("eq", "dev"):
                expected = abs(row["slack"]) <= min(1e-9, tol)
            else:
                expected = row["slack"] >= -tol
            assert row["pass"] == expected, (row, tol)
        assert report["overall_pass"] == all(row["pass"] for row in rows)

    def test_deterministic_json(self):
        s = example_scenario("zero-one-plus")
        out1 = emit_report(run_scenario(s), "json")
        out2 = emit_report(run_scenario(s), "json")
        assert out1 == out2


def _pinned_reports():
    desk = [run_scenario(dataclasses.replace(example_scenario(name), log_base=base))
            for name in EXAMPLE_NAMES for base in ("e", "2")]
    return desk + run_acceptance_suite(3, 9, grid=((2, 2, 2, 2, 1),))[0]


@pytest.mark.parametrize("report", _pinned_reports(), ids=lambda r: f"{r['fingerprint']}-{r['log_base']}")
def test_a_report_is_the_json_tree_it_is_written_as(report):
    # one representation: the JSON report reads back as the tree run_scenario
    # returned, and its overall verdict is the conjunction of its rows'
    text = emit_report(report, "json")
    assert json.loads(text) == report
    assert text == harness.json_text(report)
    assert report["overall_pass"] == all(row["pass"] for row in report["checks"])


class TestBase2Units:
    """Under base 2 only the entropy rows are in bits, and every row passes or
    fails on the slack it prints: tol is in the report's unit."""

    UNITLESS = ("compound_tr2_eta_if", "compound_tr1_eta_if", "compound_tr2_gamma",
                "compound_tr1_gamma", "compound_tau_mix", "duality_conditional_law")

    def test_only_entropy_rows_are_scaled(self):
        s = random_scenario(3, 3, 3, 3, 2, 7)
        report = run_scenario(s)
        nats = report["checks"]
        bits = run_scenario(dataclasses.replace(s, log_base="2"))["checks"]
        assert {row["name"] for row in nats} >= set(self.UNITLESS)
        # the unscaled rows are exactly the deviation rows (Hall's runs here)
        assert report["hall_skipped"] is None
        assert {row["name"] for row in nats if KIND[row["name"]] == "dev"} == set(self.UNITLESS)
        for e_row, b_row in zip(nats, bits):
            assert b_row["name"] == e_row["name"]
            if e_row["name"] in self.UNITLESS:
                assert b_row == e_row
            else:
                assert (b_row["lhs"], b_row["rhs"]) == (e_row["lhs"] / math.log(2), e_row["rhs"] / math.log(2))
            assert b_row["slack"] == b_row["rhs"] - b_row["lhs"]

    def test_pass_agrees_with_the_printed_slack(self):
        # 0.8e-8 nats over a rhs of 0 is a slack of -1.154e-8 bits: within
        # tol 1e-8 in nats, beyond it in bits
        scalars = {"classical_mi": 0.8e-8, "chi_initial": 0.0}  # the holevo row alone
        (row,) = harness.judged_rows(scalars, "2", 1e-8)
        assert row["slack"] == pytest.approx(-0.8e-8 / math.log(2), rel=1e-12)
        assert row["pass"] is False
        (row,) = harness.judged_rows(scalars, "e", 1e-8)
        assert row["pass"] is True


@pytest.fixture(scope="module")
def report():
    return run_scenario(example_scenario("zero-one-plus"))


class TestEmitReport:

    def test_json_parses_losslessly(self, report):
        obj = json.loads(emit_report(report, "json"))
        assert obj["overall_pass"] is True
        assert len(obj["checks"]) == len(report["checks"])

    def test_markdown_has_row_per_check(self, report):
        text = emit_report(report, "markdown")
        rows = [l for l in text.splitlines() if l.startswith("|") and "---" not in l]
        assert len(rows) == len(report["checks"]) + 1  # header + data rows
        assert text.endswith("Overall: PASS")

    def test_csv_row_count_and_values(self, report):
        text = emit_report(report, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(report["checks"])
        by_name = {r["name"]: r for r in rows}
        assert float(by_name["holevo"].get("rhs")) == pytest.approx(
            0.4164955306996875, abs=1e-10
        )

    def test_unknown_format(self, report):
        with pytest.raises(QinstrError, match="unknown format 'yaml'"):
            emit_report(report, "yaml")

    def test_json_is_one_line_with_sorted_keys(self, report):
        # compact, so CPython's C encoder writes it; the content is the report's
        text = emit_report(report, "json")
        assert "\n" not in text
        assert text == json.dumps(report, sort_keys=True)
        assert list(json.loads(text)) == sorted(report)
        assert json.loads(text)["overall_pass"] == report["overall_pass"]

    def test_formats_carry_the_same_judged_rows_in_bits(self):
        # under base 2 with tol 0, some rows pass and some fail; the csv and the
        # markdown print the JSON's rows: the same numbers and the same verdicts
        report = run_scenario(dataclasses.replace(random_scenario(3, 3, 3, 3, 2, 7), log_base="2", tol=0.0))
        rows = json.loads(emit_report(report, "json"))["checks"]
        assert {row["pass"] for row in rows} == {True, False}
        csv_rows = list(csv.DictReader(io.StringIO(emit_report(report, "csv"))))
        assert [c["name"] for c in csv_rows] == [row["name"] for row in rows]
        for row, c in zip(rows, csv_rows):
            for key in ("lhs", "rhs", "slack"):
                assert float(c[key]) == row[key], (row["name"], key)
            assert c["pass"] == str(row["pass"]).lower()
        lines = [l for l in emit_report(report, "markdown").splitlines() if l.startswith("| ")][1:]
        assert len(lines) == len(rows)
        for row, line in zip(rows, lines):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            assert (cells[0], cells[4]) == (row["name"], "yes" if row["pass"] else "NO")


class TestRandomSuite:
    """The suite `qinstr random` runs: one shape, as a one-shape grid."""

    def test_small_suite_passes(self):
        reports, summary = run_acceptance_suite(5, 1, grid=((2, 2, 2, 2, 1),))
        assert summary["failures"] == 0
        assert summary["trials"] == 5
        assert len(reports) == 5

    def test_reproducible(self):
        r1, _ = run_acceptance_suite(3, 9, grid=((2, 2, 2, 2, 1),))
        r2, _ = run_acceptance_suite(3, 9, grid=((2, 2, 2, 2, 1),))
        for a, b in zip(r1, r2):
            assert emit_report(a, "json") == emit_report(b, "json")

    def test_min_slack_recorded(self):
        _, summary = run_acceptance_suite(3, 4, grid=((2, 2, 2, 2, 2),))
        assert "holevo" in summary["min_slack"]
        assert summary["min_slack"]["holevo"] >= -1e-8

    def test_json_output_is_the_same_on_every_run(self, capsys):
        # nothing in the summary is timed
        outs = []
        for _ in range(2):
            assert main(["random", "--trials", "3", "--kraus", "2", "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert set(json.loads(outs[0])["summary"]) == {"trials", "failures", "min_slack"}


def mixed_letters_at_the_trace_edge() -> Scenario:
    """zero-one-plus's instrument on two mixed letters, each of trace
    1 + 0.99999e-10, at priors 0.5 + 0.495e-12: every input passes its check
    (HERM_TOL = 1e-10, PROB_TOL = 1e-12), while eta_i's trace is 1 + 1.01e-10."""
    letters = np.array([[[0.7, 0.1], [0.1, 0.3]], [[0.4, -0.2j], [0.2j, 0.6]]]) * (1 + 0.99999e-10)
    ensemble = Ensemble((0, 1), np.full(2, 0.5 + 0.495e-12), letters)
    return Scenario(ensemble, example_scenario("zero-one-plus").instrument)


# every stage run_scenario calls, a function of another qinstr module, with
# the module it reads the stage from: read off run_scenario's own body, so a
# stage added or renamed there is a stage here
STAGES = tuple((module, name) for module, name, fn in RUN_SCENARIO_CALLS if fn.__module__ != harness.__name__)


def failing_stage(stage, error):
    """A stand-in for ``stage`` that raises error("stage failed"). Its code
    carries the stage's name, which a traceback reads as the function's."""
    def failing(*args, **kwargs):
        raise error("stage failed")

    failing.__code__ = failing.__code__.replace(co_name=stage)
    return failing


class TestCli:
    def test_example_command(self, capsys):
        assert main(["example", "zero-one-plus"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "ensemble" in obj and "instrument" in obj

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_all_examples_emit(self, name, capsys):
        assert main(["example", name]) == 0
        json.loads(capsys.readouterr().out)

    def test_analyze_pass(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("zero-one-plus").to_json()))
        assert main(["analyze", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["overall_pass"] is True

    def test_analyze_markdown_base2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("orthogonal-projective").to_json()))
        assert main(["analyze", str(path), "--format", "markdown", "--base", "2"]) == 0
        assert "Overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("make", [
        scaled_zero_one_plus,
        lambda: oracle.rotate_input(corpus.INPUTS["null-letter_with_little_live_weight"].scenario, 1),
        mixed_letters_at_the_trace_edge,
        effect_sum_off_the_identity_in_every_entry,
    ], ids=["scaled-effect-sum", "rotated-near-null", "a-priori-trace", "effect-sum-in-every-entry"])
    def test_derived_state_rounding_is_analyzed(self, make, tmp_path, capsys):
        # valid inputs whose derived states carried rounding over the input's
        # scale: an effect sum of (1 + 3e-10) I put the trace of eta_f off by
        # 3e-10 (until the instrument was normalized when built), a near-null
        # cell's state, rotated on H1 (seed 1), has a least eigenvalue of
        # -3.3e-5, and letters and priors each within their tolerance put the
        # trace of eta_i off by 1.01e-10. Each exited 2 while derived states
        # were judged again at HERM_TOL; each is a state by construction. An
        # effect sum of I + 0.999e-9 J put the compound states' partial traces
        # off eta_i by 1.86e-9, and exited 1 while the compound rows compared
        # with eta_i rather than their own construction
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(make().to_json()))
        assert main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall_pass"] is True

    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", "/nonexistent/file.json"]) == 2

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_undecodable_or_too_deep_file_is_input_error(self, tmp_path, capsys):
        # a UTF-16 byte-order mark is not UTF-8, and 100,000 open brackets nest
        # deeper than the JSON decoder recurses: each is an input error (exit
        # 2), not a failed check (exit 1) with a traceback
        for name, data in (("bom.json", b'\xff\xfe{"a":1}'), ("deep.json", b"[" * 100_000)):
            path = tmp_path / name
            path.write_bytes(data)
            assert main(["analyze", str(path)]) == 2, name
            assert capsys.readouterr().err.startswith("input error:"), name

    @pytest.mark.parametrize("flags,env", [
        (["-X", "warn_default_encoding", "-W", "error::EncodingWarning"], {}),
        ([], {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}),
    ], ids=["warn-default-encoding", "ascii-locale"])
    def test_scenario_file_is_read_as_utf8(self, tmp_path, flags, env):
        # JSON is UTF-8 (RFC 8259): a label written as raw UTF-8 reads as
        # written, and keeps its fingerprint, whatever the locale's encoding
        obj = example_scenario("zero-one-plus").to_json()
        obj["ensemble"]["letters"][0] = "z\u00e9ro"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
        src = str(Path(harness.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, *flags, "-m", "qinstr", "analyze", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, **env},
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["fingerprint"] == _fingerprint(scenario_from_json(obj))

    def test_bad_schema_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ensemble": {"letters": []}}))
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_input_error(self, tmp_path, capsys, tol):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("zero-one-plus").to_json()))
        assert main(["analyze", str(path), "--tol", tol]) == 2

    def test_random_command(self, capsys):
        code = main(["random", "--trials", "2", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert obj["summary"]["failures"] == 0
        assert out.count("\n") == 1  # one compact line, as a report is written

    def test_random_csv(self, capsys):
        assert main(["random", "--trials", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,lhs,rhs,slack,pass")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failing_suite_counts_its_failures_and_exits_one(self, capsys, monkeypatch, fmt):
        # a deviation of 1.0 planted in every report's scalars fails its
        # compound_tau_mix row: the summary counts each failing report, and
        # the suite exits 1, as a failing analyze does
        real = harness.judged_rows
        monkeypatch.setattr(harness, "judged_rows", lambda scalars, *args: real({**scalars, "tau_mix_dev": 1.0}, *args))
        assert main(["random", "--trials", "2", "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["summary"]["failures"] == 2
        else:
            assert out.endswith("failures: 2/2\n")

    def test_unknown_example_is_a_schema_error(self):
        # the CLI's choices reject the name first; the function keeps its own rule
        with pytest.raises(SchemaError, match="unknown example 'nope'"):
            example_scenario("nope")

    def test_each_row_is_judged_once(self, tmp_path, capsys, monkeypatch):
        # a report judges each row once, in its unit, by one judged_rows call;
        # overall_pass, the summary and every writer read those verdicts
        real = harness.judged_rows
        counts = Counter()

        def judge(scalars, log_base, tol):
            rows = real(scalars, log_base, tol)
            counts.update(calls=1, rows=len(rows))
            return rows

        monkeypatch.setattr(harness, "judged_rows", judge)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("zero-one-plus").to_json()))

        def run(argv):
            counts.clear()
            assert main(argv) == 0
            return counts["calls"], counts["rows"], capsys.readouterr().out

        calls, n, out = run(["analyze", str(path)])
        assert calls == 1 and n == len(json.loads(out)["checks"])
        calls, n, out = run(["analyze", str(path), "--format", "markdown"])
        assert calls == 1 and n == sum(line.startswith("| ") for line in out.splitlines()) - 1  # less the header
        calls, n, out = run(["random", "--trials", "2", "--format", "json"])
        assert calls == 2 and n == sum(len(r["checks"]) for r in json.loads(out)["reports"])

    @pytest.mark.parametrize("error", [
        BrokenPipeError(errno.EPIPE, "Broken pipe"),
        OSError(errno.ENOSPC, "No space left on device"),
    ], ids=["broken-pipe", "disk-full"])
    def test_failed_write_is_output_error(self, tmp_path, monkeypatch, error):
        # the input was valid, so a write that fails (a reader that stopped
        # reading, a full disk) is an output error, exit 4, not an input error
        class Failing(io.StringIO):
            def write(self, text):
                raise error

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("zero-one-plus").to_json()))
        for argv in (["analyze", str(path)], ["random", "--trials", "2"], ["example", "zero-one-plus"]):
            err = io.StringIO()
            monkeypatch.setattr(sys, "stdout", Failing())
            monkeypatch.setattr(sys, "stderr", err)
            assert main(argv) == 4, argv
            assert err.getvalue() == f"output error: {error}\n", argv

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2

    @pytest.mark.parametrize("case", ["NoConvergence", "SingularNormalizer"])
    def test_numerical_failure_exits_three(self, tmp_path, capsys, monkeypatch, case):
        # a numerical step that fails is not an input error, and its one error
        # line names the stage: a GL check that raises NoConvergence, in
        # analyze and in the random suite, or random_instrument's own guard on
        # a normalizer whose least eigenvalue reads 0, which the suite reaches
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("zero-one-plus").to_json()))
        if case == "NoConvergence":
            stage = failing_stage("groenewold_lindblad_check", NoConvergence)
            monkeypatch.setattr(harness, "groenewold_lindblad_check", stage)
            line = "groenewold_lindblad_check: stage failed"
            runs = (["analyze", str(path)], ["random", "--trials", "1"])
        else:
            real = matcore.jacobi_eig

            def singular(a):
                vals, vecs = real(a)
                return matcore.SpectralDecomp(np.concatenate([[0.0], vals[1:]]), vecs)

            monkeypatch.setattr(matcore, "jacobi_eig", singular)
            line = "random_instrument: normalizer eigenvalue 0.000e+00 too small"
            runs = (["random", "--trials", "1"],)
        for argv in runs:
            assert main(argv) == 3
            assert capsys.readouterr().err == f"numerical error: {line}\n"

    def test_any_error_in_a_stage_exits_three(self, tmp_path, capsys):
        # the run phase maps whatever a stage raises to exit 3, not only a
        # toolkit error: numpy refuses 10**30 GL trials with a ValueError,
        # before it allocates anything
        obj = example_scenario("zero-one-plus").to_json()
        obj["options"]["gl_trials"] = 10 ** 30
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        assert main(["analyze", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "numerical error: groenewold_lindblad_check: Maximum allowed dimension exceeded\n"

    @pytest.mark.parametrize("module, stage", STAGES, ids=[stage for _, stage in STAGES])
    def test_stage_failure_exits_three_and_names_the_stage(self, tmp_path, capsys, monkeypatch, module, stage):
        # where an error arises decides its exit code, not its class: a
        # QinstrError, the class of a broken input rule, raised inside any
        # stage, of analyze or of the random suite, is a numerical error of
        # that stage
        monkeypatch.setattr(module, stage, failing_stage(stage, QinstrError))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("zero-one-plus").to_json()))
        line = f"numerical error: {stage}: stage failed\n"
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == line
        assert main(["random", "--trials", "1"]) == 3
        assert capsys.readouterr().err == line

    @staticmethod
    def _fail_lapack(monkeypatch, routine, ndim, skip=0):
        """Make np.linalg.<routine> raise LinAlgError on input of ndim
        dimensions (on any input when ndim is None), after the first ``skip``
        such calls. Returns the list of those calls; clearing it counts anew."""
        real = getattr(np.linalg, routine)
        calls = []

        def failing(a, *args, **kwargs):
            if ndim is None or np.ndim(a) == ndim:
                calls.append(np.shape(a))
                if len(calls) > skip:
                    raise np.linalg.LinAlgError("did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, routine, failing)
        return calls

    @pytest.mark.parametrize("routine, ndim, skip, stage, dim", [
        ("eigh", 3, 1, "hall_section", 2),
        ("eigvalsh", 3, 0, "entropy_panel", 3),
        ("eigvalsh", 2, 0, "analyze", 3),
        ("svd", None, 0, "entropy_panel", 2),
    ], ids=["eigh", "eigvalsh", "eigvalsh-eta", "svd"])
    def test_lapack_failure_exits_three(self, tmp_path, capsys, monkeypatch, routine, ndim, skip, stage, dim):
        # a LinAlgError from a LAPACK call inside a stage (the Hall section's
        # eigh of its eta_w stack, the second eigh of a run after the letters',
        # the entropies' eigvalsh, analyze's eigvalsh of eta_i, the svd of the
        # purity class and the pure-output mask, which the entropies read
        # first) is a numerical error that names the stage, not a failed
        # check (exit 1) or a traceback. The eigvalsh cases run at d = 3: a
        # 2 x 2 spectrum is taken in closed form, with no LAPACK call
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(random_scenario(dim, dim, 2, 2, 2, 5).to_json()))
        calls = self._fail_lapack(monkeypatch, routine, ndim, skip)
        assert main(["analyze", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: {stage}: ") and err.endswith("did not converge\n")
        assert err.count("\n") == 1
        calls.clear()
        assert main(["random", "--trials", "1", "--kraus", "2", "--d1", str(dim), "--d2", str(dim)]) == 3
        assert capsys.readouterr().err.startswith(f"numerical error: {stage}: ")

    def test_non_finite_qubit_state_exits_three(self, tmp_path, capsys, monkeypatch):
        # the closed-form 2 x 2 spectrum cannot raise LinAlgError: a derived
        # state with a NaN entry reads a NaN spectrum, and the stage whose
        # entropies read it fails with NoConvergence, which names the stage
        real = infobounds._posteriors

        def poisoned(outs):
            probs, states = real(outs)
            states[..., 1, 0] = np.nan
            return probs, states

        monkeypatch.setattr(infobounds, "_posteriors", poisoned)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(random_scenario(2, 2, 2, 2, 2, 5).to_json()))
        line = "numerical error: entropy_panel: von Neumann entropy of a derived state is not finite\n"
        assert main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == line
        assert main(["random", "--trials", "1", "--kraus", "2"]) == 3
        assert capsys.readouterr().err == line

    def test_lapack_failure_at_ingest_exits_two(self, tmp_path, capsys, monkeypatch):
        # the letters' batched eigh runs while analyze reads its file, so a
        # LinAlgError there is an input error (exit 2) with one line; the
        # random suite draws its letters in a stage, random_ensemble (exit 3)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(random_scenario(2, 2, 2, 2, 2, 5).to_json()))
        self._fail_lapack(monkeypatch, "eigh", 3)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("did not converge\n") and err.count("\n") == 1
        assert main(["random", "--trials", "1", "--kraus", "2"]) == 3
        assert capsys.readouterr().err.startswith("numerical error: random_ensemble: ")


class TestDefaultTol:
    def test_a_file_without_tol_runs_at_ineq_tol(self):
        obj = example_scenario("zero-one-plus").to_json()
        del obj["options"]["tol"]
        assert scenario_from_json(obj).tol == 1e-8

    def test_unparsable_env_is_not_read_when_the_file_sets_tol(self, monkeypatch, tmp_path, capsys):
        # no tolerance comes from the environment: a file runs at its own
        # options.tol, at --tol, or else at INEQ_TOL, whatever QINSTR_TOL holds
        obj = example_scenario("zero-one-plus").to_json()
        obj["options"]["tol"] = 1e-7
        monkeypatch.setenv("QINSTR_TOL", "abc")
        assert scenario_from_json(obj).tol == 1e-7
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        assert main(["analyze", str(path)]) == 0
        assert main(["analyze", str(path), "--tol", "1e-6"]) == 0
        del obj["options"]["tol"]
        path.write_text(json.dumps(obj))
        assert scenario_from_json(obj).tol == 1e-8
        assert main(["analyze", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestInputContract:
    """Malformed options and labels are input errors (exit 2), never a traceback
    or a silently altered run."""

    @staticmethod
    def _analyze(tmp_path, mutate, *flags):
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        return main(["analyze", str(path), *flags])

    @pytest.mark.parametrize("option, value, flag, line", [
        ("tol", -1, ("--tol", "1e-6"), "schema error: tol must be a finite, non-negative number, got -1"),
        ("log_base", "10", ("--base", "2"), "schema error: log_base must be 'e' or '2', got '10'"),
    ], ids=("tol", "log_base"))
    def test_a_flag_does_not_mask_a_bad_option(self, tmp_path, capsys, option, value, flag, line):
        # the file is judged as written; a flag replaces its option only after
        def mutate(obj):
            obj["options"][option] = value

        for flags in ((), flag):
            assert self._analyze(tmp_path, mutate, *flags) == 2
            assert capsys.readouterr() == ("", line + "\n")

    @pytest.mark.parametrize("name,value", [
        ("gl_trials", 0),
        ("gl_trials", -1),
        ("gl_trials", 1.5),
        ("gl_demix", -1),
        ("seed", -1),
    ])
    def test_bad_count_option_is_schema_error(self, tmp_path, capsys, name, value):
        def mutate(obj):
            obj["options"][name] = value

        assert self._analyze(tmp_path, mutate) == 2
        assert f"{name} must be an integer" in capsys.readouterr().err
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        with pytest.raises(SchemaError):
            scenario_from_json(obj)

    def test_integral_float_option_reads_as_its_integer(self):
        obj = example_scenario("zero-one-plus").to_json()
        expected = _fingerprint(scenario_from_json(obj))
        obj["options"].update(gl_trials=100.0, gl_demix=5.0, seed=0.0)
        obj["instrument"].update(dim_in=2.0, dim_out=2.0)
        s = scenario_from_json(obj)
        assert (s.gl_trials, s.gl_demix, s.seed) == (100, 5, 0)
        assert (s.instrument.dim_in, s.instrument.dim_out) == (2, 2)
        assert _fingerprint(s) == expected

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("flag", ["--d1", "--d2", "--letters", "--outcomes", "--kraus", "--trials"])
    def test_random_count_flag_below_one_is_schema_error(self, capsys, flag, value):
        # a count below 1 is an input error (exit 2) that names its flag, as a
        # file's counts are (harness.as_count), never a failed check (exit 1)
        # from a numpy traceback or a trace error
        assert main(["random", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: {flag} must be an integer >= 1") and "Traceback" not in err

    def test_random_shape_with_too_few_kraus_rows_is_schema_error(self, capsys):
        # sum_w sum_k K^dag K has rank <= outcomes * kraus * d2, so below d1 no
        # instrument exists: a bad input (exit 2) that names the four flags,
        # never a failed normalizer (exit 3)
        flags = ["random", "--outcomes", "2", "--kraus", "1", "--trials", "1"]
        for d1, d2 in (("3", "1"), ("5", "2")):
            assert main([*flags, "--d1", d1, "--d2", d2]) == 2
            err = capsys.readouterr().err
            assert err.startswith("schema error: ") and err.count("\n") == 1
            assert all(flag in err for flag in ("--outcomes", "--kraus", "--d2", "--d1"))
        assert main([*flags, "--d1", "4", "--d2", "2"]) == 0  # a product of d1 is enough

    def test_effects_missing_the_identity_exit_two(self, tmp_path, capsys):
        def mutate(obj):
            rows = obj["instrument"]["kraus"][0][0]
            for row in rows:
                for z in row:
                    z[0], z[1] = 0.9 * z[0], 0.9 * z[1]

        assert self._analyze(tmp_path, mutate) == 2
        assert "sum of effects deviates from identity" in capsys.readouterr().err
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        with pytest.raises(QinstrError, match="sum of effects deviates from identity by"):
            scenario_from_json(obj)

    def test_overflowing_kraus_entry_prints_one_error_line(self, tmp_path):
        # a finite entry whose effect product overflows: the effect-sum rule
        # names it, and no floating-point warning reaches stderr before it
        obj = example_scenario("zero-one-plus").to_json()
        obj["instrument"]["kraus"][0][0][0][0][0] = 1e200
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        src = str(Path(harness.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "qinstr", "analyze", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.splitlines() == ["error: sum of effects deviates from identity by inf"]

    def test_empty_kraus_tuple_exit_two(self, tmp_path, capsys):
        def mutate(obj):
            obj["instrument"]["kraus"][1] = []

        assert self._analyze(tmp_path, mutate) == 2
        err = capsys.readouterr().err
        assert "at least one Kraus operator" in err and "malformed scenario" not in err
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        with pytest.raises(QinstrError, match="a Kraus map needs at least one Kraus operator"):
            scenario_from_json(obj)

    def test_duplicate_letter_labels_rejected(self, tmp_path, capsys):
        with pytest.raises(QinstrError, match=r"duplicate letter labels in \(0, 0\)"):
            Ensemble((0, 0), np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([0, 1])))

        def mutate(obj):
            obj["ensemble"]["letters"] = ["zero", "zero"]

        assert self._analyze(tmp_path, mutate) == 2

    def test_duplicate_outcome_labels_rejected(self, tmp_path, capsys):
        ins = example_scenario("zero-one-plus").instrument
        with pytest.raises(QinstrError, match=r"duplicate outcome labels in \(0, 0\)"):
            Instrument((0, 0), ins.maps)

        def mutate(obj):
            obj["instrument"]["outcomes"] = [1, 1]

        assert self._analyze(tmp_path, mutate) == 2

    @pytest.mark.parametrize("where,key,value", [
        ("options", "default_state", harness.matrix_to_json(np.eye(2) / 2)),  # retired
        ("options", "gl_trails", 3),  # a typo of gl_trials
        (None, "option", {"tol": 0.0, "log_base": "2"}),  # a typo of options
    ], ids=["default_state", "gl_trails", "option"])
    def test_unknown_key_exit_two(self, tmp_path, capsys, where, key, value):
        # each object of the file has a closed key set: an unknown key is
        # named, never ignored (the misspelt "option" would run at tol 1e-8
        # in nats)
        def mutate(obj):
            (obj if where is None else obj[where])[key] = value

        assert self._analyze(tmp_path, mutate) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and f"unknown key {key!r}" in err
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        with pytest.raises(SchemaError, match=f"unknown key {key!r}"):
            scenario_from_json(obj)

    @pytest.mark.parametrize("where, key, value", [
        ("options", "tol", 1e-6),  # would run at tol 1e-8, the last value
        ("ensemble", "probs", [0.9, 0.1]),
        (None, "options", {}),
    ], ids=["options-tol", "ensemble-probs", "options"])
    def test_duplicate_key_exit_two(self, tmp_path, capsys, where, key, value):
        # json keeps a repeated key's last value; the CLI names the key instead
        obj = example_scenario("zero-one-plus").to_json()
        text = json.dumps(obj)
        target = text if where is None else json.dumps(obj[where])  # the object that repeats the key
        repeated = json.dumps({key: value})[1:-1]  # '"key": value', put before the object's own pairs
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(target, "{" + repeated + ", " + target[1:], 1))
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"schema error: duplicate key {key!r} in the scenario file\n"

    @pytest.mark.parametrize("where,key,value", [
        ("ensemble", "probs", ["0.5", "0.5"]),
        ("ensemble", "probs", [True, 0.0]),  # numpy would read it as [1.0, 0.0]
        ("instrument", "dim_in", "2"),
        ("instrument", "dim_in", 2.5),  # int() would read it as 2
        ("instrument", "dim_out", True),
        ("ensemble", "letters", "ab"),  # tuple() would read two letters, a and b
        ("instrument", "outcomes", "ab"),
        ("options", "tol", True),  # float() would read it as tol 1.0
        ("options", "tol", "1e-8"),
    ], ids=["probs-strings", "probs-boolean", "dim_in-string", "dim_in-fraction", "dim_out-boolean",
            "letters-string", "outcomes-string", "tol-boolean", "tol-string"])
    def test_mistyped_scalar_exit_two(self, tmp_path, capsys, where, key, value):
        # every scalar is typed like a matrix entry: a number is a JSON
        # number, a count an integer, labels a list
        def mutate(obj):
            obj[where][key] = value

        assert self._analyze(tmp_path, mutate) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and key in err and "Traceback" not in err
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        with pytest.raises(SchemaError, match=key):
            scenario_from_json(obj)

    def test_options_not_an_object_is_schema_error(self, tmp_path, capsys):
        def mutate(obj):
            obj["options"] = []

        assert self._analyze(tmp_path, mutate) == 2
        assert "options must be an object" in capsys.readouterr().err

    def test_infinite_dimension_is_schema_error(self, tmp_path, capsys):
        def mutate(obj):
            obj["instrument"]["dim_in"] = math.inf

        assert self._analyze(tmp_path, mutate) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["letter", "kraus"])
    @pytest.mark.parametrize("malform", [
        "numeric_string", "null", "ragged_rows", "pair_of_one", "pair_of_three", "no_pair_level",
    ])
    def test_malformed_matrix_entries_exit_two(self, tmp_path, capsys, where, malform):
        # the matrix reader takes JSON numbers only: numpy would read "1.0" as
        # 1.0, which here leaves the zero letter as it was and would exit 0
        def mutate(obj):
            if where == "letter":
                holder, key = obj["ensemble"]["states"], 0
            else:
                holder, key = obj["instrument"]["kraus"][0], 0
            rows = holder[key]
            if malform == "numeric_string":
                rows[0][0][0] = str(rows[0][0][0])
            elif malform == "null":
                rows[0][0][0] = None
            elif malform == "ragged_rows":
                rows[1] = rows[1][:1]
            elif malform == "pair_of_one":
                rows[0][0] = rows[0][0][:1]
            elif malform == "pair_of_three":
                rows[0][0] = rows[0][0] + [0.0]
            else:
                holder[key] = [[re for re, _ in row] for row in rows]

        # one line, naming the key. Only the first letter loses its pair
        # level, so the letters are ragged, as a short row or pair is, and
        # numpy's own message ends the line; kraus[0]'s one operator reads as
        # a real 2 x 2 matrix, which the stack's shape rule rejects
        key = "states" if where == "letter" else "kraus[0]"
        numbers_only = f"{key} must hold JSON numbers only (no string, boolean or null), got numpy dtype "
        line = {"numeric_string": numbers_only + "<U32", "null": numbers_only + "object"}.get(malform)
        if (where, malform) == ("kraus", "no_pair_level"):
            line = "kraus[0] must be a stack of 2 x 2 matrices of [re, im] number pairs, got JSON shape (1, 2, 2)"
        assert self._analyze(tmp_path, mutate) == 2
        err = capsys.readouterr().err
        if line is None:
            assert err.startswith(f"schema error: malformed {key}: ") and err.count("\n") == 1, err
        else:
            assert err == f"schema error: {line}\n"
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        with pytest.raises(SchemaError, match=re.escape(key)):
            scenario_from_json(obj)

    def test_entries_that_are_not_pairs_are_a_schema_error(self, tmp_path, capsys):
        # the stack's shape rule is a typing rule of the file, under the same
        # prefix as its other rules, and its line names the key
        def mutate(obj):
            group = obj["instrument"]["kraus"][0]
            group[:] = [[[z + [0.0] for z in row] for row in op] for op in group]

        assert self._analyze(tmp_path, mutate) == 2
        assert capsys.readouterr().err == ("schema error: kraus[0] must be a stack of 2 x 2 matrices of "
                                           "[re, im] number pairs, got JSON shape (1, 2, 2, 3)\n")

    @pytest.mark.parametrize("where,line", [
        ("letter", "states must be a stack of d x d matrices of [re, im] number pairs, got JSON shape (2, 2, 2)"),
        ("kraus", "kraus[0] must be a stack of 2 x 2 matrices of [re, im] number pairs, got JSON shape (1, 2, 2)"),
    ], ids=["letter", "kraus"])
    def test_matrices_without_their_pair_level_are_a_schema_error(self, tmp_path, capsys, where, line):
        # a real 2 x 2 matrix has last axis 2, as a matrix of [re, im] pairs
        # has: only the stack's whole shape tells them apart (it read as a
        # stack of columns, and a later rule failed under "error:")
        def mutate(obj):
            holder = obj["ensemble"]["states"] if where == "letter" else obj["instrument"]["kraus"][0]
            holder[:] = [[[re for re, _ in row] for row in m] for m in holder]

        assert self._analyze(tmp_path, mutate) == 2
        assert capsys.readouterr().err == f"schema error: {line}\n"

    @pytest.mark.parametrize("where", ["letter", "kraus"])
    def test_boolean_matrix_entry_exit_two(self, tmp_path, capsys, where):
        # numpy reads [true, 0.0] as [1.0, 0.0]: with true where 1.0 was,
        # either file would run and pass
        def mutate(obj):
            if where == "letter":
                obj["ensemble"]["states"][0][0][0][0] = True
            else:
                obj["instrument"]["kraus"][0][0][0][0][0] = True

        assert self._analyze(tmp_path, mutate) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and "boolean" in err
        obj = example_scenario("zero-one-plus").to_json()
        mutate(obj)
        with pytest.raises(SchemaError, match="boolean"):
            scenario_from_json(obj)

    @pytest.mark.parametrize("key, value, line", [
        ("probs", [0.5, 0.6], "error: letter probabilities sum to 1.1, not 1"),
        ("outcomes", [0, 1, 2], "error: need one Kraus map per outcome"),
        ("outcomes", [0], "error: need one Kraus map per outcome"),
        ("kraus", [], "error: need one Kraus map per outcome"),
    ], ids=["prior-sum", "three-labels-two-maps", "one-label-two-maps", "no-maps"])
    def test_rule_of_a_read_ensemble_or_instrument_exits_two(self, tmp_path, capsys, key, value, line):
        # a file that breaks the rule of an ensemble or of an instrument, not
        # the format, is an input error with the rule's one line
        def mutate(obj):
            obj["ensemble" if key == "probs" else "instrument"][key] = value

        assert self._analyze(tmp_path, mutate) == 2
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("probs", [0.5, None, [0.5, math.nan]])
    def test_malformed_letter_probs_rejected(self, tmp_path, capsys, probs):
        # a scalar or null is no list of probabilities, and NaN is not positive
        def mutate(obj):
            obj["ensemble"]["probs"] = probs

        assert self._analyze(tmp_path, mutate) == 2
        assert "Traceback" not in capsys.readouterr().err


def _field_paths(node, prefix=()):
    """Every key path below the root of a JSON tree, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


# replacements for one field; none is a large finite count, which a dimension,
# gl_trials or gl_demix would turn into a real allocation. "rename" renames a
# key of an object instead.
_MUTATIONS = (
    "drop", "negate", "rename", "x", "0.5", [], {}, None, True, math.nan, math.inf, -math.inf, 0,
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(EXAMPLE_NAMES),
    data=st.data(),
    mutation=st.sampled_from(_MUTATIONS),
)
def test_any_one_field_mutation_exits_cleanly(tmp_path_factory, name, data, mutation):
    """Drop, retype, negate, NaN, ±Infinity or zero any one field of an example
    scenario: `qinstr analyze` answers 0, 1 or 2 and never raises. Rename any
    one key, at any level: it answers 2, because every object of the file has
    a closed key set."""
    obj = example_scenario(name).to_json()
    paths = list(_field_paths(obj))
    if mutation == "rename":  # a key of an object, not an index of a list
        paths = [p for p in paths if isinstance(p[-1], str)]
    *parent_path, key = data.draw(st.sampled_from(paths))
    parent = obj
    for step in parent_path:
        parent = parent[step]
    if mutation == "drop":
        del parent[key]
    elif mutation == "rename":
        parent[key + "_x"] = parent.pop(key)
    elif mutation == "negate":
        value = parent[key]
        parent[key] = -value if isinstance(value, (int, float)) and not isinstance(value, bool) else None
    else:
        parent[key] = mutation
    path = tmp_path_factory.mktemp("mutated") / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path)]) in ((2,) if mutation == "rename" else (0, 1, 2))


@pytest.mark.parametrize("scenario", [
    *(example_scenario(name) for name in EXAMPLE_NAMES), random_scenario(3, 2, 3, 4, 2, 7),
], ids=[*EXAMPLE_NAMES, "random"])
def test_written_key_sets_are_the_read_key_sets(scenario):
    """What Scenario.to_json writes, the reader accepts, key for key: every
    key the reader accepts is written, and nothing else."""
    obj = scenario.to_json()
    assert set(obj) == set(harness.SCENARIO_KEYS)
    assert set(obj["options"]) == set(harness.OPTION_KEYS)
    assert set(obj["ensemble"]) == set(harness.ENSEMBLE_KEYS)
    assert set(obj["instrument"]) == set(harness.INSTRUMENT_KEYS)


# each module of the package, by name, as its ast tree, parsed once for the
# structural tests below
PACKAGE_TREES = {path.stem: ast.parse(path.read_text())
                 for path in sorted(Path(harness.__file__).resolve().parent.glob("*.py"))}


def test_the_scenario_file_is_read_and_written_only_in_harness():
    """No module but harness defines a reader, a writer, a typing rule or a
    key set of the scenario file, and none but errors and harness names the
    error its typing rules raise."""
    defined, naming_schema_error = {}, set()
    for module, tree in PACKAGE_TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and re.fullmatch(r"\w+_(from|to)_json|as_\w+", node.name):
                defined.setdefault(node.name, set()).add(module)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id.endswith("_KEYS"):
                        defined.setdefault(t.id, set()).add(module)
            if "SchemaError" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None)):
                naming_schema_error.add(module)
    assert {"ENSEMBLE_KEYS", "stack_from_json", "as_object"} <= set(defined)
    assert {name: modules for name, modules in defined.items() if modules != {"harness"}} == {}
    assert naming_schema_error == {"errors", "harness"}


def reading_sites(hit) -> set:
    """Each place in the package where ``hit(node)`` holds for an ast node,
    as "module.Class.function", by an ast walk."""
    sites = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = (*scope, node.name)
        if hit(node):
            sites.add(".".join((module, *scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module, tree in PACKAGE_TREES.items():
        visit(tree, module, ())
    return sites


def attribute_readers(attr: str, home: str) -> set:
    """Where the package reads ``.attr`` outside the module ``home``."""
    sites = reading_sites(lambda node: isinstance(node, ast.Attribute) and node.attr == attr)
    return {site for site in sites if site.split(".")[0] != home}


def constant_readers(name: str) -> set:
    """Where the package reads the constant ``name``, bare or as a module's
    attribute; its definition and its imports are not reads."""
    return reading_sites(lambda node: (isinstance(node, ast.Name) and node.id == name
                                       and isinstance(node.ctx, ast.Load))
                         or (isinstance(node, ast.Attribute) and node.attr == name))


def test_the_instrument_contract_has_one_home():
    """The effect-sum rule is applied once, where the Instrument is built: no
    module but instrument names its tolerance POVM_SUM_TOL, and outside
    instrument only Scenario.to_json reads a KrausMap's operators as given
    (``.kraus``); every stage reads the Instrument's normalized arrays."""
    naming_tol = set()
    for module, tree in PACKAGE_TREES.items():
        for node in ast.walk(tree):
            if "POVM_SUM_TOL" in (getattr(node, "id", None), getattr(node, "attr", None),
                                  getattr(node, "name", None)):
                naming_tol.add(module)
    assert naming_tol == {"instrument"}
    assert attribute_readers("kraus", "instrument") == {"harness.Scenario.to_json"}


def test_the_purity_class_has_one_home():
    """Ozawa's purity class and the pure-output mask are properties of the
    instrument as a channel, from one pass: only that pass reads RANK_ONE_TOL
    and PURE_PRETEST, only instrument reads the Kraus stack they are read off,
    the class is read where the GL check draws by it and where the report
    writes it, and the mask by one helper, which the two places that take an
    output's entropy call: the scenario's entropies and the GL check's gains."""
    assert constant_readers("RANK_ONE_TOL") == {"instrument.Instrument._purity"}
    assert constant_readers("PURE_PRETEST") == {"instrument.Instrument._purity"}
    assert attribute_readers("kraus_stack", "instrument") == set()
    assert attribute_readers("_purity", "instrument") == set()
    assert attribute_readers("purity_preserving", "instrument") == {
        "infobounds.groenewold_lindblad_check", "harness.run_scenario"}
    assert attribute_readers("pure_outputs", "instrument") == {"infobounds._mixed_outputs"}
    assert constant_readers("_mixed_outputs") == {"infobounds.MeasurementStatistics.entropies", "infobounds._gains"}


def test_each_support_rule_has_one_home():
    """A cell is null at or below instrument.NULL_TRACE, which only
    _posteriors reads, and the purity pass, whose pure-output mask reads it
    as a relative singular value on the same rounding's scale; an entropy
    reads every positive eigenvalue, so entropy
    reads no constant of the package; and SUPPORT_CUTOFF is the support of a
    square root, read only where one is taken: Hall's roots, spectral_apply
    and random_instrument's normalizer guard."""
    constants = {target.id for tree in PACKAGE_TREES.values() for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and target.id.isupper()}
    assert {"NULL_TRACE", "SUPPORT_CUTOFF"} <= constants
    assert constant_readers("NULL_TRACE") == {"instrument._posteriors", "instrument.Instrument._purity"}
    assert {site for name in constants for site in constant_readers(name) if site.split(".")[0] == "entropy"} == set()
    assert constant_readers("SUPPORT_CUTOFF") == {
        "hallmap.hall_section", "matcore.spectral_apply", "instrument.random_instrument"}


def test_each_row_is_named_once_in_the_table():
    """A check row is named in one place, infobounds.ROWS, with its kind and
    its terms: each row name is a string constant of the package exactly once,
    inside ROWS. A row is built in one place, harness.judged_rows, the only
    reader of ROWS and the only place that writes a row's slack."""
    names = {name for name, *_ in ROWS}
    anywhere, in_table = Counter(), Counter()
    for tree in PACKAGE_TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in names:
                anywhere[node.value] += 1
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["ROWS"]:
                in_table.update(c.value for c in ast.walk(node.value)
                                if isinstance(c, ast.Constant) and c.value in names)
    assert len(names) == len(ROWS)
    assert anywhere == in_table == Counter(names)
    assert constant_readers("ROWS") == {"harness.judged_rows"}
    built = reading_sites(lambda node: isinstance(node, ast.Dict)
                          and any(isinstance(key, ast.Constant) and key.value == "slack" for key in node.keys))
    assert built == {"harness.judged_rows"}


ROW_ORDER = {name: index for index, (name, *_) in enumerate(ROWS)}


def test_report_rows_follow_the_table():
    for inp in corpus.INPUTS.values():
        order = [ROW_ORDER[row["name"]] for row in inp.report["checks"]]
        assert order == sorted(order), inp.name


def test_a_desk_report_emits_every_row_of_the_table():
    # a row is emitted only when each of its terms exists, so a misspelt term
    # would drop its row silently; orthogonal-projective runs every stage
    # (purity-preserving, so the GL gain row; eta = I/2, so the Hall rows)
    report = run_scenario(example_scenario("orthogonal-projective"))
    assert {row["name"] for row in report["checks"]} == set(ROW_ORDER)


# the orthogonal-projective report's check names, in report order, written
# out rather than read from ROWS: the order guards above read the table, so a
# reordering of ROWS fails only here
DESK_CHECK_NAMES = (
    "idts_out", "idts_in", "chain_via_out", "chain_via_in", "chain_via_joint",
    "sww", "holevo", "bl1", "lower_bound", "gl_info_gain_nonneg", *("gl_chain",) * 5,
    "compound_tr2_eta_if", "compound_tr1_eta_if", "compound_tr2_gamma", "compound_tr1_gamma",
    "compound_tau_mix",
    "scutaru1_ic_ge_chi_eps_if", "scutaru1_chi_eps_if_ge_chi_eps_i", "scutaru1_chi_eps_if_ge_chi_eps_f",
    "scutaru2_ic_ge_chi_eps_i", "scutaru2_ic_ge_chi_tau_f", "scutaru2_chi_eps_i_ge_gamma",
    "scutaru2_chi_tau_f_ge_gamma",
    "duality_conditional_law", "duality_ic", "hall_bound", "new_bound", "new_d_term_nonneg",
    "new_iq_identity", "new_le_holevo", "new_vs_hall_data",
)


def test_the_desk_report_rows_keep_their_pinned_order():
    report = run_scenario(example_scenario("orthogonal-projective"))
    assert tuple(row["name"] for row in report["checks"]) == DESK_CHECK_NAMES


def test_the_letter_contract_has_one_home():
    """The letters are normalized once, where the Ensemble is built: outside
    qstate only the scenario file's writer and ingest's clamp read them as
    given (``.given_states``); every stage reads the normalized ``states``
    and ``spectra``."""
    assert attribute_readers("given_states", "qstate") == {
        "harness.Scenario.to_json", "harness.ensemble_from_json"}


def test_no_module_reads_the_environment():
    """A scenario is a function of its arguments alone: no module of the
    package names os.environ, os.getenv or environ."""
    reading = set()
    for module, tree in PACKAGE_TREES.items():
        for node in ast.walk(tree):
            if {"environ", "getenv"} & {getattr(node, key, None) for key in ("id", "attr", "name")}:
                reading.add(module)
    assert reading == set()


def test_the_error_classes_are_three():
    """An error is its phase and its message: errors defines QinstrError,
    SchemaError and NoConvergence alone, and every raise in the package that
    is not of a built-in exception names one of them."""
    assert [node.name for node in PACKAGE_TREES["errors"].body if isinstance(node, ast.ClassDef)] == [
        "QinstrError", "SchemaError", "NoConvergence"]
    raised = {}
    for module, tree in PACKAGE_TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.setdefault(ast.unparse(exc), set()).add(module)
    toolkit = {name: modules for name, modules in raised.items() if not hasattr(builtins, name)}
    assert set(toolkit) <= {"QinstrError", "SchemaError", "NoConvergence"}, toolkit
    assert toolkit["SchemaError"] == {"harness"}


def lapack_calls(monkeypatch) -> tuple:
    """Count every LAPACK call by routine, through ``matcore.lapack``, the
    one binding every module calls it by, under the innermost stage
    running: ingest (``scenario_from_json``), one of STAGES, or None outside
    them. Returns the counts, {stage: Counter}, which fill as calls run, and
    the set of stages entered. Only LAPACK calls are counted: numpy's and
    Python's own calls vary with the numpy version."""
    counts, entered, running = defaultdict(Counter), set(), [None]
    real = matcore.lapack

    def staged(name, fn):
        def wrapper(*args, **kwargs):
            entered.add(name)
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        return wrapper

    def lapack(routine, *args, **kwargs):
        counts[running[-1]][routine.__name__] += 1
        return real(routine, *args, **kwargs)

    for module, stage in ((harness, "scenario_from_json"), *STAGES):
        monkeypatch.setattr(module, stage, staged(stage, getattr(module, stage)))
    monkeypatch.setattr(matcore, "lapack", lapack)
    return counts, entered


def test_lapack_has_one_binding():
    """No module but matcore imports ``lapack`` by name: each calls it as
    ``matcore.lapack``, so ``lapack_calls`` sees every call."""
    for module, tree in PACKAGE_TREES.items():
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "lapack" not in imported, module


# the LAPACK calls of analyze, the entropy panel and the Scutaru chains at
# d1 = d2 = 3, where every spectrum is LAPACK's; compound_states and
# judged_rows make none. The entropy panel is the first to read
# Instrument.pure_outputs, so it makes the purity pass's svd calls, if any:
# none on a one-Kraus instrument with no pure-output outcome
PANEL_LAPACK = {"analyze": {"eigvalsh": 1}, "entropy_panel": {"eigvalsh": 1}, "scutaru_chains": {"eigvalsh": 3}}
# the Hall section's: the eigh of its eta_w stack and the eigvalsh of its entropies
HALL_LAPACK = {"eigh": 1, "eigvalsh": 1}
# at d1 = d2 = 2 every spectrum is a 2 x 2 one, in closed form, but the
# Scutaru chains' 4 x 4 compound states'; the Hall section keeps its eigh
QUBIT_LAPACK = {"scutaru_chains": {"eigvalsh": 1}}
QUBIT_HALL_LAPACK = {"eigh": 1}


# the scenarios above whose instrument has a pure-output outcome, so that
# the purity pass takes its one svd
PURE_OUTPUT_DESK = {"orthogonal-projective", "zero-one-plus", "singular-eta"}


@pytest.mark.parametrize("name, hall", [
    ("orthogonal-projective", QUBIT_HALL_LAPACK),
    ("zero-one-plus", QUBIT_HALL_LAPACK),
    ("identity-instrument", QUBIT_HALL_LAPACK),
    ("singular-eta", None),
    ("qutrits", HALL_LAPACK),
])
def test_lapack_calls_per_stage_are_pinned(tmp_path, monkeypatch, name, hall):
    """Every LAPACK call of `qinstr analyze`, by stage and routine, on the desk
    scenarios, on two copies of |0> under the projective qubit instrument,
    whose a priori state is singular, so the Hall section is never entered,
    and on a one-Kraus scenario with d1 = d2 = 3, where every ``eigvalsh``
    stage calls LAPACK. Ingest decomposes the letters once, since no letter
    here needs its clamp; analyze takes eta_i's spectrum alone, the GL check
    takes its inputs' and outputs' spectra from one call, as d1 = d2, and the Hall
    section's eigh decomposes the eta_w of every live outcome, null cells or
    none. The entropy panel reads the pure-output mask first: the one svd of
    the purity pass is taken where some outcome's output of the identity is
    pure (the two projective instruments), and none on the identity
    instrument or the qutrits' generic one-Kraus one."""
    if name == "singular-eta":
        ket0 = pure_state([1, 0])
        s = Scenario(Ensemble((0, 1), np.array([0.5, 0.5]), (ket0, ket0)),
                     example_scenario("zero-one-plus").instrument)
    elif name == "qutrits":
        s = random_scenario(3, 3, 3, 3, 1, 7)
    else:
        s = example_scenario(name)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(s.to_json()))
    counts, entered = lapack_calls(monkeypatch)
    assert main(["analyze", str(path)]) == 0
    expected = {"scenario_from_json": {"eigh": 1}}
    if name == "qutrits":
        expected.update(PANEL_LAPACK, groenewold_lindblad_check={"eigvalsh": 1})
    else:
        expected.update(QUBIT_LAPACK)
    if hall is not None:
        expected["hall_section"] = hall
    if name in PURE_OUTPUT_DESK:
        expected["entropy_panel"] = {**expected.get("entropy_panel", {}), "svd": 1}
    assert counts == expected
    assert ("hall_section" in entered) == (hall is not None)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_scenario_builds_only_the_scenario_it_returns(monkeypatch, name):
    """One LAPACK call, the eigh of the returned ensemble's letters: no desk
    ensemble is built and dropped (the orthogonal one was, on every call)."""
    counts, _ = lapack_calls(monkeypatch)
    example_scenario(name)
    assert counts == {None: {"eigh": 1}}


def test_run_scenario_does_no_per_state_work(monkeypatch):
    """The instrument is applied to stacks and their entropies come from batched
    eigvalsh calls; a per-cell path (one validated state, one herm_eig each)
    would raise the LAPACK counts by tens. The GL check takes every gain from
    one stacked _gains call, on the one-Kraus scenario too, which is
    purity-preserving and so draws trial states, and its spectra from one
    eigvalsh call, as d1 = d2. The entropy panel reads the pure-output mask
    first, so it makes the purity pass's svd calls: two on the two-Kraus
    scenario, whose outcomes have no common range, and none on the one-Kraus
    scenario, whose outputs of the identity are mixed. Every LAPACK call is
    pinned, by stage (``lapack_calls``)."""
    names = ("states", "gl_gains")
    counts = dict.fromkeys(names, 0)
    in_gl = []

    def gl_check(*args, **kwargs):
        in_gl.append(True)
        try:
            return groenewold_lindblad_check(*args, **kwargs)
        finally:
            in_gl.pop()

    def gains(*args, **kwargs):
        counts["gl_gains"] += bool(in_gl)
        return _gains(*args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted(counts, "states", DensityMatrix.__post_init__))
    monkeypatch.setattr(harness, "groenewold_lindblad_check", gl_check)
    monkeypatch.setattr(infobounds, "_gains", gains)
    lapack, _ = lapack_calls(monkeypatch)
    for kraus, svd in ((2, 2), (1, 0)):
        s = random_scenario(3, 3, 4, 4, kraus, 7)
        counts.update(dict.fromkeys(names, 0))
        lapack.clear()
        report = run_scenario(s)
        assert report["overall_pass"] and report["hall_skipped"] is None
        assert report["purity_preserving"] == (kraus == 1)
        assert counts["states"] == 0
        assert counts["gl_gains"] == 1
        assert lapack == {**PANEL_LAPACK, "entropy_panel": {"eigvalsh": 1, **({"svd": svd} if svd else {})},
                          "groenewold_lindblad_check": {"eigvalsh": 1}, "hall_section": HALL_LAPACK}


def test_scenario_from_json_does_no_per_letter_work(monkeypatch):
    """Ingest reads the letters as one stack, checked by the rules of a state
    and decomposed by one batched herm_eig; no DensityMatrix is built for a
    letter that is not clamped."""
    s = random_scenario(3, 3, 4, 4, 2, 7)
    obj = json.loads(json.dumps(s.to_json()))
    names = ("states", "eigh", "herm_eig", "jacobi_eig")
    counts = dict.fromkeys(names, 0)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counted(counts, "states", DensityMatrix.__post_init__))
    monkeypatch.setattr(np.linalg, "eigh", counted(counts, "eigh", np.linalg.eigh))
    monkeypatch.setattr(matcore, "herm_eig", counted(counts, "herm_eig", matcore.herm_eig))
    monkeypatch.setattr(matcore, "jacobi_eig", counted(counts, "jacobi_eig", matcore.jacobi_eig))
    read = scenario_from_json(obj)
    assert counts == {"states": 0, "eigh": 1, "herm_eig": 1, "jacobi_eig": 0}
    assert read.ensemble.states.shape == (4, 3, 3)
    assert np.array_equal(read.ensemble.states, s.ensemble.states)
    assert _fingerprint(read) == _fingerprint(s)


def test_no_pipeline_path_builds_a_density_matrix(monkeypatch):
    """DensityMatrix is the type of the oracles in tests/oracle.py: the desk
    scenarios, a random scenario and pure letters (pure_state, random_pure)
    are built, written, read back and analyzed without one."""

    def refuse(self):
        raise AssertionError("a pipeline path built a DensityMatrix")

    monkeypatch.setattr(qstate.DensityMatrix, "__post_init__", refuse)
    rng = np.random.default_rng(5)
    pure = Ensemble((0, 1), np.array([0.4, 0.6]), (pure_state([1, 1j, 0]), random_pure(3, rng)))
    scenarios = [example_scenario(name) for name in EXAMPLE_NAMES]
    scenarios += [random_scenario(3, 2, 3, 2, 2, 7), Scenario(pure, random_instrument(3, 2, 3, 1, seed=5))]
    for s in scenarios:
        assert run_scenario(scenario_from_json(json.loads(json.dumps(s.to_json()))))["overall_pass"]


# Each data type is built twice from the same inputs; the arrays say what it holds.
REBUILT = {
    "DensityMatrix": (lambda: qstate.DensityMatrix(np.diag([0.25, 0.75])), lambda x: (x.mat,)),
    "ClassicalDist": (lambda: oracle.ClassicalDist((0, 1), [0.25, 0.75]), lambda x: (x.probs,)),
    "Ensemble": (lambda: example_scenario("zero-one-plus").ensemble, lambda x: (x.probs, x.states)),
    "KrausMap": (lambda: instrument.KrausMap(2, 2, (np.eye(2),)), lambda x: (x.kraus,)),
    "Instrument": (lambda: example_scenario("zero-one-plus").instrument, lambda x: (x.kraus_stack,)),
    "Scenario": (lambda: example_scenario("zero-one-plus"),
                 lambda x: (x.ensemble.states, x.instrument.kraus_stack)),
}


@pytest.mark.parametrize("name", sorted(REBUILT))
def test_equality_and_hash_answer_by_identity(name):
    """== and hash go by identity and never raise on the array fields; a
    rebuilt object is compared through its arrays."""
    build, arrays = REBUILT[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and hash(a) == hash(a)
    assert len({a, b}) == 2
    assert all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b), strict=True))
