import csv
import io
import json
import math

import numpy as np
import pytest

from qinstr.harness import (
    EXAMPLE_NAMES,
    Scenario,
    emit_report,
    example_scenario,
    main,
    random_scenario,
    run_random_suite,
    run_scenario,
    scenario_from_json,
    splitmix64,
)
from qinstr.errors import SchemaError, UnknownFormat
from qinstr.instrument import random_instrument
from qinstr.qstate import Ensemble, pure_state


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

    def test_overrides(self):
        s = example_scenario("zero-one-plus")
        s2 = scenario_from_json(s.to_json(), tol_override=1e-5, base_override="2")
        assert s2.tol == 1e-5
        assert s2.log_base == "2"


class TestRunScenario:
    def test_zero_one_plus_values(self):
        report = run_scenario(example_scenario("zero-one-plus"))
        assert report.overall_pass
        assert abs(report.panel["classical_mi"] - 0.21576155433883565) < 1e-4
        assert abs(report.panel["chi_initial"] - 0.4164955306996875) < 1e-4
        assert report.hall_skipped is None

    def test_orthogonal_projective_log2(self):
        report = run_scenario(example_scenario("orthogonal-projective"))
        assert report.overall_pass
        assert abs(report.panel["classical_mi"] - math.log(2)) < 1e-10
        assert report.purity_preserving

    def test_identity_instrument(self):
        report = run_scenario(example_scenario("identity-instrument"))
        assert report.overall_pass
        assert abs(report.panel["classical_mi"]) < 1e-10
        assert abs(report.quantum_info_gain) < 1e-10

    def test_base2_scaling(self):
        s = example_scenario("orthogonal-projective")
        s2 = Scenario(
            ensemble=s.ensemble, instrument=s.instrument, log_base="2", seed=s.seed
        )
        report = run_scenario(s2)
        assert abs(report.to_json()["panel"]["classical_mi"] - 1.0) < 1e-10

    def test_sensitivity_reported_on_null_outcomes(self):
        # orthogonal letters with the z measurement yield zero-probability
        # cells, so the default-state sensitivity scan runs
        report = run_scenario(example_scenario("orthogonal-projective"))
        assert report.default_state_sensitivity is not None
        # the null cells carry zero weight, so the panel is insensitive
        assert report.default_state_sensitivity < 1e-9

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", [7, 99, 12345])
    def test_every_check_judged_at_scenario_tol(self, seed, tol):
        # one policy for every stage: inequalities at tol, equalities at
        # min(1e-9, tol), data never fails
        report = run_scenario(random_scenario(3, 3, 3, 3, 2, seed, tol=tol))
        assert report.hall_skipped is None
        rows = report.check_rows()
        assert len(rows) == len(report.checks)
        for check, row in zip(report.checks, rows):
            if check.kind == "data":
                expected = True
            elif check.kind == "eq":
                expected = abs(check.slack) <= min(1e-9, tol)
            else:
                expected = math.isinf(check.rhs) or check.slack >= -tol
            assert row["pass"] == expected, (check, tol)
        assert report.overall_pass == all(row["pass"] for row in rows)

    def test_deterministic_json(self):
        s = example_scenario("zero-one-plus")
        out1 = emit_report(run_scenario(s), "json")
        out2 = emit_report(run_scenario(s), "json")
        assert out1 == out2


@pytest.fixture(scope="module")
def report():
    return run_scenario(example_scenario("zero-one-plus"))


class TestEmitReport:

    def test_json_parses_losslessly(self, report):
        obj = json.loads(emit_report(report, "json"))
        assert obj["overall_pass"] is True
        assert len(obj["checks"]) == len(report.checks)

    def test_markdown_has_row_per_check(self, report):
        text = emit_report(report, "markdown")
        rows = [l for l in text.splitlines() if l.startswith("|") and "---" not in l]
        assert len(rows) == len(report.checks) + 1  # header + data rows
        assert text.endswith("Overall: PASS")

    def test_csv_row_count_and_values(self, report):
        text = emit_report(report, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(report.checks)
        by_name = {r["name"]: r for r in rows}
        assert float(by_name["holevo"].get("rhs")) == pytest.approx(
            0.4164955306996875, abs=1e-10
        )

    def test_unknown_format(self, report):
        with pytest.raises(UnknownFormat):
            emit_report(report, "yaml")


class TestRandomSuite:
    def test_small_suite_passes(self):
        reports, summary = run_random_suite(2, 2, 2, 2, 1, trials=5, master_seed=1)
        assert summary["failures"] == 0
        assert summary["trials"] == 5
        assert len(reports) == 5

    def test_reproducible(self):
        r1, _ = run_random_suite(2, 2, 2, 2, 1, trials=3, master_seed=9)
        r2, _ = run_random_suite(2, 2, 2, 2, 1, trials=3, master_seed=9)
        for a, b in zip(r1, r2):
            assert emit_report(a, "json") == emit_report(b, "json")

    def test_min_slack_recorded(self):
        _, summary = run_random_suite(2, 2, 2, 2, 2, trials=3, master_seed=4)
        assert "holevo" in summary["min_slack"]
        assert summary["min_slack"]["holevo"] >= -1e-8


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

    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", "/nonexistent/file.json"]) == 2

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_bad_schema_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ensemble": {"letters": []}}))
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_input_error(self, tmp_path, capsys, tol):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(example_scenario("zero-one-plus").to_json()))
        assert main(["analyze", str(path), "--tol", tol]) == 2

    def test_unparsable_env_tol_is_input_error(self, monkeypatch, capsys):
        monkeypatch.setenv("QINSTR_TOL", "abc")
        assert main(["random", "--trials", "1"]) == 2
        assert "QINSTR_TOL" in capsys.readouterr().err

    def test_random_command(self, capsys):
        code = main(["random", "--trials", "2", "--seed", "3"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"]["failures"] == 0

    def test_random_csv(self, capsys):
        assert main(["random", "--trials", "1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,lhs,rhs,slack,pass")

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2


class TestTolEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QINSTR_TOL", "1e-5")
        s = scenario_from_json(example_scenario("zero-one-plus").to_json())
        # the serialized scenario pins its own tol; strip it to see the default
        obj = example_scenario("zero-one-plus").to_json()
        del obj["options"]["tol"]
        s = scenario_from_json(obj)
        assert s.tol == 1e-5

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("QINSTR_TOL", raising=False)
        obj = example_scenario("zero-one-plus").to_json()
        del obj["options"]["tol"]
        assert scenario_from_json(obj).tol == 1e-8
