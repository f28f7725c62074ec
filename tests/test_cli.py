"""Command-line interface: subcommands, formats, exit codes."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherebound
from spherebound import MOTZKIN_TEXT, surface_area, upper_bound
from spherebound import cli
from spherebound.cli import main
from spherebound.harness import TABLE1_TOLERANCE, reproduce_table1
from spherebound.polynomials import parse_poly


class TestBoundCommand:
    def test_json_file_output(self, tmp_path):
        out = tmp_path / "res.json"
        code = main(["bound", "--poly", MOTZKIN_TEXT, "--n", "3", "--r", "3",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"n", "r", "value", "basis_size", "condition_number",
                                "condition_warning", "degenerate", "coeffs"}
        ref = upper_bound(parse_poly(MOTZKIN_TEXT, 3), 3, 3)
        assert payload["value"] == pytest.approx(ref.value, rel=1e-12)

    def test_stdout_default(self, capsys):
        code = main(["bound", "--poly", "x1", "--n", "2", "--r", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(-math.cos(math.pi / 6), rel=1e-10)

    def test_polynomial_from_file(self, tmp_path):
        src = tmp_path / "motzkin.txt"
        src.write_text(MOTZKIN_TEXT + "\n")
        code = main(["bound", "--poly", str(src), "--n", "3", "--r", "1",
                     "--json", str(tmp_path / "o.json")])
        assert code == 0

    def test_high_precision_flag(self, capsys):
        code = main(["bound", "--poly", "x1", "--n", "2", "--r", "24",
                     "--dps", "60"])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["value"] == pytest.approx(-math.cos(math.pi / 50),
                                                 abs=1e-12)
        # the float Gram matrix is indefinite here, so the condition number
        # is infinite; it is written as null, not as the invalid Infinity
        assert payload["condition_number"] is None

    def test_parse_error_is_input_failure(self, capsys):
        assert main(["bound", "--poly", "x1 + $", "--n", "2", "--r", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_coefficient_is_input_failure(self, capsys):
        assert main(["bound", "--poly", "1e400*x1", "--n", "2", "--r", "1"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_nonpositive_dps_is_input_failure(self, capsys):
        assert main(["bound", "--poly", "x1", "--n", "2", "--r", "1", "--dps", "0"]) == 2
        assert "dps" in capsys.readouterr().err
        assert main(["rational", "--p", "x1", "--q", "2 + x1", "--n", "2", "--r", "1",
                     "--dps", "0"]) == 2
        assert "dps" in capsys.readouterr().err
        # positive but below float64 precision
        assert main(["bound", "--poly", "x3", "--n", "3", "--r", "4", "--dps", "3"]) == 2
        assert "at least 16" in capsys.readouterr().err
        assert main(["sweep", "--poly", "x3", "--n", "3", "--r-min", "2", "--r-max", "3",
                     "--dps", "15"]) == 2
        assert "at least 16" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["bound", "--poly", "x1", "--n", "1", "--r", "1"],
         "dimension must be an integer of at least 2, got 1"),
        (["sweep", "--poly", "x1", "--n", "2", "--r-min", "-1", "--r-max", "2"],
         "level must be an integer of at least 0, got -1"),
        (["cubature", "--n", "3", "--d", "0"],
         "parameter d must be an integer of at least 1, got 0"),
        (["density-grid", "--poly", "x3", "--n", "3", "--r", "1", "--resolution", "0"],
         "resolution must be an integer of at least 1, got 0"),
        (["bound", "--poly", "x1", "--n", "2", "--r", "1", "--dps", "8"],
         "dps must be an integer of at least 16, got 8"),
    ])
    def test_integer_below_its_floor_is_input_failure(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_variable_out_of_range_is_input_failure(self):
        assert main(["bound", "--poly", "x3", "--n", "2", "--r", "1"]) == 2

    def test_conditioning_breakdown_is_numerical_failure(self, capsys):
        assert main(["bound", "--poly", "x1", "--n", "2", "--r", "24"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_argument_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["bound", "--poly", "x1"])
        assert info.value.code == 2


def test_stdout_stays_open_between_commands(capsys):
    # stdout output is not closed after a subcommand, so a second one can write
    assert main(["bound", "--poly", "x1", "--n", "2", "--r", "1"]) == 0
    assert main(["cubature", "--n", "2", "--d", "2"]) == 0
    assert not sys.stdout.closed
    out = capsys.readouterr().out
    end = out.index("}\n") + 2
    assert json.loads(out[:end])["n"] == 2
    assert out[end:].split("\n")[0] == "x1,x2,weight"


class TestRationalCommand:
    def test_basic(self, capsys):
        code = main(["rational", "--p", "x1", "--q", "2 + x1", "--n", "2",
                     "--r", "6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert -1.0 <= payload["value"] <= -0.5

    def test_uncertified_denominator(self, capsys):
        code = main(["rational", "--p", "x1", "--q", "x1", "--n", "2",
                     "--r", "2"])
        assert code == 3
        assert "not certified positive" in capsys.readouterr().err


class TestSweepCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--poly", "x1", "--n", "2", "--r-min", "1",
                     "--r-max", "5", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,bound,lower_certificate,basis_size,runtime_ms"
        assert len(lines) == 6

    def test_rate_fit_reported_on_stderr(self, tmp_path, capsys):
        code = main(["sweep", "--poly", "x3", "--n", "3", "--r-min", "4",
                     "--r-max", "10", "--fmin", "-1", "--no-certificates",
                     "--csv", str(tmp_path / "s.csv")])
        assert code == 0
        err = capsys.readouterr().err
        assert "slope=" in err

    def test_invalid_range_is_input_failure(self, tmp_path):
        code = main(["sweep", "--poly", "x1", "--n", "2", "--r-min", "5",
                     "--r-max", "2", "--csv", str(tmp_path / "s.csv")])
        assert code == 2


class TestDensityGridCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["density-grid", "--poly", MOTZKIN_TEXT, "--n", "3",
                     "--r", "2", "--resolution", "20", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,phi,h"
        assert len(lines) == 21 * 21 + 1

    def test_wrong_dimension_is_input_failure(self, tmp_path):
        code = main(["density-grid", "--poly", "x1", "--n", "2", "--r", "2",
                     "--csv", str(tmp_path / "g.csv")])
        assert code == 2

    def test_over_budget_is_input_failure(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["density-grid", "--poly", "x3", "--n", "3", "--r", "1",
                     "--resolution", "100000", "--csv", str(out)]) == 2
        assert "over the budget" in capsys.readouterr().err
        assert not out.exists()

    def test_over_budget_is_refused_before_the_bound_is_solved(self, tmp_path, capsys,
                                                              monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the grid budget is checked first")

        monkeypatch.setattr(cli, "upper_bound", fail)
        out = tmp_path / "g.csv"
        assert main(["density-grid", "--poly", "x3", "--n", "3", "--r", "8", "--dps", "40",
                     "--resolution", "100000", "--csv", str(out)]) == 2
        assert "over the budget" in capsys.readouterr().err
        assert not out.exists()


class TestCubatureCommand:
    def test_csv_mass(self, tmp_path):
        out = tmp_path / "rule.csv"
        code = main(["cubature", "--n", "3", "--d", "4", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x1,x2,x3,weight"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (2 * 4 * 4, 4)
        assert np.isclose(rows[:, 3].sum(), surface_area(3), rtol=1e-12)

    def test_over_budget_is_input_failure(self, tmp_path, capsys):
        out = tmp_path / "rule.csv"
        assert main(["cubature", "--n", "6", "--d", "100", "--csv", str(out)]) == 2
        assert "over the budget" in capsys.readouterr().err
        assert not out.exists()


class TestReproduceCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["reproduce-table1", "--csv", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("r=") == 10
        assert "all 10 levels within" in stdout
        assert out.read_text().startswith(
            "r,bound,lower_certificate,basis_size,runtime_ms")

    def test_mismatch_exits_4(self, monkeypatch, capsys):
        def missed():
            records, diffs, _ = reproduce_table1()
            diffs[4] += 2 * TABLE1_TOLERANCE
            return records, diffs, False

        monkeypatch.setattr(cli, "reproduce_table1", missed)
        assert main(["reproduce-table1"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "reference mismatch beyond 0.0005\n"
        lines = captured.out.splitlines()
        assert len(lines) == 10
        assert [line.endswith("MISMATCH") for line in lines] == [r == 4 for r in range(10)]


def _commands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_every_argument_has_help_and_shared_ones_agree(capsys):
    takers, helps = {}, {}
    for name, command in _commands().items():
        for action in command._actions:
            assert action.help, (name, action.option_strings)
            # reproduce-table1 --csv means "also write the sweep CSV"
            if name != "reproduce-table1":
                for flag in action.option_strings:
                    takers.setdefault(flag, []).append(name)
                    helps.setdefault(flag, set()).add(action.help)
        with pytest.raises(SystemExit) as info:
            main([name, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: spherebound {name} ")
    shared = {flag: len(names) for flag, names in takers.items() if len(names) > 1}
    assert shared == {"-h": 5, "--help": 5, "--poly": 3, "--n": 5, "--r": 3, "--dps": 4,
                      "--json": 2, "--csv": 3}
    assert {flag: texts for flag, texts in helps.items() if len(texts) > 1} == {}


def test_module_entry_point():
    # run from the directory that holds the imported package, so the child
    # interpreter finds the same spherebound without PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "spherebound.cli", "bound", "--poly", "x1",
         "--n", "2", "--r", "1"],
        capture_output=True, text=True, timeout=120,
        cwd=Path(spherebound.__file__).resolve().parents[1])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["value"] == pytest.approx(-math.cos(math.pi / 4), rel=1e-10)
