"""Command-line interface: arguments, formats, exit codes."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import hyperee
from conftest import CORPUS
from hyperee.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, EXIT_TABLE, main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse/file errors exit instead of returning
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ee


def test_ee_star_json(capsys):
    code, out, _ = run_cli(capsys, "ee", "--star", "3", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["method"] == "hyperstar-closed-form"
    assert payload["value"] == pytest.approx(13.512525, abs=1e-5)
    assert payload["error_bound"] == 0.0
    assert payload["converged"] is True


def test_ee_series_human(capsys):
    code, out, _ = run_cli(
        capsys, "ee", "--path", "3", "3", "--method", "series", "--tol", "1e-2"
    )
    assert code == EXIT_OK
    assert "EE = 521.2054315" in out
    assert "trace-series" in out
    assert "series orders used" in out


def test_ee_csv_round_trips(capsys):
    code, out, _ = run_cli(capsys, "ee", "--star", "2", "4", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    want = 3.0 + 2.0 * math.cosh(2.0)
    assert float(rows[0]["value"]) == pytest.approx(want, rel=1e-9)


def test_ee_empty_input(capsys):
    code, out, _ = run_cli(capsys, "ee", "--empty", "3", "3", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 12.0


def test_ee_infeasible_spectrum_request(capsys):
    code, _, err = run_cli(capsys, "ee", "--path", "3", "3", "--method", "spectrum")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_ee_star_method_on_non_star(capsys):
    code, _, err = run_cli(capsys, "ee", "--path", "3", "3", "--method", "star")
    assert code == EXIT_INFEASIBLE
    assert "not a hyperstar" in err


def test_threads_flag_is_rejected(capsys):
    """The trace engine runs in one process; --threads is not an option."""
    code, out, err = run_cli(capsys, "ee", "--star", "3", "1", "--threads", "2")
    assert code == EXIT_PARSE
    assert out == ""
    assert "--threads" in err and "Traceback" not in err


def test_ee_rejects_nonpositive_tol(capsys):
    code, _, err = run_cli(capsys, "ee", "--star", "3", "1", "--tol", "0")
    assert code == EXIT_PARSE
    assert "positive" in err


@pytest.mark.parametrize(
    "argv",
    [("table1", "--tol", "0"), ("table1", "--tol", "-1"),
     ("traces", "--star", "3", "1", "--max-d", "3", "--budget-degree", "0"),
     ("ee", "--star", "3", "1", "--tol", "-1"),
     ("bounds", "--star", "3", "1", "--budget-degree", "0"),
     ("spectrum", "--star", "3", "1", "--budget-selections", "-1")],
)
def test_nonpositive_numbers_are_parse_errors(capsys, argv):
    """Every subcommand refuses a tolerance or budget that is not positive
    when it parses its arguments, without a traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert "must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("traces", "--star", "3", "1", "--max-d", "3", "--tol", "1e-3"),
     ("spectrum", "--star", "3", "1", "--tol", "1e-3"),
     ("bounds", "--star", "3", "1", "--tol", "1e-3")],
)
def test_tol_is_rejected_where_nothing_reads_it(capsys, argv):
    """Only ee and table1 truncate a series, so only they take --tol."""
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert "--tol" in err and "Traceback" not in err


def _csv_shaped(command, document):
    """The rows a CSV report should carry, read off its JSON document."""
    if command == "ee":
        return [document]
    if command == "traces":
        return [{"d": t["d"], "trace": t["value"]} for t in document["traces"]]
    if command == "spectrum":
        return document["entries"]
    if command == "bounds":
        flat = {key: value for key, value in document.items() if key != "rho"}
        return [{**flat, "rho_lower": document["rho"]["lower"],
                 "rho_upper": document["rho"]["upper"]}]
    return [{key: value for key, value in row.items() if key != "reason"}
            for row in document["rows"]]


@pytest.mark.parametrize(
    "argv",
    [("ee", "--path", "3", "3", "--method", "series", "--tol", "1e-3"),
     ("ee", "--path", "3", "4", "--budget-selections", "50"),
     ("traces", "--path", "3", "2", "--max-d", "6"),
     ("spectrum", "--star", "3", "2"),
     ("bounds", "--star", "3", "1"),
     ("bounds", "--path", "3", "3"),
     ("table1", "--budget-selections", "1")],
)
def test_csv_rows_carry_the_json_values(capsys, argv):
    """The csv format prints the json report's rows: same columns, same
    values, None as an empty field."""
    code, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code_csv == code
    want = [{key: "" if value is None else str(value)
             for key, value in row.items()}
            for row in _csv_shaped(argv[0], json.loads(out_json))]
    assert list(csv.DictReader(io.StringIO(out_csv))) == want


@pytest.mark.parametrize(
    "argv",
    [("ee", "--star", "3", "600"), ("ee", "--empty", "3", "2000"),
     ("bounds", "--empty", "3", "2000")],
)
def test_count_beyond_float_range_exits_infeasible(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert err.startswith("infeasible:") and "beyond float range" in err


# traces


def test_traces_star_values(capsys):
    code, out, _ = run_cli(
        capsys, "traces", "--star", "3", "1", "--max-d", "6", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["value"] for row in payload["traces"]] == [12, 0, 0, 9, 0, 0, 9]


def test_traces_human_lines(capsys):
    code, out, _ = run_cli(capsys, "traces", "--star", "3", "1", "--max-d", "3")
    assert code == EXIT_OK
    assert out.splitlines() == ["Tr_0 = 12", "Tr_1 = 0", "Tr_2 = 0", "Tr_3 = 9"]


def test_traces_csv(capsys):
    code, out, _ = run_cli(
        capsys, "traces", "--path", "2", "2", "--max-d", "4", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["trace"]) for r in rows] == [3, 0, 4, 0, 8]


def test_traces_rejects_negative_order(capsys):
    code, _, err = run_cli(capsys, "traces", "--star", "3", "1", "--max-d", "-2")
    assert code == EXIT_PARSE
    assert "nonnegative" in err


def test_traces_infeasible_budget(capsys):
    code, _, err = run_cli(
        capsys, "traces", "--star", "3", "3", "--max-d", "8",
        "--budget-selections", "2",
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_graph_traces_infeasible_budget(capsys):
    code, _, err = run_cli(
        capsys, "traces", "--path", "2", "4", "--max-d", "8",
        "--budget-selections", "100",
    )
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


# spectrum


def test_spectrum_empty_json(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--empty", "3", "3", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["k"] == 12
    assert payload["entries"] == [{"re": 0.0, "im": 0.0, "multiplicity": 12}]


def test_spectrum_star_human(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--star", "3", "2")
    assert code == EXIT_OK
    assert "closed-form" in out
    assert "x9" in out.replace(" ", "")


def test_spectrum_csv_multiplicities_sum_to_k(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--star", "4", "1", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert sum(int(r["multiplicity"]) for r in rows) == 108


def test_spectrum_infeasible(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--path", "3", "3")
    assert code == EXIT_INFEASIBLE
    assert "trace-series" in err


# bounds


def test_bounds_single_edge_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--star", "3", "1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["k"] == 12
    assert payload["lower_basic"] == pytest.approx(13.5)
    assert payload["upper_moment"] == pytest.approx(11.0 + math.e**3, rel=1e-9)
    assert payload["upper_moment_adjusted"] == pytest.approx(0.5 + math.e**3, rel=1e-9)
    assert payload["rho"]["upper"] == pytest.approx(1.0, abs=1e-9)


def test_bounds_human_without_spectrum(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--path", "3", "3")
    assert code == EXIT_OK
    assert "n/a (no spectrum within budget)" in out
    assert "upper bound (radius)" in out


def test_bounds_csv_header(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--empty", "2", "4", "--format", "csv")
    assert code == EXIT_OK
    header = out.splitlines()[0].split(",")
    assert "lower_basic" in header
    assert "rho_upper" in header


# table1


def test_table1_reproduces_all_rows(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert len(payload["rows"]) == 6
    assert {r["status"] for r in payload["rows"]} == {"OK"}


def test_table1_human_table(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("instance")
    assert len(lines) == 7
    assert all(line.endswith("OK") for line in lines[1:])


def test_table1_skips_rows_when_starved(capsys):
    code, out, _ = run_cli(
        capsys, "table1", "--budget-selections", "1", "--format", "json"
    )
    assert code == EXIT_TABLE
    payload = json.loads(out)
    assert payload["all_ok"] is False
    statuses = {r["status"] for r in payload["rows"]}
    assert "SKIPPED" in statuses
    skipped = [r for r in payload["rows"] if r["status"] == "SKIPPED"]
    assert all("feasibility" in r["reason"] or "infeasible" in r["reason"]
               for r in skipped)


def test_table1_csv(capsys):
    code, out, _ = run_cli(capsys, "table1", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert all(r["status"] == "OK" for r in rows)


# gen and file input


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "star.uhg"
    code, _, _ = run_cli(capsys, "gen", "--star", "3", "2", "-o", str(path))
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "ee", "--input", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(92.175646, abs=1e-5)


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--empty", "3", "4")
    assert code == EXIT_OK
    assert out == "3 4 0\n"


def test_input_file_missing(capsys):
    code, _, err = run_cli(capsys, "ee", "--input", "/nonexistent/zzz.uhg")
    assert code == EXIT_PARSE
    assert "error:" in err


def test_input_file_malformed(tmp_path, capsys):
    path = tmp_path / "bad.uhg"
    path.write_text("3 4\n")
    code, _, err = run_cli(capsys, "ee", "--input", str(path))
    assert code == EXIT_PARSE
    assert "line 1" in err


def test_exactly_one_source_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ee"])
    assert exc.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_two_sources_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ee", "--star", "3", "1", "--empty", "3", "3"])
    assert exc.value.code == EXIT_PARSE


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_PARSE


def test_console_entry_point():
    """The module runs as a script with the same behaviour."""
    proc = subprocess.run(
        [sys.executable, "-m", "hyperee.cli", "traces", "--star", "3", "1",
         "--max-d", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "Tr_3 = 9"


def test_runtime_is_numpy_only_and_single_process():
    """table1 and estrada_index(threads=2) on a corpus input load no
    process pool and none of the test-only libraries."""
    h = CORPUS["rand-3-b"]
    script = f"""
import sys
from hyperee.cli import main
from hyperee.estrada import estrada_index
from hyperee.hypergraph import from_edge_list
assert main(["table1"]) == 0
estrada_index(from_edge_list({h.m}, {h.n}, {list(h.edges)!r}), threads=2)
print(sorted({{name.split(".")[0] for name in sys.modules}}))
"""
    src = str(pathlib.Path(hyperee.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1]
    for name in ("concurrent", "multiprocessing", "mpmath", "sympy", "scipy",
                 "hypothesis"):
        assert repr(name) not in loaded, name
