import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from su2rep import ConsistencyError, locimage, numeric, surfaces
from su2rep.cli import SCHEMA_VERSION, _entry_path, _flatten, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SU2REP_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_betti_regular_one_crosscap(capsys):
    code, out = run(capsys, "betti", "--n", "1", "--target", "minus")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["poincare"] == [1, 1, 1, 1]
    assert payload["variety"] == "regular"
    assert payload["two_torsion"] is False


def test_orbit_regular_one_crosscap(capsys):
    code, out = run(capsys, "orbit", "--n", "1", "--target", "minus")
    assert code == 0
    assert json.loads(out)["poincare"] == [1, 1]


def test_betti_generic_target(capsys):
    code, out = run(capsys, "betti", "--n", "0", "--target", "generic")
    assert code == 0
    payload = json.loads(out)
    assert payload["poincare"] == [2, 0, 2]
    assert payload["two_torsion"] is None
    assert payload["variety"] == "generic-product"


def test_bigraded_payload(capsys):
    code, out = run(capsys, "bigraded", "--n", "1", "--target", "minus")
    assert code == 0
    payload = json.loads(out)
    assert payload["specialized"] == [1, 1, 1, 1]
    assert [[1, 2], "1", "1"] in payload["bigraded"]


def test_localization_image_payload(capsys):
    code, out = run(capsys, "localization-image", "--n", "1", "--target", "minus", "--degree-bound", "4")
    assert code == 0
    payload = json.loads(out)
    minus = payload["sectors"]["minus"]
    assert minus["min_c1_power"] == [1, 0]
    assert {"subset": [], "c1_power": 1, "degree": 2} in minus["basis"]
    assert payload["sectors"]["plus"]["min_c1_power"] == [0, 1]


def test_cup_table_matches_library(capsys):
    code, out = run(capsys, "cup-table", "--n", "2", "--target", "minus")
    assert code == 0
    payload = json.loads(out)
    assert payload["variety"] == "singular"
    assert payload["reduced_cup_product_trivial"] is True
    assert len(payload["basis"]) == 8


def test_verify_exits_zero(capsys):
    code, out = run(capsys, "verify", "--n-max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(check["passed"] for check in payload["checks"])


@pytest.mark.parametrize(
    "module, attr, error, check_name",
    [
        (surfaces, "orbit_poincare", ConsistencyError, "orbit-space-poincare"),
        (locimage, "factorization_check", ValueError, "kunneth-factorization"),
    ],
    ids=["orbit", "factorization"],
)
def test_verify_names_a_raising_check(capsys, monkeypatch, module, attr, error, check_name):
    def broken(*args, **kwargs):
        raise error("injected fault")

    monkeypatch.setattr(module, attr, broken)
    code, out = run(capsys, "verify", "--n-max", "2", "--no-cache")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = {c["name"]: c["detail"] for c in payload["checks"] if not c["passed"]}
    assert list(failed) == [check_name]
    assert "injected fault" in failed[check_name]


def test_verify_output_survives_optimized_mode(tmp_path):
    argv = ["-m", "su2rep.cli", "verify", "--n-max", "4", "--no-cache"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path)}
    plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env, check=True)
    assert optimized.stdout == plain.stdout


def test_non_numeric_commands_leave_numpy_unimported(tmp_path):
    code = (
        "import sys, su2rep.cli\n"
        "rc = su2rep.cli.main(['betti', '--n', '1', '--target', 'plus', '--no-cache'])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == "False"


def test_numeric_check_exits_zero(capsys):
    code, out = run(capsys, "numeric-check", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {row["check_name"] for row in payload["checks"]} >= {"sqrt_roundtrip", "x1r_chart"}


# -- usage errors ------------------------------------------------------------------


@pytest.mark.parametrize("command", ["bigraded", "localization-image", "cup-table"])
def test_generic_target_rejected_where_undefined(capsys, command):
    code, _ = run(capsys, command, "--n", "1", "--target", "generic")
    assert code == 2


def test_unknown_target_rejected(capsys):
    code, _ = run(capsys, "betti", "--n", "1", "--target", "bogus")
    assert code == 2


def test_negative_n_rejected(capsys):
    code, _ = run(capsys, "betti", "--n", "-1", "--target", "minus")
    assert code == 2


def test_negative_seed_rejected(capsys):
    code, _ = run(capsys, "numeric-check", "--seed", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "argv", [["betti", "--n", "-1", "--target", "minus"], ["numeric-check", "--seed", "-1"]], ids=["betti", "numeric-check"]
)
def test_usage_error_shows_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"usage: su2rep {argv[0]} " in capsys.readouterr().err


def test_cap_enforced_for_enumerating_commands(capsys):
    code, _ = run(capsys, "cup-table", "--n", "40", "--target", "minus")
    assert code == 2


# -- determinism and caching ----------------------------------------------------------


def test_identical_requests_are_byte_identical(capsys, isolated_cache):
    _, first = run(capsys, "betti", "--n", "3", "--target", "plus")
    assert isolated_cache.exists()  # cache written on the first run
    _, second = run(capsys, "betti", "--n", "3", "--target", "plus")
    _, third = run(capsys, "betti", "--n", "3", "--target", "plus", "--no-cache")
    assert first.encode() == second.encode() == third.encode()


def test_corrupt_cache_is_recomputed(capsys, isolated_cache):
    _, first = run(capsys, "orbit", "--n", "2", "--target", "plus")
    for entry in isolated_cache.iterdir():
        entry.write_text("{not json")
    _, second = run(capsys, "orbit", "--n", "2", "--target", "plus")
    assert first == second


@pytest.mark.parametrize("entry", [[], {"schema": SCHEMA_VERSION}], ids=["list", "schema-only"])
def test_damaged_cache_entry_is_recomputed(capsys, isolated_cache, entry):
    argv = ["orbit", "--n", "2", "--target", "plus"]
    _, expected = run(capsys, *argv, "--no-cache")
    planted = _entry_path(build_parser().parse_args(argv))
    isolated_cache.mkdir(parents=True)
    planted.write_text(json.dumps(entry))
    assert run(capsys, *argv) == (0, expected)
    assert planted.read_text() == expected  # the damaged entry is overwritten


def test_cache_entry_from_other_code_is_not_served(tmp_path):
    package = tmp_path / "src" / "su2rep"
    shutil.copytree(ROOT / "src" / "su2rep", package, ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(package.parent), "SU2REP_CACHE_DIR": str(tmp_path / "cache")}
    argv = [sys.executable, "-m", "su2rep.cli", "betti", "--n", "1", "--target", "plus"]

    def stdout(*extra):
        return subprocess.run([*argv, *extra], capture_output=True, env=env, check=True).stdout

    expected = stdout("--no-cache")
    assert stdout() == expected  # stores the entry
    [entry] = (tmp_path / "cache").iterdir()
    planted = {"schema": SCHEMA_VERSION, "command": "betti", "n": 1, "target": "plus", "poincare": [7]}
    entry.write_text(json.dumps(planted))
    unrelated = tmp_path / "cache" / "notes.json"
    unrelated.write_text("{}")
    flat_entry = tmp_path / "cache" / f"{'0' * 64}.json"  # named as entries were before the digest prefix
    flat_entry.write_text("{}")
    assert stdout() != expected  # the same code serves its own entry
    with open(package / "surfaces.py", "a") as handle:
        handle.write("# edited\n")
    assert stdout() == expected
    # The edited code's store evicts the old entry and nothing else.
    [stored] = set((tmp_path / "cache").iterdir()) - {unrelated}
    assert stored.name[:64] != entry.name[:64]
    assert not entry.exists() and not flat_entry.exists() and unrelated.exists()


def test_series_outputs_match_golden(capsys):
    # Request line -> stdout, recorded before series became numerators over 1 - t^4
    # and, for the bigraded lines, before RatPoly became univariate.
    golden = json.loads((ROOT / "tests" / "golden" / "series_outputs.json").read_text())
    for line, expected in golden.items():
        assert run(capsys, *line.split()) == (0, expected), line


def test_csv_and_json_carry_identical_content(capsys):
    _, json_out = run(capsys, "betti", "--n", "2", "--target", "plus")
    _, csv_out = run(capsys, "betti", "--n", "2", "--target", "plus", "--format", "csv")
    payload = json.loads(json_out)
    expected = {path: value for path, value in _flatten(payload)}
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["path", "value"]
    assert {path: value for path, value in rows[1:]} == expected


def test_csv_is_deterministic(capsys):
    _, first = run(capsys, "cup-table", "--n", "1", "--target", "plus", "--format", "csv")
    _, second = run(capsys, "cup-table", "--n", "1", "--target", "plus", "--format", "csv")
    assert first == second


def _fail_orbit(monkeypatch):
    def broken(*args, **kwargs):
        raise ConsistencyError("injected fault")

    monkeypatch.setattr(surfaces, "orbit_poincare", broken)


def _fail_numeric(monkeypatch):
    monkeypatch.setattr(numeric, "numeric_check_suite", lambda seed: [{"check_name": "injected", "pass": False}])


@pytest.mark.parametrize(
    "argv, break_check",
    [(["verify", "--n-max", "2"], _fail_orbit), (["numeric-check", "--seed", "0"], _fail_numeric)],
    ids=["verify", "numeric-check"],
)
def test_cached_verdict_is_never_replayed(capsys, isolated_cache, monkeypatch, argv, break_check):
    planted = _entry_path(build_parser().parse_args(argv))
    isolated_cache.mkdir(parents=True)
    planted.write_text(json.dumps({"schema": SCHEMA_VERSION, "command": argv[0], "checks": [], "passed": True}))
    break_check(monkeypatch)
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["passed"] is False
    assert list(isolated_cache.iterdir()) == [planted]  # nothing stored either


def test_failed_cache_store_leaves_no_temp_file(capsys, isolated_cache, monkeypatch):
    argv = ["betti", "--n", "2", "--target", "plus"]
    _, expected = run(capsys, *argv, "--no-cache")

    def failing_replace(*args, **kwargs):
        raise OSError("injected fault")

    monkeypatch.setattr(os, "replace", failing_replace)
    code, out = run(capsys, *argv)
    assert (code, out) == (0, expected)
    assert list(isolated_cache.iterdir()) == []
