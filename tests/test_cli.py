import csv
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from su2rep import checks, cli, locimage, numeric, surfaces
from su2rep.cli import SCHEMA_VERSION, LazyList, _entry_path, _flatten, build_parser, main
from su2rep.exterior import ENUMERATION_CAP, Sector
from su2rep.ratpoly import RatFn, RatPoly
from su2rep.targets import ConsistencyError, SurfaceTarget, TargetKind, Variant

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SU2REP_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def whole_entry(path: Path, out: str) -> str:
    """What a whole entry at path holds: the response, then a line with the request key from its name."""
    return out + path.name[65 : -len(".json")] + "\n"


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
        (locimage, "cup_survival", ConsistencyError, "cup-product-structure"),
        (surfaces, "recursion_verify", IndexError, "poincare-recursion"),
    ],
    ids=["orbit", "factorization", "cup-survival", "recursion"],
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


def test_numeric_check_names_a_raising_check(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("injected fault")

    monkeypatch.setattr(numeric, "singular_values", broken)
    code, out = run(capsys, "numeric-check", "--seed", "0", "--no-cache")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert len(payload["checks"]) == 7
    failed = [row for row in payload["checks"] if not row["pass"]]
    assert failed == [
        {
            "check_name": "regular_rank_gap",
            "samples": numeric.SUITE_SAMPLES,
            "max_residual": None,
            "pass": False,
            "detail": "ArithmeticError: injected fault",
        }
    ]


def _failed_checks(capsys, n_max) -> dict:
    code, out = run(capsys, "verify", "--n-max", str(n_max), "--no-cache")
    payload = json.loads(out)
    assert (code, payload["passed"]) == (1, False)
    return {c["name"]: c["detail"] for c in payload["checks"] if not c["passed"]}


def _leak_mixed(surviving):  # a_1 times the minus unit survives
    surviving[Sector.PLUS, Sector.MINUS][1].append(0)


def _drop_plus_product(surviving):  # a_S a_T with |S| = 1, |T| = n - 1 no longer survives
    surviving[Sector.PLUS, Sector.PLUS][1].pop()


def _drop_unit_product(surviving):  # 1 times the top minus class no longer survives
    surviving[Sector.PLUS, Sector.MINUS][0].pop()


def _drop_minus_pairing(surviving):  # the minus unit pairs with nothing
    surviving[Sector.MINUS, Sector.MINUS][0] = []


@pytest.mark.parametrize(
    "corrupt, fact",
    [
        (_leak_mixed, "mixed n=1"),
        (_drop_plus_product, "plus-subring n=1"),
        (_drop_unit_product, "unit n=1"),
        (_drop_minus_pairing, "minus-pairing n=1 regular"),
    ],
    ids=["mixed", "plus-subring", "unit", "minus-pairing"],
)
def test_cup_structure_fails_on_a_wrong_survival_table(capsys, monkeypatch, corrupt, fact):
    real = locimage.cup_survival

    def corrupted(n, variant):
        surviving = real(n, variant)
        if n >= 1:
            corrupt(surviving)
        return surviving

    monkeypatch.setattr(locimage, "cup_survival", corrupted)
    failed = _failed_checks(capsys, 2)
    assert list(failed) == ["cup-product-structure"]
    assert failed["cup-product-structure"].startswith(fact)


def test_formality_fails_when_the_total_betti_number_is_off(capsys, monkeypatch):
    real = surfaces.poincare

    def off_at_one(target):
        return real(target) + (RatPoly.t(3 * target.n + 1) if target.kind is TargetKind.GENERIC else 0)

    monkeypatch.setattr(surfaces, "poincare", off_at_one)
    failed = _failed_checks(capsys, 2)
    assert failed["formality-dimension"] == "n=0 generic; n=1 generic; n=2 generic"


def test_pair_sign_check_reads_the_periodic_tail(monkeypatch):
    # At n = 12 the numerator of the pair series reaches degree 39, so a -1 at t^35 lies past degree 30.
    planted = SurfaceTarget(TargetKind.CENTRAL_PLUS, 12)

    def minus_t35(real):
        return lambda target: real(target) - RatPoly.t(35) * int(target == planted)

    for attr in ("pair_poincare", "pair_poincare_direct"):
        monkeypatch.setattr(surfaces, attr, minus_t35(getattr(surfaces, attr)))
    assert checks.check_pair_series(12) == ("pair-poincare-series", False, "negative n=12 plus")


def test_kunneth_fails_on_a_tensor_table_off_at_one_mask(capsys, monkeypatch):
    real = locimage.tensor_min_c1

    def off_at_mask_1(left, right):
        min_c1 = real(left, right)
        return lambda mask: min_c1(mask) + (mask == 1)

    monkeypatch.setattr(locimage, "tensor_min_c1", off_at_mask_1)
    failed = _failed_checks(capsys, 2)
    assert failed == {
        "kunneth-factorization": "n=1: regular/plus: first differing basis element (1, 1); "
        "n=2: regular/plus: first differing basis element (1, 1)"
    }


def _off_at(args, extra):
    """A fault: the real value plus extra at args, the real value elsewhere."""
    return lambda real: lambda *given: real(*given) + extra if given == args else real(*given)


def _moved_degree(real):
    """A fault: degree 1 of X1-regular moves from the minus sector to the plus one; every total stays right."""

    def sectors(target):
        plus, minus = real(target)
        return (plus + RatPoly.t(), minus - RatPoly.t()) if target == SurfaceTarget.regular(1) else (plus, minus)

    return sectors


def _dropped_run(real):
    """A fault: X1-regular's plus image loses its run over the empty subset."""
    spec = locimage.ImageSpec(1, Variant.REGULAR, Sector.PLUS)
    return lambda given, bound: islice(real(given, bound), 1, None) if given == spec else real(given, bound)


def _extra_bidegree(real):
    """A fault: the n = 2 singular count gains a class in bidegree (9, 9)."""

    def counts(n, variant):
        return {**real(n, variant), (9, 9): 1} if (n, variant) == (2, Variant.SINGULAR) else real(n, variant)

    return counts


_GENERIC_2 = (SurfaceTarget.generic(2),)
_NEGATIVE_AT_50 = _off_at(_GENERIC_2, -RatPoly.t(50))  # both orbit routes agree on it
_SINGULAR_0_PLUS = (locimage.ImageSpec(0, Variant.SINGULAR, Sector.PLUS),)


@pytest.mark.parametrize(
    "faults, check, detail",
    [
        pytest.param(
            [(surfaces, "poincare_sectors", _moved_degree)],
            "localization-image-series", "series n=1 regular/plus; series n=1 regular/minus", id="series",
        ),
        pytest.param(
            [(locimage, "iter_image_runs", _dropped_run)],
            "localization-image-series", "basis-count n=1 regular/plus", id="basis-count",
        ),
        pytest.param(
            [(surfaces, "gxt_equivariant_series", _off_at(_GENERIC_2, 1))],
            "weyl-invariant-series", "n=2 generic", id="weyl",
        ),
        pytest.param(
            [(surfaces, "orbit_poincare", _off_at(_GENERIC_2, 1))],
            "orbit-space-poincare", "constant-term n=2 generic", id="constant-term",
        ),
        pytest.param(
            [(surfaces, "orbit_poincare", _off_at((SurfaceTarget.central_minus(1),), RatPoly.t(2)))],
            "orbit-space-poincare", "spot-value X1-regular orbit", id="spot-value",
        ),
        pytest.param(
            [(surfaces, "orbit_poincare_direct", _NEGATIVE_AT_50), (surfaces, "orbit_poincare_assembled", _NEGATIVE_AT_50)],
            "orbit-space-poincare", "n=2 generic: orbit-space polynomial has a bad coefficient -1 at degree 50",
            id="bad-coefficient",
        ),
        pytest.param(
            [(surfaces, "poincare", _off_at((SurfaceTarget.regular(2),), RatPoly.t()))],
            "poincare-duality-euler", "duality n=2", id="duality",
        ),
        pytest.param(
            [(surfaces, "euler_characteristic", _off_at((SurfaceTarget.singular(1),), 1))],
            "poincare-duality-euler", "euler n=1 singular", id="euler",
        ),
        pytest.param(
            [(surfaces, "euler_characteristic", _off_at((SurfaceTarget.regular(1),), 1))],
            "poincare-duality-euler", "euler n=1 regular", id="euler-regular",
        ),
        pytest.param(
            [(locimage, "bigraded_generating_function", _extra_bidegree)],
            "bigrading", "generating-function n=2 singular", id="generating-function",
        ),
        pytest.param(  # a term past every degree bound: the runs still agree, the series do not
            [(locimage, "image_hilbert_series", _off_at(_SINGULAR_0_PLUS, RatPoly.t(40)))],
            "kunneth-factorization",
            "n=1: singular/plus: Hilbert series disagree; n=2: singular/plus: Hilbert series disagree",
            id="kunneth-series",
        ),
    ],
)
def test_a_planted_fault_fails_its_check_with_its_detail(capsys, monkeypatch, faults, check, detail):
    for module, name, fault in faults:
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
    assert _failed_checks(capsys, 2)[check] == detail


def test_duality_fails_when_dimension_is_3n_again(capsys, monkeypatch):
    # The old rule, 3n and 2 more for a generic class, is short of the degree on (S^2)^(n+1) at n <= 1.
    monkeypatch.setattr(SurfaceTarget, "dimension", property(lambda t: 3 * t.n + 2 * (t.kind is TargetKind.GENERIC)))
    failed = _failed_checks(capsys, 12)
    assert failed == {"poincare-duality-euler": "dimension n=0 minus; dimension n=1 plus"}


def test_a_detail_counts_the_failures_it_leaves_out(capsys, monkeypatch):
    real = surfaces.poincare
    monkeypatch.setattr(surfaces, "poincare", lambda target: real(target) + int(target.kind is TargetKind.GENERIC))
    detail = _failed_checks(capsys, 12)["formality-dimension"]
    assert detail == "n=0 generic; n=1 generic; n=2 generic; n=3 generic; +9 more"


def test_recursion_names_the_broken_step(capsys, monkeypatch):
    real = surfaces.poincare
    broken = SurfaceTarget.singular(3)
    monkeypatch.setattr(surfaces, "poincare", lambda target: real(target) + int(target == broken))
    assert surfaces.recursion_verify(5).failures == ("k=3",)
    assert _failed_checks(capsys, 5)["poincare-recursion"] == "k=3"


@pytest.mark.parametrize("n_max", [3, 12, 20])
def test_verify_runs_the_recursion_to_n_max_and_the_rest_to_12(monkeypatch, n_max):
    calls = {}

    def spy(name):
        def check(n):
            calls[name] = n
            return checks.CheckResult(name, True)

        return check

    names = [name for name in vars(checks) if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(checks, name, spy(name))
    results = checks.run_verify(n_max)
    assert len(results) == len(names) == 11
    assert calls == {name: n_max if name == "check_recursion" else min(n_max, 12) for name in names}


def test_verify_outputs_match_golden(capsys):
    # Request line -> stdout, recorded before verify read its facts from the
    # survival table and ran every check but the recursion to min(n_max, 12).
    golden = json.loads((ROOT / "tests" / "golden" / "verify_outputs.json").read_text())
    for line, expected in golden.items():
        assert run(capsys, *line.split()) == (0, expected), line


def test_verify_output_survives_optimized_mode(tmp_path):
    argv = ["-m", "su2rep.cli", "verify", "--n-max", "4", "--no-cache"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path)}
    plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True)
    optimized = subprocess.run([sys.executable, "-O", *argv], capture_output=True, env=env, check=True)
    assert optimized.stdout == plain.stdout


_EVERY_COMMAND = [
    "betti --n 2 --target plus",
    "bigraded --n 2 --target minus",
    "equivariant --n 2 --target generic",
    "localization-image --n 3 --target minus",
    "localization-image --n 5 --target minus --degree-bound 3",
    "cup-table --n 2 --target plus",
    "orbit --n 2 --target plus",
    "verify --n-max 2",
    "numeric-check --seed 0",
]


def test_no_command_imports_numpy(tmp_path):
    assert {line.split()[0] for line in _EVERY_COMMAND} == set(cli._HANDLERS)
    code = (
        "import sys, su2rep.cli\n"
        "rc = su2rep.cli.main(sys.argv[1:] + ['--no-cache'])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path)}
    for line in _EVERY_COMMAND:
        result = subprocess.run([sys.executable, "-c", code, *line.split()], capture_output=True, env=env, text=True)
        assert result.returncode == 0, (line, result.stderr)
        assert result.stderr.strip() == "False", line


# Runs one request in a fresh process where numpy cannot load.
_NUMPY_BLOCKED = (
    "import sys\n"
    "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
    "import su2rep.cli\n"
    "sys.exit(su2rep.cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("line", _EVERY_COMMAND)
def test_every_command_gives_the_same_bytes_where_numpy_cannot_load(capsys, tmp_path, line, fmt):
    argv = [*line.split(), "--format", fmt]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path / "blocked")}
    blocked = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED, *argv], capture_output=True, env=env, text=True)
    assert (blocked.returncode, blocked.stdout) == run(capsys, *argv), blocked.stderr


def test_quaternions_names_the_extra_where_numpy_cannot_load():
    code = "import sys\nsys.modules['numpy'] = None\nimport su2rep.quaternions\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert result.returncode == 1
    assert "ImportError" in result.stderr and "su2rep[numpy]" in result.stderr


# The modules a request loads beyond those of a bare interpreter; run in a fresh process.
_LOADED_BY = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import su2rep.cli\n"
    "rc = su2rep.cli.main(sys.argv[1:])\n"
    "print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)
_SERIES_UNNEEDED = {"su2rep.locimage", "su2rep.checks", "su2rep.numeric", "numpy", "dataclasses", "hashlib"}


def _loaded_by(cache_dir, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(cache_dir)}
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, *line.split()], capture_output=True, env=env, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout, set(json.loads(result.stderr.splitlines()[-1]))


@pytest.mark.parametrize("command", ["betti", "orbit", "bigraded", "equivariant"])
def test_series_commands_load_only_what_they_compute_with(tmp_path, command):
    _, loaded = _loaded_by(tmp_path, f"{command} --n 2 --target plus --no-cache")
    assert "su2rep.surfaces" in loaded
    assert not loaded & _SERIES_UNNEEDED


def test_cup_table_cache_hit_loads_no_locimage(tmp_path):
    line = "cup-table --n 2 --target plus"
    miss, loaded_on_miss = _loaded_by(tmp_path, line)
    hit, loaded_on_hit = _loaded_by(tmp_path, line)
    assert hit == miss
    assert "su2rep.locimage" in loaded_on_miss
    assert not loaded_on_hit & {"su2rep.locimage", "su2rep.checks", "numpy", "dataclasses"}


@pytest.mark.parametrize(
    "line", ["cup-table --n 2 --target plus", "localization-image --n 2 --target minus --format csv"]
)
def test_enumeration_cache_hit_loads_no_exact_module(tmp_path, line):
    miss, loaded_on_miss = _loaded_by(tmp_path, line)
    hit, loaded_on_hit = _loaded_by(tmp_path, line)
    assert hit == miss
    assert {"su2rep.locimage", "su2rep.exterior", "su2rep.ratpoly"} <= loaded_on_miss
    assert not loaded_on_hit & {"su2rep.locimage", "su2rep.exterior", "su2rep.ratpoly", "numpy", "dataclasses"}


def test_cache_hit_loads_no_computing_module(tmp_path):
    line = "betti --n 2 --target plus"
    miss, loaded_on_miss = _loaded_by(tmp_path, line)
    hit, loaded_on_hit = _loaded_by(tmp_path, line)
    assert hit == miss
    assert "su2rep.surfaces" in loaded_on_miss
    assert not loaded_on_hit & {"su2rep.surfaces", "su2rep.exterior", "su2rep.ratpoly", "su2rep.locimage"}


def test_numeric_check_loads_no_exact_module(tmp_path):
    _, loaded = _loaded_by(tmp_path, "numeric-check --seed 0")
    assert "su2rep.numeric" in loaded
    unneeded = {"su2rep.surfaces", "su2rep.exterior", "su2rep.ratpoly", "su2rep.quaternions", "dataclasses", "numpy"}
    assert not loaded & unneeded


def test_numeric_check_is_byte_identical_in_fresh_processes(tmp_path):
    argv = [sys.executable, "-m", "su2rep.cli", "numeric-check", "--seed", "3"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path)}
    first, second = (subprocess.run(argv, capture_output=True, env=env, check=True).stdout for _ in range(2))
    assert first == second and json.loads(first)["passed"] is True


def test_verify_loads_no_numpy(tmp_path):
    _, loaded = _loaded_by(tmp_path, "verify --n-max 2")
    assert "su2rep.checks" in loaded
    assert not loaded & {"su2rep.numeric", "numpy", "dataclasses"}


def test_numeric_check_exits_zero(capsys):
    code, out = run(capsys, "numeric-check", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {row["check_name"] for row in payload["checks"]} >= {"sqrt_roundtrip", "x1r_chart"}


def test_numeric_check_outputs_match_golden(capsys):
    # Request line -> stdout, recorded before the oracle's Hamilton products,
    # eigenvalue solve and uniform draws each came down to one path.
    golden = json.loads((ROOT / "tests" / "golden" / "numeric_check_outputs.json").read_text())
    for line, expected in golden.items():
        assert run(capsys, *line.split()) == (0, expected), line


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


def test_help_and_usage_errors_match_golden(monkeypatch):
    # argparse wraps its text to COLUMNS; the golden was recorded at 80.
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads((ROOT / "tests" / "golden" / "cli_help.json").read_text())
    for line, expected in golden.items():
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        with pytest.raises(SystemExit) as exc:
            main(line.split())
        assert {"code": exc.value.code, "stderr": err.getvalue(), "stdout": out.getvalue()} == expected, line


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
    assert planted.read_text() == whole_entry(planted, expected)  # the damaged entry is overwritten


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
    planted = json.dumps({"schema": SCHEMA_VERSION, "command": "betti", "n": 1, "target": "plus", "poincare": [7]}) + "\n"
    entry.write_text(whole_entry(entry, planted))
    unrelated = tmp_path / "cache" / "notes.json"
    unrelated.write_text("{}")
    flat_entry = tmp_path / "cache" / f"{'0' * 64}.json"  # named as entries were before the digest prefix
    flat_entry.write_text("{}")
    assert stdout() == planted.encode() != expected  # the same code serves its own entry
    with open(package / "surfaces.py", "a") as handle:
        handle.write("# edited\n")
    assert stdout() == expected
    # The edited code's store evicts the old entry and nothing else.
    [stored] = set((tmp_path / "cache").iterdir()) - {unrelated}
    assert stored.name[:64] != entry.name[:64]
    assert not entry.exists() and not flat_entry.exists() and unrelated.exists()


def test_a_store_sweeps_temp_files_of_killed_misses(capsys, isolated_cache):
    isolated_cache.mkdir()
    old, fresh = isolated_cache / "tmpold.tmp", isolated_cache / "tmpfresh.tmp"
    old.write_text("[1,")
    fresh.write_text("[2,")
    now = time.time()
    os.utime(old, (now - cli._STALE_TEMP_S - 60, now - cli._STALE_TEMP_S - 60))
    os.utime(fresh, (now - cli._STALE_TEMP_S + 60, now - cli._STALE_TEMP_S + 60))  # may be a miss still writing
    assert run(capsys, "betti", "--n", "1", "--target", "plus")[0] == 0
    assert not old.exists() and fresh.exists()
    assert len(list(isolated_cache.glob("*.json"))) == 1


def _cut_mid_row(text):
    return text[: len(text) // 2 + 3]


def _cut_at_row_boundary(text):
    return text[: text.index("\n", len(text) // 2) + 1]


@pytest.mark.parametrize(
    "fmt, cut",
    [("json", _cut_mid_row), ("csv", _cut_mid_row), ("csv", _cut_at_row_boundary)],
    ids=["json-mid-row", "csv-mid-row", "csv-row-boundary"],
)
def test_truncated_cache_entry_is_recomputed(capsys, isolated_cache, fmt, cut):
    argv = ["localization-image", "--n", "3", "--target", "minus", "--format", fmt]
    _, expected = run(capsys, *argv)
    [entry] = isolated_cache.iterdir()
    assert entry.read_text() == whole_entry(entry, expected)
    truncated = cut(expected)
    assert 0 < len(truncated) < len(expected)
    assert truncated.endswith("\n") == (cut is _cut_at_row_boundary)
    entry.write_text(truncated)
    assert run(capsys, *argv) == (0, expected)
    assert entry.read_text() == whole_entry(entry, expected)  # overwritten


def test_entry_of_another_request_is_recomputed(capsys, isolated_cache):
    _, other = run(capsys, "betti", "--n", "2", "--target", "plus")
    [other_entry] = isolated_cache.iterdir()
    argv = ["betti", "--n", "3", "--target", "plus"]
    _, expected = run(capsys, *argv, "--no-cache")
    entry = _entry_path(build_parser().parse_args(argv))
    shutil.copy(other_entry, entry)
    assert run(capsys, *argv) == (0, expected) != (0, other)
    assert entry.read_text() == whole_entry(entry, expected)


def test_each_format_has_its_own_entry(capsys, isolated_cache):
    argv = ["cup-table", "--n", "2", "--target", "minus"]
    misses = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("json", "csv")}
    assert len(list(isolated_cache.iterdir())) == 2
    for fmt, miss in misses.items():
        entry = _entry_path(build_parser().parse_args([*argv, "--format", fmt]))
        assert entry.read_text() == whole_entry(entry, miss[1])
        assert run(capsys, *argv, "--format", fmt) == miss
        assert miss[0] == 0
    assert misses["json"][1] != misses["csv"][1]


def test_cache_key_covers_an_option_added_to_a_command():
    # The key is the parsed request, so an option needs no listing to be part of it.
    parser = build_parser()
    argv = ["betti", "--n", "2", "--target", "plus"]
    parser.parse_args(argv).parser.add_argument("--extra", type=int, default=0)  # the betti subparser
    assert _entry_path(parser.parse_args(argv)) != _entry_path(parser.parse_args([*argv, "--extra", "1"]))


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


@pytest.mark.parametrize("mode", ["no-cache", "miss", "hit"])
def test_closed_stdout_exits_141_quietly(tmp_path, mode):
    # The reader stops after 100 of some 800,000 bytes, as `| head -c 100` does.
    argv = [sys.executable, "-m", "su2rep.cli", "betti", "--n", "1000", "--target", "plus"]
    argv += ["--no-cache"] if mode == "no-cache" else []
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(cache)}
    if mode == "hit":
        subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, check=True)
    stored = {path.name: path.read_bytes() for path in cache.glob("*")}
    with (tmp_path / "stderr").open("wb") as stderr:
        reader = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env)
        head = reader.stdout.read(100)
        reader.stdout.close()
        code = reader.wait(timeout=60)
    assert (code, (tmp_path / "stderr").read_bytes(), len(head)) == (141, b"", 100)
    assert {path.name: path.read_bytes() for path in cache.glob("*")} == stored  # no temp file, no partial entry
    assert len(stored) == (mode == "hit")


def test_sigterm_during_a_miss_leaves_no_temp_file(tmp_path):
    argv = [sys.executable, "-m", "su2rep.cli", "cup-table", "--n", "13", "--target", "plus"]
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(cache)}
    with (tmp_path / "stderr").open("wb") as stderr:
        writer = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env)
        head = writer.stdout.read(100)  # the miss is writing its temp entry
        writer.terminate()
        writer.communicate(timeout=60)  # drain what the exit flushes
    assert (writer.returncode, (tmp_path / "stderr").read_bytes(), len(head)) == (128 + signal.SIGTERM, b"", 100)
    assert list(cache.iterdir()) == []


# -- the streaming writer --------------------------------------------------------------


def reference_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def reference_csv(payload) -> str:
    """CSV rendering as it was before the writer streamed: one path,value row per leaf."""

    def leaves(value, prefix):
        if isinstance(value, dict):
            for key in sorted(value):
                yield from leaves(value[key], f"{prefix}/{key}" if prefix else str(key))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from leaves(item, f"{prefix}/{i}")
        elif isinstance(value, bool):
            yield prefix, "true" if value else "false"
        elif value is None:
            yield prefix, "null"
        elif isinstance(value, str):
            yield prefix, value
        else:
            yield prefix, json.dumps(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["path", "value"])
    writer.writerows(leaves(payload, ""))
    return buffer.getvalue()


def _render(render, payload) -> str:
    buffer = io.StringIO()
    render(payload, [buffer])
    return buffer.getvalue()


_scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=6)
_plain = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _lazy(items) -> LazyList:
    return LazyList(items, tuple(json.dumps(item, sort_keys=True, separators=(",", ":")) for item in items))


# (payload that may hold lazy lists, the same payload with every list materialized); no handler
# puts a lazy list inside a plain list, so only dicts hold them.
_payloads = st.recursive(
    _plain.map(lambda value: (value, value)),
    lambda inner: (
        st.dictionaries(st.text(max_size=4), inner, max_size=4).map(
            lambda d: ({k: p for k, (p, _) in d.items()}, {k: m for k, (_, m) in d.items()})
        )
        | st.lists(_plain, max_size=5).map(lambda items: (_lazy(items), items))
        | st.lists(_plain, max_size=5).map(lambda items: (LazyList(items=items), items))
    ),
    max_leaves=20,
)


@given(_payloads)
def test_writer_matches_json_dumps_and_flat_csv(pair):
    payload, materialized = pair
    for batch in (2, cli._BATCH):  # several chunks per lazy list, and one
        with mock.patch.object(cli, "_BATCH", batch):
            assert _render(cli._render_json, payload) == reference_json(materialized)
            assert _render(cli._render_csv, payload) == reference_csv(materialized)


@pytest.mark.parametrize(
    "argv",
    [["cup-table", "--n", "3", "--target", "plus"], ["localization-image", "--n", "3", "--target", "minus"]],
    ids=["cup-table", "localization-image"],
)
def test_writer_encodes_no_value_that_holds_a_lazy_list(capsys, monkeypatch, argv):
    # A failed encode is wasted work: the value is then encoded again, piece by piece.
    real, failed = cli._encode, []

    def encode(value):
        try:
            return real(value)
        except TypeError:
            failed.append(value)
            raise

    monkeypatch.setattr(cli, "_encode", encode)
    code, out = run(capsys, *argv, "--no-cache")
    assert code == 0 and json.loads(out)
    assert failed == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_does_not_depend_on_the_int_to_str_limit(tmp_path, fmt):
    # C(2200, 1100) has 661 digits, past the least limit Python accepts (640).
    argv = [sys.executable, "-m", "su2rep.cli", "betti", "--n", "2200", "--target", "plus", "--no-cache"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path)}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    unset = subprocess.run([*argv, "--format", fmt], capture_output=True, env=env)
    limited = subprocess.run(
        [*argv, "--format", fmt], capture_output=True, env={**env, "PYTHONINTMAXSTRDIGITS": "640"}
    )
    assert (limited.returncode, limited.stderr) == (unset.returncode, unset.stderr) == (0, b"")
    assert limited.stdout == unset.stdout
    assert max(len(v) for v in re.findall(rb"\d+", limited.stdout)) > 640


def test_csv_rows_that_need_quoting_match_csv_writer():
    texts = ["a,b", 'say "x"', "line\nbreak", "cr\rhere", "", " pad ", ",", '"']
    payload = {
        "keys": {text: text for text in texts},
        "list": texts + [10**40, -3, True, None, 1.5],
        "lazy": _lazy([{"k,ey": text} for text in texts]),
    }
    materialized = {**payload, "lazy": [{"k,ey": text} for text in texts]}
    assert _render(cli._render_csv, payload) == reference_csv(materialized)


def _uneven_runs(n, bound):
    return ((mask, range(mask % 3, mask % 3 + (mask * bound) % 7)) for mask in range(1 << n))


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("sector", list(Sector))
def test_localization_rows_match_json_dumps(variant, sector):
    for n in range(6):
        spec = locimage.ImageSpec(n, variant, sector)
        for bound in (0, 3, 2 * n + 6, 60):
            # An image's runs, and runs that, unlike an image's, differ between masks of one size.
            for runs in (lambda: locimage.iter_image_runs(spec, bound), lambda: _uneven_runs(n, bound)):
                expected = ",".join(
                    json.dumps(
                        {
                            "subset": [i + 1 for i in range(n) if mask >> i & 1],
                            "c1_power": l,
                            "degree": mask.bit_count() + 2 * l,
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    for mask, powers in runs()
                    for l in powers
                )
                for batch in (2, cli._BATCH):  # runs cut into slices and texts, and whole
                    with mock.patch.object(cli, "_BATCH", batch):
                        texts = list(cli._image_basis(runs(), n).texts)
                    assert all(texts)
                    assert ",".join(texts) == expected


@pytest.mark.parametrize("variant", list(Variant))
def test_ordinary_basis_rows_match_json_dumps(variant):
    for n in range(7):
        specs = [locimage.ImageSpec(n, variant, sector) for sector in (Sector.PLUS, Sector.MINUS)]
        expected = locimage.cup_table(n, variant)["basis"]
        for batch in (2, cli._BATCH):
            with mock.patch.object(cli, "_BATCH", batch):
                texts = list(cli._ordinary_basis(specs, n).texts)
            assert all(texts)
            assert ",".join(texts) == reference_json(expected)[1:-2]


def _lists_with_texts():
    """(name, a function that makes a fresh LazyList) for every kind of list that has texts beside its items."""
    for n in range(7):
        for variant in Variant:
            specs = [locimage.ImageSpec(n, variant, sector) for sector in (Sector.PLUS, Sector.MINUS)]
            yield f"cup-table basis n={n} {variant.value}", lambda n=n, specs=specs: cli._ordinary_basis(specs, n)
            yield f"cup-table entries n={n} {variant.value}", lambda n=n, variant=variant: cli._cup_entries(
                locimage.iter_cup_entries(n, variant)
            )
            if n > 5:  # image bases up to n = 5
                continue
            for spec in specs:
                for bound in (0, 3, 2 * n + 6, 60):
                    name = f"n={n} {variant.value}/{spec.sector.value} bound={bound}"
                    yield f"image basis {name}", lambda n=n, spec=spec, bound=bound: cli._image_basis(
                        locimage.iter_image_runs(spec, bound), n
                    )
                    yield f"uneven runs {name}", lambda n=n, bound=bound: cli._image_basis(_uneven_runs(n, bound), n)


def test_texts_of_a_lazy_list_are_the_json_of_its_items():
    # JSON reads texts and CSV reads items: the two formats must carry the same list.
    for name, make in _lists_with_texts():
        for batch in (2, cli._BATCH):
            with mock.patch.object(cli, "_BATCH", batch):
                texts = list(make().texts)
                items = list(make().items)
            assert all(texts), name
            assert ",".join(texts) == cli._encode(items)[1:-1], name


_STREAMED_LINES = [
    "betti --n 40 --target plus",
    "bigraded --n 20 --target minus",
    "equivariant --n 30 --target generic",
    "orbit --n 30 --target plus",
    "cup-table --n 3 --target plus",
    "localization-image --n 3 --target minus",
    "localization-image --n 2 --target plus --degree-bound 3000",
]


def test_csv_of_a_streamed_series_parses_no_json(capsys, monkeypatch):
    # CSV takes the items of a series or an enumeration as they are; parsing
    # JSON texts back would turn each value into text three times.
    expected = {
        line: reference_csv(json.loads(run(capsys, *line.split(), "--no-cache")[1])) for line in _STREAMED_LINES
    }

    def parse(*args, **kwargs):
        raise AssertionError("a streamed list was parsed back")

    monkeypatch.setattr(cli.json, "loads", parse)
    for line, csv_out in expected.items():
        assert run(capsys, *line.split(), "--format", "csv", "--no-cache") == (0, csv_out), line


@pytest.mark.parametrize("line", _EVERY_COMMAND)
def test_output_is_the_same_without_cache_on_miss_and_on_hit(capsys, isolated_cache, line):
    argv = line.split()
    outputs = {}
    for fmt in ("json", "csv"):
        shutil.rmtree(isolated_cache, ignore_errors=True)
        no_cache = run(capsys, *argv, "--format", fmt, "--no-cache")
        miss = run(capsys, *argv, "--format", fmt)
        hit = run(capsys, *argv, "--format", fmt)
        assert no_cache == miss == hit
        assert no_cache[0] == 0
        outputs[fmt] = no_cache[1]
        if argv[0] not in ("verify", "numeric-check"):
            [entry] = isolated_cache.iterdir()
            assert entry.read_text() == whole_entry(entry, outputs[fmt])  # the entry is this format's stdout
    assert outputs["csv"] == reference_csv(json.loads(outputs["json"]))


class ByteCounter:
    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)


@pytest.mark.parametrize(
    "line",
    [
        "localization-image --n 12 --target plus --no-cache",
        "localization-image --n 2 --target minus --degree-bound 20000 --no-cache",
    ],
)
def test_localization_image_memory_does_not_grow_with_output(monkeypatch, line):
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(line.split())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.count > 1_000_000
    assert peak < 4 * 2**20, f"peak {peak} bytes for {sink.count} bytes of output"


def test_cup_table_memory_does_not_grow_with_output(monkeypatch):
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["cup-table", "--n", "11", "--target", "plus", "--no-cache"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.count > 3_000_000
    assert peak < 8 * 2**20, f"peak {peak} bytes for {sink.count} bytes of output"


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)


# Request line -> sha256 and byte count of its stdout, recorded before the
# enumerations rendered runs of rows and the cup table walked only surviving pairs.
_ENUMERATION_DIGESTS = json.loads((ROOT / "tests" / "golden" / "enumeration_digests.json").read_text())


# The same for the series commands at sizes that no other golden reaches,
# recorded before their coefficient and triple lists were streamed.
_SERIES_DIGESTS = json.loads((ROOT / "tests" / "golden" / "series_digests.json").read_text())


def _assert_digest(monkeypatch, line, expected):
    sink = Digest()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main([*line.split(), "--no-cache"]) == 0
    assert (sink.sha.hexdigest(), sink.size) == (expected["sha256"], expected["bytes"])


@pytest.mark.parametrize("line", sorted(_ENUMERATION_DIGESTS))
def test_enumeration_outputs_match_digests(monkeypatch, line):
    _assert_digest(monkeypatch, line, _ENUMERATION_DIGESTS[line])


@pytest.mark.parametrize("line", sorted(_SERIES_DIGESTS))
def test_series_outputs_match_digests(monkeypatch, line):
    _assert_digest(monkeypatch, line, _SERIES_DIGESTS[line])


@pytest.mark.parametrize("render", [cli._render_json, cli._render_csv], ids=["json", "csv"])
@pytest.mark.parametrize("line", ["betti --n 3000 --target plus", "equivariant --n 800 --target generic"])
def test_series_render_memory_does_not_grow_with_output(monkeypatch, line, render):
    ns = build_parser().parse_args(line.split())
    payload = cli._HANDLERS[ns.command](ns)
    sink = ByteCounter()
    monkeypatch.setattr(cli, "_BATCH", 64)
    tracemalloc.start()
    try:
        render(payload, [sink])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.count > 1_000_000
    assert peak < 2**20, f"peak {peak} bytes for {sink.count} bytes of output"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_betti_holds_the_sectors_and_no_sum(monkeypatch, fmt):
    # The two sectors of n = 3000 take about 1.9 MB; a sum held beside them took 5.0 MB in all.
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(cli, "_BATCH", 64)
    surfaces.poincare_sectors.cache_clear()
    tracemalloc.start()
    try:
        code = main(["betti", "--n", "3000", "--target", "plus", "--no-cache", "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.count > 7_000_000
    assert peak < 3 * 2**20, f"peak {peak} bytes"


def test_betti_builds_its_sectors_once(capsys):
    # The handler and euler_characteristic share one entry of poincare_sectors.
    surfaces.poincare_sectors.cache_clear()
    assert run(capsys, "betti", "--n", "5", "--target", "plus", "--no-cache")[0] == 0
    assert surfaces.poincare_sectors.cache_info()[:2] == (1, 1)


def test_localization_image_cache_hit_memory_does_not_grow_with_output(monkeypatch):
    argv = ["localization-image", "--n", "12", "--target", "plus"]
    miss = Digest()
    monkeypatch.setattr(sys, "stdout", miss)
    assert main(argv) == 0
    hit = Digest()
    monkeypatch.setattr(sys, "stdout", hit)
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert hit.sha.digest() == miss.sha.digest()
    assert peak < 4 * 2**20, f"peak {peak} bytes"


@pytest.mark.parametrize(
    "argv",
    [
        ["localization-image", "--n", "2", "--target", "generic"],
        ["localization-image", "--n", str(ENUMERATION_CAP + 1), "--target", "plus"],
        ["localization-image", "--n", "2", "--target", "plus", "--degree-bound", "-1"],
    ],
    ids=["usage", "cap", "bound"],
)
def test_refused_request_writes_nothing(capsys, isolated_cache, argv):
    assert run(capsys, *argv) == (2, "")
    assert not isolated_cache.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_consistency_failure_writes_nothing(capsys, isolated_cache, monkeypatch, fmt):
    def broken(*args, **kwargs):
        raise ConsistencyError("injected fault")

    monkeypatch.setattr(locimage, "image_hilbert_series", broken)
    assert run(capsys, "localization-image", "--n", "3", "--target", "plus", "--format", fmt) == (1, "")
    assert not isolated_cache.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_escaping_cup_product_writes_nothing(capsys, isolated_cache, monkeypatch, fmt):
    # With a zero minus-sector rule, minus x minus lands below the plus rule.
    def escaping(n, variant, sector):
        return tuple(k if sector is Sector.PLUS else 0 for k in range(n + 1))

    monkeypatch.setattr(locimage, "_min_c1_powers", escaping)
    assert run(capsys, "cup-table", "--n", "3", "--target", "plus", "--format", fmt) == (1, "")
    assert not isolated_cache.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "command, attr",
    [
        ("betti", "has_two_torsion"),
        ("bigraded", "specialize_total_degree"),
        ("equivariant", "pair_poincare"),
        ("orbit", "pair_poincare"),
    ],
)
def test_streamed_series_failure_writes_nothing(capsys, isolated_cache, monkeypatch, command, attr, fmt):
    # The handler fails after it has made the lazy lists of its other series.
    def broken(*args, **kwargs):
        raise ConsistencyError("injected fault")

    monkeypatch.setattr(surfaces, attr, broken)
    assert run(capsys, command, "--n", "3", "--target", "plus", "--format", fmt) == (1, "")
    assert not isolated_cache.exists()


def test_orbit_series_that_is_no_polynomial_writes_nothing(capsys, isolated_cache, monkeypatch):
    not_polynomial = RatFn(RatPoly.one(), RatPoly.one() - RatPoly.t(2))
    monkeypatch.setattr(surfaces, "orbit_poincare_direct", lambda target: not_polynomial)
    monkeypatch.setattr(surfaces, "orbit_poincare_assembled", lambda target: not_polynomial)
    assert run(capsys, "orbit", "--n", "2", "--target", "plus") == (1, "")
    assert not isolated_cache.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_cache_store_after_the_stream_leaves_no_temp_file(capsys, isolated_cache, monkeypatch, fmt):
    argv = ["localization-image", "--n", "6", "--target", "minus", "--format", fmt]
    _, expected = run(capsys, *argv, "--no-cache")

    def failing_replace(*args, **kwargs):
        raise OSError("injected fault")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert run(capsys, *argv) == (0, expected)
    assert list(isolated_cache.iterdir()) == []


def test_failed_cache_write_mid_stream_keeps_the_output(capsys, isolated_cache, monkeypatch):
    argv = ["localization-image", "--n", "6", "--target", "minus"]
    _, expected = run(capsys, *argv, "--no-cache")
    real_fdopen = os.fdopen

    class FullDisk(io.TextIOWrapper):
        written = 0

        def write(self, text):
            if self.written:  # the first chunk fits, the next one does not
                raise OSError("no space left on device")
            self.written = super().write(text)
            return self.written

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(real_fdopen(fd, "wb")))
    assert run(capsys, *argv) == (0, expected)
    assert list(isolated_cache.iterdir()) == []


def test_interrupted_stream_leaves_no_cache_file(capsys, isolated_cache, monkeypatch):
    def failing_rows(runs, n, row):
        yield from islice(real_rows(runs, n, row), 10)
        raise KeyboardInterrupt

    real_rows = cli._basis_rows
    monkeypatch.setattr(cli, "_basis_rows", failing_rows)
    with pytest.raises(KeyboardInterrupt):
        main(["localization-image", "--n", "3", "--target", "plus"])
    assert list(isolated_cache.iterdir()) == []
