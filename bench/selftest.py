"""Self-test of the benchmark's correctness gate and report, at a tiny size.

Usage, from the repository root:

    python3 bench/selftest.py

Runs a five-request workload against the real CLI and against a faulty
stand-in for it (this file, started as ``selftest.py --faulty MODE ARG...``),
and checks that

* a clean run fails nothing and prints every metric that ``BENCHMARK.json``
  declares, with its unit, in both trace modes;
* a corrupted response, a non-zero exit, a cache hit that differs from its
  miss, a verify reporting ``passed: false`` and a response that changes
  between rounds each count in ``failed_ratio``;
* ``run.py`` exits non-zero without a result outside a su2rep checkout.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

# Each fault, with the failure reasons the gate must report for it.
FAULTS = {
    "corrupt": ("stdout is not JSON", "cup table differs from cup_table_n2_regular.json"),
    "exit": ("exit code 3",),
    "hit-differs": ("cache hit differs from its miss",),
    "passed-false": ("passed is not true",),
    "drift": ("differs from first",),
}

TINY = run.Workload(
    "selftest",
    (
        run._r("betti --n 1 --target minus", cached=True),
        run._r("cup-table --n 2 --target plus", cached=True, golden="cup_table_n2_regular.json"),
        run._r("verify --n-max 1 --no-cache"),
    ),
    tail_percentile=50,
)


def faulty_cli(mode: str, argv: list[str]) -> int:
    """The real CLI with one fault injected into its response."""
    import su2rep.cli

    cache_dir = Path(os.environ["SU2REP_CACHE_DIR"])
    is_hit = cache_dir.is_dir() and any(cache_dir.glob("*.json"))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = su2rep.cli.main(argv)
    out = buffer.getvalue()
    command = argv[0]
    if mode == "corrupt" and command == "cup-table":
        out = out.replace('"table":[[', '"table":[[9', 1)
    elif mode == "corrupt" and command == "betti":
        out = out[:-2] + "\n"
    elif mode == "exit" and command == "cup-table":
        return 3
    elif mode == "hit-differs" and is_hit:
        out = out.replace("}", " }", 1)
    elif mode == "passed-false" and command == "verify":
        out = out.replace('"passed":true', '"passed":false')
    elif mode == "drift" and command == "verify":
        out = out.replace('"n_max":1', f'"n_max":1,"pid":{os.getpid()}')
    sys.stdout.write(out)
    return code


def run_quietly(workload, trace: bool, program=None) -> tuple[dict, str]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run(workload, seed=7, seconds=0, trace=trace, program=program)
    return result, printed.getvalue()


def check_report(result: dict, printed: str, kind: str) -> list[str]:
    problems = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]
    lines = {line.split()[1]: line.split() for line in printed.splitlines() if line.startswith("metric ")}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in lines or lines[name][3] != unit:
            problems.append(f"{kind}: {name} not printed with unit {unit}")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{kind}: {name} missing from the result line")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{kind}: result metrics differ from BENCHMARK.json")
    if "failed_ratio " not in printed:
        problems.append("failed_ratio line with its base not printed")
    return problems


def check_bare_checkout() -> list[str]:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py printed a result outside a su2rep checkout"]
    return []


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--faulty":
        return faulty_cli(sys.argv[2], sys.argv[3:])
    problems = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, printed = run_quietly(TINY, trace)
        if result["failed"] or not result["correct"]:
            problems.append(f"clean run (trace {int(trace)}) failed {result['failed']}: {printed[-2000:]}")
        problems += check_report(result, printed, kind)
    for mode, reasons in FAULTS.items():
        program = [sys.executable, str(Path(__file__).resolve()), "--faulty", mode]
        result, printed = run_quietly(TINY, False, program)
        failed_ratio = result["failed"] / result["attempted"]
        print(f"fault {mode:13s} failed {result['failed']:2d} of {result['attempted']} (failed_ratio {failed_ratio:.3f})")
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"fault {mode} was not caught")
        problems += [f"fault {mode} not reported as {r!r}" for r in reasons if r not in printed]
    problems += check_bare_checkout()
    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
