"""Closed-loop benchmark of the su2rep command line.

Usage, from the repository root:

    python3 bench/run.py --workload cli-small --seed 1 --seconds 55 --trace 0

One client issues CLI requests as subprocesses (``python -m su2rep.cli`` with
``PYTHONPATH=src``) and sends the next request only after the previous one
has exited.  A round is one pass over the workload's request list, in an
order fixed by ``--seed``; a run measures whole rounds until ``--seconds``
have passed and the workload's minimum request count is reached.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
declared in ``BENCHMARK.json``.  With ``--trace 1`` every round issues each
request twice, once plain and once through ``bench/traced.py``, which times
calls into each module; the last line then carries the per-layer metrics.
Each per-layer value is one round's total (median over rounds), so counts
repeat exactly between runs of the same code.

Every response passes a correctness gate (``Gate``).  A failed request is
counted, never fatal, and the run still prints its metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = BENCH_DIR / ".work"

# Every payload of this output contract carries this schema.  A schema bump
# changes every digest too, so the benchmark is updated together with it.
SCHEMA = 1
SETUP_REPEATS = 5
WARMUP_ARGV = ("betti", "--n", "1", "--target", "plus")


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    cached: bool = False  # issued twice in a row: a miss that stores, then a hit
    golden: str | None = None  # file under tests/golden holding its cup table


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    tail_percentile: float  # fixed, so the tail means the same on every commit

    @property
    def min_requests(self) -> int:
        # At least ten samples lie beyond the tail percentile.
        return math.ceil(10 / (1 - self.tail_percentile / 100) - 1e-9)


def _r(line: str, **kw) -> Request:
    return Request(tuple(line.split()), **kw)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-small",
            (
                _r("betti --n 1 --target minus", cached=True),
                _r("bigraded --n 2 --target plus", cached=True),
                _r("equivariant --n 3 --target generic", cached=True),
                _r("localization-image --n 2 --target plus --degree-bound 10", cached=True),
                _r("cup-table --n 2 --target plus", cached=True, golden="cup_table_n2_regular.json"),
                _r("orbit --n 1 --target minus --format csv", cached=True),
                _r("cup-table --n 2 --target minus --no-cache", golden="cup_table_n2_singular.json"),
                _r("verify --n-max 4 --no-cache"),
                _r("numeric-check --no-cache"),
            ),
            # 15 requests a round: p90 falls mid-way into numeric-check, the
            # second slowest request, not on the edge of a cluster.
            tail_percentile=90,
        ),
        # The closed-form series and the mask enumerations share one workload:
        # as two, each run was too short to be steady on a shared 2-core
        # machine whose speed drifts by +-20% over tens of seconds.
        Workload(
            "compute",
            (
                # closed forms at large n: Fraction arithmetic, RatFn gcd/divmod, pow
                _r("betti --n 300 --target plus --no-cache"),
                _r("orbit --n 30 --target minus --no-cache"),
                _r("orbit --n 31 --target plus --no-cache"),
                _r("equivariant --n 40 --target generic --no-cache"),
                _r("equivariant --n 40 --target plus --no-cache"),
                _r("bigraded --n 40 --target plus --no-cache"),
                _r("bigraded --n 40 --target minus --no-cache"),
                _r("verify --n-max 8 --no-cache"),
                _r("verify --n-max 10 --no-cache"),
                # mask enumerations with MB-sized renders
                _r("cup-table --n 8 --target plus --no-cache"),
                _r("cup-table --n 8 --target minus --no-cache --format csv"),
                _r("cup-table --n 9 --target plus --no-cache"),
                _r("cup-table --n 9 --target minus --no-cache"),
                _r("localization-image --n 12 --target plus --no-cache"),
                _r("localization-image --n 13 --target minus --no-cache"),
                _r("localization-image --n 14 --target plus --no-cache"),
                _r("localization-image --n 2 --target minus --degree-bound 20000 --no-cache"),
            ),
            tail_percentile=80,
        ),
    )
}


# -- one request -----------------------------------------------------------


@dataclass
class Response:
    argv: tuple[str, ...]
    phase: str  # "miss", "hit" or "nocache"
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    digest: str
    size: int
    out_path: Path
    stderr_head: str


class Runner:
    """Spawns one CLI request at a time and reaps it with ``os.wait4``.

    ``wait4`` gives the CPU time and max RSS of that child alone; the
    ``RUSAGE_CHILDREN`` totals would mix in every earlier child.  Output goes
    to files, not pipes, so this process never holds a large response in
    memory: a child's max RSS also counts this process's own high-water mark.
    """

    def __init__(self, run_dir: Path, program: list[str], traced_program: list[str]):
        self.run_dir = run_dir
        self.program = program
        self.traced_program = traced_program
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def issue(self, argv, cache_dir: Path, phase: str, traced: bool = False) -> tuple[Response, Path | None]:
        self.count += 1
        out_path = self.run_dir / f"out-{self.count}"
        err_path = self.run_dir / "stderr"
        spans_path = self.run_dir / f"spans-{self.count}.jsonl" if traced else None
        prefix = self.traced_program + [str(spans_path)] if traced else self.program
        args = prefix + list(argv)
        env = dict(self.env, SU2REP_CACHE_DIR=str(cache_dir))
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(args[0], args, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        digest, size = _sha256(out_path)
        with open(err_path, errors="replace") as handle:
            stderr_head = handle.read(300)
        response = Response(
            tuple(argv),
            phase,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            os.waitstatus_to_exitcode(status),
            digest,
            size,
            out_path,
            stderr_head,
        )
        return response, spans_path


def _sha256(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


# -- correctness gate ------------------------------------------------------


class Gate:
    """Counts failed requests without stopping the run.

    A request fails when it exits non-zero, when its bytes differ from the
    first occurrence of the same argv, or when a cache hit differs from the
    miss before it.  The first response of each argv is kept and parsed after
    the timed loop (parsing a large response inside it would raise the
    benchmark's RSS, which every later child inherits in its max RSS); if it is
    not a valid payload, every request that matched it fails too.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first: dict[tuple, Response] = {}
        self.matched: dict[tuple, int] = defaultdict(int)
        self.golden: dict[tuple, str] = {}

    def fail(self, response: Response, reason: str):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{' '.join(response.argv)} [{response.phase}]: {reason}")

    def check(self, response: Response, miss: Response | None = None, golden: str | None = None) -> bool:
        """Gate one response; returns whether its output file must be kept."""
        self.attempted += 1
        key = response.argv
        if response.exit_code != 0:
            self.fail(response, f"exit code {response.exit_code}: {response.stderr_head.strip()[:200]}")
            return False
        if miss is not None and (miss.digest, miss.size) != (response.digest, response.size):
            self.fail(response, "cache hit differs from its miss")
            return False
        reference = self.first.get(key)
        if reference is None:
            self.first[key] = response
            self.matched[key] += 1
            if golden:
                self.golden[key] = golden
            return True
        if reference.digest != response.digest:
            self.fail(response, f"sha256 {response.digest[:12]} differs from first {reference.digest[:12]}")
            return False
        self.matched[key] += 1
        return False

    def validate_kept(self):
        for key, response in self.first.items():
            problem = _payload_problem(response, self.golden.get(key))
            if problem:
                for _ in range(self.matched[key]):
                    self.fail(response, problem)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _payload_problem(response: Response, golden: str | None) -> str | None:
    command = response.argv[0]
    text = response.out_path.read_text()
    if "--format" in response.argv and "csv" in response.argv:
        rows = list(csv.reader(text.splitlines()))
        if not rows or rows[0] != ["path", "value"]:
            return "csv output lacks its path,value header"
        fields = {row[0]: row[1] for row in rows[1:] if len(row) == 2}
        if fields.get("command") != command or fields.get("schema") != str(SCHEMA):
            return "csv output lacks the right command and schema"
        payload = None
    else:
        try:
            payload = json.loads(text)
        except ValueError:
            return "stdout is not JSON"
        if not isinstance(payload, dict) or payload.get("command") != command or payload.get("schema") != SCHEMA:
            return "JSON lacks the right command and schema"
    if command in ("verify", "numeric-check") and (payload is None or payload.get("passed") is not True):
        return "passed is not true"
    if golden is not None:
        expected = json.loads((GOLDEN / golden).read_text())
        actual = {key: payload.get(key) for key in ("basis", "n", "table")} | {"target": payload.get("variety")}
        if actual != expected:
            return f"cup table differs from {golden}"
    return None


# -- the timed loop --------------------------------------------------------


@dataclass
class Round:
    wall_s: float = 0.0
    responses: list = field(default_factory=list)
    layers: dict = field(default_factory=lambda: defaultdict(float))


def run_round(runner: Runner, gate: Gate, order, seed: int, cache_dir: Path, traced: bool) -> Round:
    cache_dir.mkdir()
    result = Round()
    start = time.perf_counter()
    for request in order:
        argv = request.argv
        if argv[0] == "numeric-check":  # the workload seed also seeds the oracle's samples
            argv += ("--seed", str(seed))
        phases = ("miss", "hit") if request.cached else ("nocache",)
        miss = None
        for phase in phases:
            response, spans_path = runner.issue(argv, cache_dir, phase, traced)
            failed_before = gate.failed
            if not gate.check(response, miss if phase == "hit" else None, request.golden):
                response.out_path.unlink()
            result.responses.append(response)
            if spans_path is not None and spans_path.exists():
                _add_layers(result.layers, spans_path, response)
            elif spans_path is not None and gate.failed == failed_before:
                gate.fail(response, "traced run wrote no spans")
            miss = response
    result.wall_s = time.perf_counter() - start
    shutil.rmtree(cache_dir, ignore_errors=True)
    return result


def setup_once(runner: Runner, run_dir: Path, index: int) -> float:
    """Fresh cache dir plus one untimed warm-up request; returns seconds."""
    start = time.perf_counter()
    cache_dir = run_dir / f"setup-cache-{index}"
    cache_dir.mkdir()
    response, _ = runner.issue(WARMUP_ARGV, cache_dir, "miss")
    elapsed = time.perf_counter() - start
    response.out_path.unlink()
    shutil.rmtree(cache_dir, ignore_errors=True)
    if response.exit_code != 0:
        raise RuntimeError(f"warm-up request failed: {response.stderr_head.strip()}")
    return elapsed


def measure(runner: Runner, gate: Gate, workload: Workload, seed: int, seconds: float, trace: bool) -> list:
    """Runs whole rounds; returns one (plain, traced-or-None) pair per round."""
    rng = random.Random(seed)
    rounds = []
    start = time.perf_counter()
    plain_requests = 0
    # The tail needs its sample count only when end-to-end metrics are reported.
    needed = 0 if trace else workload.min_requests
    while True:
        order = list(workload.requests)
        rng.shuffle(order)
        index = len(rounds)
        # Alternate which pass runs first so neither always sees a warmer page cache.
        passes = [False, True] if index % 2 == 0 else [True, False]
        done = {}
        for traced in passes if trace else [False]:
            cache_dir = runner.run_dir / f"cache-{index}-{int(traced)}"
            done[traced] = run_round(runner, gate, order, seed, cache_dir, traced)
        rounds.append((done[False], done.get(True)))
        plain_requests += len(done[False].responses)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if plain_requests >= needed and elapsed + per_round > seconds:
            return rounds


# -- traced spans ----------------------------------------------------------


def _add_layers(layers: dict, spans_path: Path, response: Response):
    with open(spans_path) as handle:
        for line in handle:
            record = json.loads(line)
            if "span" in record:
                layers[record["metric"]] += record["end"] - record["start"]
            else:
                for name, value in record["metrics"].items():
                    layers[name] += value
    spans_path.unlink()
    layers["cli.output_bytes"] += response.size
    layers["trace.requests"] += 1


def per_layer_metrics(rounds, names) -> dict:
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            traced = sum(t.wall_s for _, t in rounds)
            plain = sum(p.wall_s for p, _ in rounds)
            values[name] = traced / plain
        elif name == "locimage.cup_useful_ratio":
            entries = sum(t.layers["locimage.cup_entries"] for _, t in rounds)
            calls = sum(t.layers["locimage.cup_product_calls"] for _, t in rounds)
            values[name] = entries / calls if calls else 0.0
        elif name == "cli.numpy_imported":
            values[name] = statistics.fmean(t.layers[name] / t.layers["trace.requests"] for _, t in rounds)
        elif name != "failed_ratio":
            values[name] = statistics.median(t.layers[name] for _, t in rounds)
    return values


# -- metrics ---------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: a measured sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end_metrics(rounds, setups, workload: Workload) -> dict:
    plain = [r for p, _ in rounds for r in p.responses]
    walls = [r.wall_s for r in plain]
    # Throughput and CPU are medians over rounds, so one round slowed by a
    # neighbour on the machine does not move them.
    return {
        "requests_per_s": statistics.median(len(p.responses) / p.wall_s for p, _ in rounds),
        "request_p50_s": statistics.median(walls),
        "request_tail_s": percentile(walls, workload.tail_percentile),
        "cpu_s_per_request": statistics.median(statistics.fmean(r.cpu_s for r in p.responses) for p, _ in rounds),
        "peak_rss_mb": max(r.maxrss_mb for r in plain),
        "setup_s": statistics.median(setups),
    }


def info_fields(workload: Workload, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload.name,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def load_declared() -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m for m in declared["end_to_end"]},
        "per_layer": {m["name"]: m for m in declared["per_layer"]},
    }


def _print_table(rounds, gate: Gate):
    by_argv = defaultdict(list)
    for plain, _ in rounds:
        for r in plain.responses:
            by_argv[(r.argv, r.phase)].append(r.wall_s)
    for (argv, phase), walls in sorted(by_argv.items()):
        print(f"request {statistics.median(walls):8.4f}s x{len(walls):<3d} {phase:7s} {' '.join(argv)}")
    for argv, first in sorted(gate.first.items()):
        print(f"digest {first.digest} {first.size:>9d} {' '.join(argv)}")


# -- entry point -----------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float, trace: bool, program=None, traced_program=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    declared = load_declared()
    python = sys.executable
    program = program or [python, "-m", "su2rep.cli"]
    traced_program = traced_program or [python, str(BENCH_DIR / "traced.py")]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        runner = Runner(run_dir, program, traced_program)
        setups = [setup_once(runner, run_dir, i) for i in range(SETUP_REPEATS)]
        gate = Gate()
        rounds = measure(runner, gate, workload, seed, seconds, trace)
        gate.validate_kept()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    info = info_fields(workload, seed)
    info.update(rounds=len(rounds), requests=sum(len(p.responses) for p, _ in rounds))
    print("info " + json.dumps(info, sort_keys=True))
    _print_table(rounds, gate)
    for reason in gate.reasons:
        print("failure " + reason)
    print(f"failed_ratio {gate.failed_ratio:.6f} ({gate.failed} failed of {gate.attempted} attempted)")

    if trace:
        spec = declared["per_layer"]
        values = per_layer_metrics(rounds, spec)
        values["failed_ratio"] = gate.failed_ratio
    else:
        spec = declared["end_to_end"]
        values = end_to_end_metrics(rounds, setups, workload)
        walls = [r.wall_s for p, _ in rounds for r in p.responses]
        beyond = len(walls) - math.ceil(workload.tail_percentile / 100 * len(walls))
        print(f"tail request_tail_s is p{workload.tail_percentile:g} of {len(walls)} requests, {beyond} beyond it")
    if set(values) != set(spec):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(spec))} disagree with BENCHMARK.json")
    for name, value in values.items():
        bound = spec[name].get("bound")
        suffix = f" bound={bound}" if bound is not None else ""
        print(f"metric {name} {value:.6g} {spec[name]['unit']}{suffix}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": spec[name]["unit"]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "su2rep" / "cli.py", GOLDEN, ROOT / "BENCHMARK.json") if not p.exists()]
    if missing:
        print(f"bench: not a su2rep checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
