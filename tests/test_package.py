import json
import os
import subprocess
import sys
from pathlib import Path

import su2rep

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    for name in su2rep.__all__:
        assert getattr(su2rep, name) is not None, name


def test_traced_harness_wraps_live_names(tmp_path):
    # bench/traced.py wraps library functions by name; a deleted name breaks it.
    argv = ["betti", "--n", "1", "--target", "plus", "--no-cache"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SU2REP_CACHE_DIR": str(tmp_path / "cache")}
    spans = tmp_path / "spans.jsonl"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(spans), *argv],
        capture_output=True,
        env=env,
        cwd=ROOT,
    )
    assert traced.returncode == 0, traced.stderr.decode()
    plain = subprocess.run(
        [sys.executable, "-m", "su2rep.cli", *argv], capture_output=True, env=env, cwd=ROOT, check=True
    )
    assert traced.stdout == plain.stdout
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert "metrics" in lines[-1]
