import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_namespace_is_lazy():
    # In a fresh process: the package names no submodule, so importing it loads none.
    code = "import sys, su2rep\nprint(sorted(m for m in sys.modules if m.startswith('su2rep.')))\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, check=True)
    assert result.stdout == "[]\n"


def test_the_exact_layer_loads_no_output_format():
    # checks loads every exact module; only cli turns values into text.
    code = (
        "import sys, su2rep.checks\n"
        "print(sorted(m for m in sys.modules if m.startswith('su2rep.')))\n"
        "print('json' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, check=True)
    loaded = [f"su2rep.{name}" for name in ("checks", "exterior", "locimage", "ratpoly", "surfaces", "targets")]
    assert result.stdout.split("\n") == [str(loaded), "False", ""]


def _numpy_random_references(source: str) -> list[int]:
    """Lines of source that import numpy.random or read .random off a name bound to numpy."""
    tree, lines, numpy_names = ast.parse(source), [], {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {alias.asname for alias in node.names if alias.name == "numpy" and alias.asname}
            if any(alias.name.split(".")[:2] == ["numpy", "random"] for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")
            if module[:2] == ["numpy", "random"] or module == ["numpy"] and "random" in {a.name for a in node.names}:
                lines.append(node.lineno)
    for node in ast.walk(tree):  # a second walk, once every alias of numpy is known
        if isinstance(node, ast.Attribute) and node.attr == "random" and getattr(node.value, "id", None) in numpy_names:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source",
    [
        "import numpy.random",
        "import numpy.random.bit_generator as b",
        "from numpy.random import default_rng",
        "from numpy import linalg, random",
        "import numpy as np\nrng = np.random.default_rng(0)",
        "import numpy as xp\nxp.random.seed(0)",
        "import numpy\nnumpy.random",
    ],
)
def test_numpy_random_scan_sees_each_form(source):
    assert _numpy_random_references(source)


def test_no_module_references_numpy_random():
    # The oracle draws from a seeded random.Random; numpy.random costs a process 6 MB and its streams may change.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "su2rep").glob("*.py"))
        if (lines := _numpy_random_references(path.read_text()))
    }
    assert found == {}
    assert not _numpy_random_references("import numpy as np\nimport random\nrandom.Random(0)\nnp.linalg")


def _load_time_numpy_imports(source: str) -> list[int]:
    """Lines of a su2rep module that import numpy, or ``quaternions``, which does, outside every function body.

    Module-level and class-level code runs when the module loads; a function imports only when it is called.
    """
    lines, stack = [], [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("su2rep." if node.level else "") + (node.module or "")
            names = [base.rstrip(".")] + [f"{base}.{alias.name}".replace("..", ".") for alias in node.names]
        else:
            names = []
        if any(name.split(".")[0] == "numpy" or name.startswith("su2rep.quaternions") for name in names):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import numpy as np", [1]),
        ("import numpy.linalg", [1]),
        ("from numpy import linalg", [1]),
        ("from . import quaternions as quat", [1]),
        ("from .quaternions import np", [1]),
        ("from su2rep import quaternions", [1]),
        ("try:\n    import numpy\nexcept ImportError:\n    pass", [2]),
        ("class Kernel:\n    import numpy", [2]),
        ("def box(points):\n    from . import quaternions as quat\n    import numpy", []),
        ("from . import targets\nimport random\nimport numbers", []),
    ],
)
def test_load_time_numpy_scan_sees_each_form(source, expected):
    assert _load_time_numpy_imports(source) == expected


def test_only_quaternions_imports_numpy_when_it_loads():
    # No command loads numpy: the oracle runs on the standard library, and the numpy forms of its maps
    # (numeric.box and its siblings) import quaternions in their bodies.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "su2rep").glob("*.py"))
        if (lines := _load_time_numpy_imports(path.read_text()))
    }
    assert list(found) == ["quaternions.py"]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Besides src/, only these files keep a name reached: the acceptance suite, which is never
# edited, and the benchmark's wrappers. A name that other tests alone use is an orphan.
_REACH_READERS = ("tests/test_acceptance.py", "bench/traced.py")


def _used_name(node):
    """The name that node uses: a name, an attribute, or a string constant that may spell one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _uses(nodes) -> set:
    """The names used under nodes, without entering a nested definition."""
    found, stack = set(), list(nodes)
    while stack:
        node = stack.pop()
        found.add(_used_name(node))
        stack.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, _DEFINITIONS))
    return found


def _unreached(root: Path, readers=_REACH_READERS) -> list:
    """Qualified names of the functions, classes and methods of root's su2rep/*.py that no use reaches.

    Module-level code, decorators, base classes (less a class's own name, which a
    namedtuple base repeats) and the whole of each of the readers use names from the
    start, and a dunder is reached, since Python calls it. A definition whose name is
    used is reached, and then the names its own body uses count too.
    """
    used = {_used_name(node) for path in readers for node in ast.walk(ast.parse((root / path).read_text()))}
    pending = []  # (qualified name, name, names its body uses)

    def collect(prefix, node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _DEFINITIONS):
                collect(prefix, child)
                continue
            used.update(_uses(child.decorator_list))
            if isinstance(child, ast.ClassDef):
                used.update(_uses(child.bases + child.keywords) - {child.name})
            pending.append((prefix + child.name, child.name, _uses([child])))
            collect(f"{prefix}{child.name}.", child)

    for path in sorted((root / "src" / "su2rep").glob("*.py")):
        tree = ast.parse(path.read_text())
        used.update(_uses([tree]))
        collect(f"{path.stem}.", tree)
    while reached := [entry for entry in pending if entry[1] in used or entry[1][:2] == entry[1][-2:] == "__"]:
        pending = [entry for entry in pending if entry not in reached]
        for _, _, body_uses in reached:
            used |= body_uses
    return sorted(qualified for qualified, _, _ in pending)


def test_every_definition_is_reached():
    # A function, class or method that no command, check or acceptance import reaches is dead code.
    assert _unreached(ROOT) == []


def test_only_the_benchmark_harness_reaches_cup_table():
    # The names that bench/traced.py alone keeps: with the acceptance suite as the only reader, a new definition
    # that only the harness reaches would be listed here.
    expected = ["locimage.cup_table", "ratpoly._primitive", "ratpoly.poly_divmod", "ratpoly.poly_gcd"]
    assert _unreached(ROOT, readers=("tests/test_acceptance.py",)) == expected


@pytest.mark.parametrize(
    "planted, test_file, expected",
    [
        ("def planted_orphan(values):\n    return sorted(values)\n", None, ["numeric.planted_orphan"]),
        # the type-name string of a namedtuple base is not a use of the class
        ("class Planted(namedtuple('Planted', 'value')):\n    __slots__ = ()\n", None, ["numeric.Planted"]),
        # a unit test of a helper does not keep the helper
        (
            "def planted_helper():\n    return 0\n",
            "from su2rep.numeric import planted_helper\n\n\ndef test_planted_helper():\n    assert planted_helper() == 0\n",
            ["numeric.planted_helper"],
        ),
    ],
)
def test_reach_reports_a_planted_orphan(tmp_path, planted, test_file, expected):
    shutil.copytree(ROOT / "src" / "su2rep", tmp_path / "src" / "su2rep", ignore=shutil.ignore_patterns("__pycache__"))
    for path in _REACH_READERS:
        (tmp_path / path).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / path, tmp_path / path)
    numeric = tmp_path / "src" / "su2rep" / "numeric.py"
    numeric.write_text(f"{numeric.read_text()}\n\n{planted}")
    if test_file:
        (tmp_path / "tests" / "test_planted.py").write_text(test_file)
    assert _unreached(tmp_path) == expected
    (tmp_path / "bench" / "traced.py").write_text(f"{(tmp_path / 'bench' / 'traced.py').read_text()}\n{expected[0]}\n")
    assert _unreached(tmp_path) == []  # a reader's use reaches it


def _run_traced(tmp_path, argv):
    """Runs argv through bench/traced.py and plainly; returns both stdouts and the metrics."""
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
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert "metrics" in lines[-1]
    return traced.stdout, plain.stdout, lines[-1]["metrics"]


def test_traced_harness_wraps_live_names(tmp_path):
    # bench/traced.py wraps library functions by name; a deleted name breaks it.
    traced, plain, _ = _run_traced(tmp_path, ["betti", "--n", "1", "--target", "plus", "--no-cache"])
    assert traced == plain


def test_traced_cup_table_counts_signs_without_numpy(tmp_path):
    # The fast cup table must still call koszul_sign through the module global.
    traced, plain, metrics = _run_traced(tmp_path, ["cup-table", "--n", "2", "--target", "plus", "--no-cache"])
    assert traced == plain
    assert metrics["cli.numpy_imported"] == 0
    assert metrics["exterior.koszul_sign_calls"] > 0


def test_traced_verify_takes_no_gcd(tmp_path):
    # Series stay numerators over 1 - t^4; the only division is the series recurrence by 1 - t^4, and printing one
    # reads the factors of t^4 - 1 that divide it from sums of its coefficients.
    requests = (
        ["verify", "--n-max", "2"],
        ["equivariant", "--n", "3", "--target", "plus"],
        ["orbit", "--n", "3", "--target", "minus"],
    )
    for argv in requests:
        traced, plain, metrics = _run_traced(tmp_path, [*argv, "--no-cache"])
        assert traced == plain
        assert metrics.get("ratpoly.poly_gcd_calls", 0) == 0
        assert metrics.get("ratpoly.poly_divmod_calls", 0) == 0
