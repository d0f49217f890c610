"""bench_layers.py's paired child: both trees' packages import side by side in one process."""

import ast
import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bosonspectra"

spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench_layers.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

# Imports every module of both copies and prints, per copy, each loaded module's name and file.
IMPORT_BOTH = """
import importlib, json, os, sys
for side in ("base", "head"):
    package = importlib.import_module(f"bs_{side}")
    for name in os.listdir(os.path.dirname(package.__file__)):
        if name.endswith(".py") and name != "__init__.py":
            importlib.import_module(f"bs_{side}.{name[:-3]}")
print(json.dumps({name: [module.__name__, module.__file__] for name, module in sys.modules.items()
                  if name.split(".")[0] in ("bs_base", "bs_head", "bosonspectra")}))
"""


@pytest.fixture(scope="module")
def paired(tmp_path_factory):
    into = tmp_path_factory.mktemp("paired")
    bench._pair({"base": ROOT, "head": ROOT}, str(into))
    return into


def test_copies_import_as_distinct_packages(paired):
    modules = bench._python(IMPORT_BOTH, str(paired))
    submodules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    for side in ("base", "head"):
        copy = f"bs_{side}"
        assert sorted(name for name in modules if name.startswith(f"{copy}.")) == [f"{copy}.{s}" for s in submodules]
        for name, (own_name, path) in modules.items():
            if name.split(".")[0] == copy:
                assert own_name == name
                assert Path(path).parent == paired / copy
    assert not any(name.split(".")[0] == "bosonspectra" for name in modules)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_package_imports_itself_only_relatively(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "bosonspectra" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            assert node.module.split(".")[0] != "bosonspectra"


def test_paired_stream_row(paired):
    tasks = {"tiny": ["stream", [0, 1, 2], 4, 0, "nonresolved", "probability_chunks", bench.FAMILIES["generic"]]}
    runs = [bench._paired(str(paired), tasks, 2, run) for run in (0, 1)]
    row = bench._timed_row(runs, "tiny", "same_totals")
    assert runs[0]["tiny"]["head"]["outcomes"] == 20
    assert row["same_totals"]
    assert all(math.isfinite(value) and value > 0 for value in row["head_base_ratio"].values())


def test_paired_query_row(paired):
    # Every signature of n = 3, m = 4 asked alone, on a lambda each call builds.
    tasks = {"tiny": ["queries", 3, 4, bench.FAMILIES["near-identical"], bench._signatures(3, 4)]}
    runs = [bench._paired(str(paired), tasks, 2, run) for run in (0, 1)]
    row = bench._timed_row(runs, "tiny", "same_totals")
    assert runs[0]["tiny"]["head"]["outcomes"] == 20
    assert row["same_totals"]
    assert all(math.isfinite(value) and value > 0 for value in row["head_base_ratio"].values())


def test_failing_child_raises_with_its_stderr(tmp_path):
    with pytest.raises(RuntimeError, match="exited 1(.|\n)*no such child"):
        bench._python("import sys; sys.exit('no such child')", str(tmp_path))
