"""Static checks over the package source, its tests and the committed
benchmark results."""

import ast
import json
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "dfp"


def unused_imports(tree: ast.Module):
    """(line, name) of each name the module imports but never references;
    a name listed in a module-level __all__ counts as referenced."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_each_binding():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom a import b, c as d\n"
                     "from __future__ import annotations\n__all__ = ['b']\nnp.zeros")
    assert unused_imports(tree) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def private_definitions(tree: ast.Module):
    """(line, name) of each _private name the module binds at top level:
    functions, classes and assignment targets; dunders are not private."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def referenced_names(tree: ast.Module):
    """Every name the module reads, as a bare name or an attribute, or
    imports from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_private_name_check_sees_each_binding():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\ndef _f(): return _A\n"
                     "class _C: pass\nx = y._C")
    assert private_definitions(tree) == [(1, "_A"), (2, "_B"), (4, "_f"), (5, "_C")]
    assert {"_A", "_C"} <= referenced_names(tree)
    assert not {"_B", "_f"} & referenced_names(tree)


def test_no_unused_private_names():
    # A module-level _private name that nothing in the package reads is dead
    # code, such as a constant or buffer left behind by a refactor.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    unused = [(name, line, private) for name, tree in trees.items()
              for line, private in private_definitions(tree) if private not in used]
    assert unused == []


def test_one_kernel_body():
    # conv_fprop and gemm_dfp run one kernel body: kernels.py plans a call
    # and dispatches an engine in exactly one place each.
    tree = ast.parse((SRC / "kernels.py").read_text())
    plans = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_make_plan"]
    dispatches = [node for node in ast.walk(tree) if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Name) and node.value.id == "ENGINES"]
    assert (len(plans), len(dispatches)) == (1, 1)


def test_bench_files_report_the_end_to_end_metrics():
    # Each BENCH_<workload>.json entry is one side of a before/after
    # comparison: a commit, the run length and seeds, the provenance line,
    # and the quartiles of each end-to-end metric BENCHMARK.json declares.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert bench["workload"] in workloads
        assert path.name == f"BENCH_{bench['workload']}.json"
        assert bench["entries"]
        for entry in bench["entries"]:
            assert isinstance(entry["commit"], str) and entry["commit"]
            assert entry["seconds"] > 0 and entry["seeds"]
            assert isinstance(entry["provenance"], dict)
            metrics = entry["metrics"]
            assert {name: m["unit"] for name, m in metrics.items()} == units, path.name
            for m in metrics.values():
                assert m["q1"] <= m["median"] <= m["q3"], path.name
