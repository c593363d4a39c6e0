"""Static checks over the package source, its tests and the committed
benchmark results."""

import argparse
import ast
import json
import pathlib
import re

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
    used |= exported_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def exported_names(tree: ast.Module):
    """The names a module-level __all__ lists."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def test_unused_import_check_sees_each_binding():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom a import b, c as d\n"
                     "from __future__ import annotations\n__all__ = ['b']\nnp.zeros")
    assert unused_imports(tree) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def top_level_definitions(tree: ast.Module):
    """(line, name) of each name the module binds at top level: functions,
    classes and assignment targets."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return found


def private_definitions(tree: ast.Module):
    """(line, name) of each _private name the module binds at top level;
    dunders are not private."""
    return [(line, name) for line, name in top_level_definitions(tree)
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


def public_definitions(tree: ast.Module):
    """(line, name) of each public top-level function or class, and each
    public method of a top-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((item.lineno, item.name) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [(line, name) for line, name in found if not name.startswith("_")]


def test_public_name_check_sees_each_definition():
    tree = ast.parse("def f(): pass\ndef _g(): pass\nclass C:\n    def m(self): pass\n"
                     "    def __init__(self): pass\n    x = 1\n")
    assert public_definitions(tree) == [(1, "f"), (3, "C"), (4, "m")]


def test_no_public_name_only_tests_read():
    # A public function, class or method that neither the package nor the
    # benchmark reads, and that dfp.__all__ does not export, has only its
    # tests for callers: delete it, or give it a caller.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    readers = [tree for name, tree in trees.items() if name != "__init__.py"]
    readers += [ast.parse(path.read_text(), str(path))
                for path in sorted((ROOT / "benchmark").glob("*.py"))]
    used = set().union(exported_names(trees["__init__.py"]),
                       *(referenced_names(tree) for tree in readers))
    unread = [(name, line, public) for name, tree in trees.items()
              for line, public in public_definitions(tree) if public not in used]
    assert unread == []


def stored_attributes(tree: ast.Module):
    """(line, name) of each attribute a class stores on self (self.X = ...,
    tuple targets and augmented assignments included) and each field of a
    dataclass, an annotated name in the body of a class decorated with it."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            found.extend((node.lineno, node.target.id) for node in cls.body
                         if isinstance(node, ast.AnnAssign)
                         and isinstance(node.target, ast.Name))
        found.extend((node.lineno, node.attr) for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name) and node.value.id == "self")
    return sorted(found)


def loaded_attributes(tree: ast.Module):
    """The name of each attribute the module reads as .X."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_attribute_check_sees_each_store_and_field():
    tree = ast.parse("@dataclasses.dataclass\nclass D:\n    a: int\n    b = 2\n"
                     "class C:\n    c: int\n    def f(self):\n        self.d, self.e = 1, 2\n"
                     "        self.g += 1\n        other.h = 3\n        return self.d")
    assert stored_attributes(tree) == [(3, "a"), (8, "d"), (8, "e"), (9, "g")]
    assert loaded_attributes(tree) == {"d", "dataclass"}


def test_no_attribute_only_tests_read():
    # An attribute a package class stores, or a dataclass field, that
    # neither the package nor the benchmark reads as .X is state kept for
    # its tests alone: delete it, or give it a reader.  Names match across
    # classes, so a field that shares its name with a read one passes.
    readers = [ast.parse(path.read_text(), str(path))
               for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))]
    read = set().union(*(loaded_attributes(tree) for tree in readers))
    unread = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
              for line, name in stored_attributes(ast.parse(path.read_text(), str(path)))
              if name not in read]
    assert unread == []


def calls_to(tree: ast.Module, name: str):
    """Each call of the bare name `name` in the module."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_one_kernel_body():
    # conv_fprop and gemm_dfp run one kernel body: kernels.py plans a call
    # and runs the kernel in exactly one place each.
    tree = ast.parse((SRC / "kernels.py").read_text())
    assert (len(calls_to(tree, "_make_plan")), len(calls_to(tree, "_run_fast"))) == (1, 1)


def convolution_tap_loops(tree: ast.Module):
    """(line, name) of each function holding a direct-convolution tap loop:
    an np.einsum whose subscripts name an NCHW array."""
    return [(fn.lineno, fn.name) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and "nchw" in str(node.args[0].value) for node in ast.walk(fn))]


def test_tap_loop_check_sees_each_einsum():
    tree = ast.parse("def f(x):\n    return np.einsum('nchw,kc->nkhw', x, w)\n"
                     "def g(x):\n    return np.einsum('nkhw,kc->nchw', x, w)\n"
                     "def h(x):\n    return np.einsum('ij,jk->ik', x, w)\n"
                     "def k(x):\n    return np.einsum(s, x)\n"
                     "np.einsum('nchw,kc->nkhw', x, w)\n")
    assert convolution_tap_loops(tree) == [(1, "f"), (3, "g")]


# The one forward convolution oracle, and the one copy of each of its adjoints.
CONV_ORACLES = ("src/dfp/experiments.py", "tests/reference.py")


def test_one_convolution_oracle():
    # Every test checks a convolution against dfp.experiments._conv_oracle_f64
    # and the adjoints in tests/reference.py; a tap loop elsewhere is a copy.
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    paths += sorted((ROOT / "benchmark").glob("*.py"))
    found = [(path.relative_to(ROOT).as_posix(), line, name) for path in paths
             if path.relative_to(ROOT).as_posix() not in CONV_ORACLES
             for line, name in convolution_tap_loops(ast.parse(path.read_text(), str(path)))]
    assert found == []


# What the tests' reference (tests/reference.py) holds and training never runs.
REFERENCE_ONLY = ("ENGINES", "_run_instr", "vnni_madd", "_madd_contrib64", "AccumTensor",
                  "dfp_multiply", "dfp_add", "lzc", "down_convert", "spill_to_fp32",
                  "safe_chain_length", "round_value", "shared_exponent", "_philox_uniforms")
# Parameters that would select an engine or hand a kernel's internals to a test.
TEST_ONLY_PARAMETERS = ("engine", "debug_partials")


def test_the_package_has_one_kernel_engine():
    # No function takes an engine or a test hook, and the emulator, the
    # paper's specification primitives and the quantizer's scalar rules
    # live with the tests, not in the package.
    takes_engine, defines = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
                takes_engine += [(path.name, node.lineno, name) for name in names
                                 if name in TEST_ONLY_PARAMETERS]
        # module-level names only: a field such as DfpTensor.shared_exponent
        # is not the reference's function
        defines += [(path.name, name) for _, name in top_level_definitions(tree)
                    if name in REFERENCE_ONLY]
    assert (takes_engine, defines) == ([], [])


def test_run_context_has_no_engine_to_select():
    # The field stays only for the benchmark harness's engine="fast".
    from dfp.layers import Quantizers, RunContext
    from dfp.tensor import QuantConfig
    assert RunContext(q=Quantizers(QuantConfig()), engine="fast").engine == "fast"
    for name in ("instructions", "auto", ""):
        with pytest.raises(ValueError, match=f"engine={name!r}: the kernels have one engine"):
            RunContext(q=Quantizers(QuantConfig()), engine=name)


def test_layers_is_the_one_gemm_dfp_caller():
    # The package runs its GEMMs through RunContext.gemm in dfp.layers; the
    # benchmarks run a GEMM as the 1x1 convolution it is.
    callers = sorted(path.name for path in SRC.glob("*.py")
                     if any(isinstance(node, ast.Call)
                            and "gemm_dfp" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None))
                            for node in ast.walk(ast.parse(path.read_text(), str(path)))))
    assert callers == ["layers.py"]


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


def bare_numeric_options(tree: ast.Module):
    """(line, option) of each add_argument call whose type is the bare
    builtin int or float, which lets through any value that parses."""
    return [(node.lineno, ast.literal_eval(node.args[0]) if node.args else None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            for kw in node.keywords if kw.arg == "type"
            and isinstance(kw.value, ast.Name) and kw.value.id in ("int", "float")]


def test_bare_numeric_option_check_sees_each_call():
    tree = ast.parse("p.add_argument('--a', type=int)\np.add_argument('--b', type=_seed)\n"
                     "q.add_argument('--c', default=1, type=float)\nadd_argument('--d', type=int)")
    assert bare_numeric_options(tree) == [(1, "--a"), (3, "--c")]


def test_cli_numeric_options_go_through_a_checker():
    # Every numeric option is parsed by a checker that rejects values out of
    # range, so argparse names the option at fault, not a field inside.
    assert bare_numeric_options(ast.parse((SRC / "cli.py").read_text())) == []


def readme_synopsis():
    """{subcommand: set of --options} from the README's CLI synopsis: the
    first code block under "## CLI", one `dfp <subcommand>` per line, a
    trailing backslash continuing it."""
    text = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```\n", 2)[1].replace("\\\n", " ")
    return {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
            for line in block.splitlines() if line.startswith("dfp ")}


def test_readme_synopsis_lists_each_option_of_the_parser():
    from dfp import cli
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parser = {name: {s for a in p._actions for s in a.option_strings
                     if s.startswith("--") and s != "--help"}
              for name, p in sub.choices.items()}
    assert readme_synopsis() == parser
