import ast
import importlib.util
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import qsteer

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve_once_and_sorted():
    names = qsteer.__all__
    assert [n for n in names if not hasattr(qsteer, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name only its own test reaches is dead weight in the public surface
    paths = [p for p in (ROOT / "src" / "qsteer").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "perfbench").glob("*.py")
    lines = [line for p in paths for line in p.read_text(encoding="utf-8").splitlines()]

    def has_caller(name):
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    assert [n for n in qsteer.__all__ if not has_caller(n)] == []


# Private names one module of src/qsteer/ may take from another, each with its reason.
ALLOWED_PRIVATE_IMPORTS = set()


def private_imports(path):
    """(importer, module, name) for every ``from .module import _name`` and
    every ``module._name`` reached through ``from . import module``."""
    me, found, siblings = path.stem, set(), set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.add((me, node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.add((me, node.value.id, node.attr))
    return found


def test_no_module_imports_another_modules_private_names():
    found = set()
    for path in (ROOT / "src" / "qsteer").glob("*.py"):
        found |= private_imports(path)
    assert sorted(found - ALLOWED_PRIVATE_IMPORTS) == []
    # an exception that no longer applies leaves the list
    assert sorted(ALLOWED_PRIVATE_IMPORTS - found) == []


# Message fragments of the input rules: check_int, check_visibility, check_tolerance,
# check_probabilities.
RULE_FRAGMENTS = (
    "must be an integer of at least",
    "must lie in [0, 1], got",
    "must lie in (0, 1), got",
    "has negative or NaN entr",
)


def test_each_input_rule_raises_from_one_place():
    # a second hand-written copy of a rule drifts from the first
    raises = []
    for path in sorted((ROOT / "src" / "qsteer").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"):
                raises.append(f"{path.stem}: {ast.get_source_segment(text, node)}")
    for fragment in RULE_FRAGMENTS:
        assert len([r for r in raises if fragment in r]) == 1, fragment


def test_no_top_level_name_is_defined_in_two_modules():
    # a second copy of a helper drifts; modules share one definition instead
    owners = defaultdict(list)
    for path in sorted((ROOT / "src" / "qsteer").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners[node.name].append(path.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_every_traced_name_resolves():
    # the benchmark's traced run wraps these by name; a deleted one breaks only that run
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = spans.FUNCTION_SPANS + spans.CLASS_SPANS + spans.COUNTED_CALLS
    assert [(m, a) for m, a, _ in wrapped if not hasattr(getattr(qsteer, m), a)] == []
    # the counted solver is the one the threshold solves call
    module, name = spans.SOLVER.split(".")
    assert getattr(getattr(qsteer, module), name) is qsteer.scenarios.bisect_threshold


def test_benchmark_selftest_passes():
    # tiny untraced and traced runs of every workload that select every declared
    # per-layer metric: a package change that leaves one unset, such as a Povm
    # built without qobj.is_psd, fails the benchmark's traced run and this test
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stdout + out.stderr
