import ast
import re
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
ALLOWED_PRIVATE_IMPORTS = {
    # criterion 8 probes the order dispatch; perfbench/spans.py binds the same names
    ("acceptance", "entropy", "_conditional_min_entropy"),
    ("acceptance", "entropy", "_conditional_renyi_generic"),
    ("acceptance", "entropy", "_conditional_shannon"),
}


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
