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
