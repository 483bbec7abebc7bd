"""Fail on dead definitions under ``src/repro``.

A function, method or class defined under ``src/repro`` (dunder names
excepted) is dead when its name appears nowhere in the scanned trees
except at its own definitions: no call, no import, no attribute
access, not even a mention in a string or comment. Names are matched
as whole words, so a name kept alive only through ``getattr`` or a
string table still counts as used. Stdlib only. Usage, from the
repository root::

    python scripts/dead_defs.py

Exit 0 when every definition is referenced, 1 (listing the dead ones)
otherwise.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Trees whose text counts as a reference.
TREES = ("src", "tests", "scripts", "benchmarks", "examples", "perfbench")
#: Where the definitions under scrutiny live.
DEFINITIONS = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def definitions(path: Path):
    """``(name, line)`` of every function, method and class in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


def word_counts() -> Counter:
    """Whole-word occurrences across every file of the scanned trees."""
    counts: Counter = Counter()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                text = path.read_text(errors="ignore")
                counts.update(WORD.findall(text))
    return counts


def dead_definitions():
    """``(path, line, name)`` of every dead definition, sorted."""
    defined = []
    for path in sorted(DEFINITIONS.rglob("*.py")):
        for name, line in definitions(path):
            defined.append((path.relative_to(ROOT), line, name))
    sites = Counter(name for _, _, name in defined)
    counts = word_counts()
    return [d for d in defined if counts[d[2]] <= sites[d[2]]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    dead = dead_definitions()
    for path, line, name in dead:
        print(f"{path}:{line}: {name} is defined but never referenced")
    if dead:
        print(f"{len(dead)} dead definition(s)", file=sys.stderr)
        return 1
    print("dead-definition check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
