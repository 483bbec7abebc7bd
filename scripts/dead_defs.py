"""Fail on dead definitions and unreachable modules under ``src/repro``.

A function, method or class defined under ``src/repro`` (dunder names
excepted) is dead when its name appears nowhere in the scanned trees
except at its own definitions: no call, no import, no attribute
access, not even a mention in a string or comment. Names are matched
as whole words, so a name kept alive only through ``getattr`` or a
string table still counts as used.

A module under ``src/repro`` is unreachable when only ``tests/`` or
``examples/`` import it: it is an entry point only if another module
under ``src``, or a file under ``scripts``, ``benchmarks`` or
``perfbench``, imports it (importing ``a.b`` imports package ``a``
too), or if it has an ``if __name__ == "__main__":`` guard. Stdlib
only. Usage, from the repository root::

    python scripts/dead_defs.py

Exit 0 when every definition is referenced and every module reachable,
1 (listing the offenders) otherwise.
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
#: Trees whose imports make a ``src/repro`` module an entry point.
ENTRY_TREES = ("src", "scripts", "benchmarks", "perfbench")
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


def module_name(path: Path) -> str:
    """Dotted name of a module file under ``src``."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def imports(tree: ast.AST):
    """Every dotted name a module's import statements load, parents
    included (``import a.b`` and ``from a.b import c`` load ``a`` and
    ``a.b``; ``c`` may be a module too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            for depth in range(1, len(parts) + 1):
                yield ".".join(parts[:depth])


def has_main_guard(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.If) and "__main__" in ast.unparse(
        node.test) for node in tree.body)


def unreachable_modules():
    """Paths of ``src/repro`` modules no entry tree imports, sorted."""
    modules = {module_name(path): path
               for path in sorted(DEFINITIONS.rglob("*.py"))}
    reached = set()
    for tree_name in ENTRY_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            own = module_name(path) if tree_name == "src" else None
            if own in modules and has_main_guard(tree):
                reached.add(own)
            reached.update(name for name in imports(tree)
                           if name in modules and name != own)
    return [path.relative_to(ROOT) for name, path in modules.items()
            if name not in reached]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    dead = dead_definitions()
    for path, line, name in dead:
        print(f"{path}:{line}: {name} is defined but never referenced")
    unreachable = unreachable_modules()
    for path in unreachable:
        print(f"{path}: imported only from tests/ or examples/ (or "
              "nowhere)")
    if dead or unreachable:
        print(f"{len(dead)} dead definition(s), {len(unreachable)} "
              "unreachable module(s)", file=sys.stderr)
        return 1
    print("dead-definition and module-reachability check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
