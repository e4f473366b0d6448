"""Every module of ``src/repro`` is run by code that is not a test.

A module that only tests reach is code that no engine, service path,
bench, script or example runs: it keeps passing its own tests while
nothing depends on it.  The scan parses every ``*.py`` file with
:mod:`ast` (no import is executed) and follows imports, including imports
inside functions, from the roots: every file under ``perfbench/``,
``benchmarks/``, ``scripts/`` and ``examples/``, and ``repro.__main__``
(``python -m repro``, which also starts the service's shard workers).  A
module counts as run when a run file imports it, so a module that only
another unrun module imports is unrun too.

A package ``__init__`` re-export does not count: ``from repro.local
import RoundLedger`` reaches the module that defines ``RoundLedger``
through the package's re-export, never the package's other imports.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("perfbench", "benchmarks", "scripts", "examples")

# Test fixtures that live in src/ so that tests and docs can name them.
ALLOWED_TEST_ONLY = {"repro.graphs.named"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


SRC_FILES = {module_name(path): path for path in (SRC / "repro").rglob("*.py")}
PACKAGES = {name for name, path in SRC_FILES.items() if path.stem == "__init__"}


def parsed_imports(path: Path) -> list[tuple[str, list[tuple[str, str]]]]:
    """``(module, [(name, bound_as), ...])`` for each import statement of
    ``path``; a plain ``import m`` has no names.  The code imports by
    absolute name only, so a relative import reaches nothing here."""
    out: list[tuple[str, list[tuple[str, str]]]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.extend((alias.name, []) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = [(alias.name, alias.asname or alias.name) for alias in node.names]
            out.append((node.module or "", names))
    return out


@functools.cache
def reexport(package: str, name: str) -> str | None:
    """The module that defines the name ``package`` re-exports as
    ``name`` (followed through nested packages), or None."""
    for module, names in parsed_imports(SRC_FILES[package]):
        for source, bound in names:
            if bound == name:
                return target(module, source)
    return None


def target(module: str, name: str) -> str | None:
    """The ``src/repro`` module that ``from module import name`` reaches."""
    dotted = f"{module}.{name}"
    if dotted in PACKAGES:
        return None
    if dotted in SRC_FILES:
        return dotted
    if module in PACKAGES:
        return reexport(module, name) if name else None
    return module if module in SRC_FILES else None


def reached_modules(path: Path) -> set[str]:
    reached: set[str] = set()
    for module, names in parsed_imports(path):
        for found in [target(module, "")] + [target(module, name) for name, _ in names]:
            if found is not None:
                reached.add(found)
    return reached


def run_modules() -> set[str]:
    """Every ``src/repro`` module that the roots reach."""
    todo = [path for d in CALLER_DIRS for path in sorted((ROOT / d).rglob("*.py"))]
    todo.append(SRC_FILES["repro.__main__"])
    seen: set[str] = {"repro.__main__"}
    while todo:
        for name in reached_modules(todo.pop()) - seen:
            seen.add(name)
            todo.append(SRC_FILES[name])
    return seen


def test_every_src_module_is_run_by_non_test_code():
    modules = set(SRC_FILES) - PACKAGES - {"repro.__main__"}
    unrun = sorted(modules - run_modules() - ALLOWED_TEST_ONLY)
    assert not unrun, (
        f"modules that only tests reach: {unrun}; delete them, or import "
        "them from the code that runs them"
    )


def test_allowlist_names_existing_test_only_modules():
    """The allowlist must not outlive its entries: each names an
    existing module that nothing but tests reaches."""
    run = run_modules()
    for name in ALLOWED_TEST_ONLY:
        assert name in SRC_FILES and name not in run, name
