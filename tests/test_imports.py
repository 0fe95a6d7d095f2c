"""Every name a package module imports is read in that module.

The one exception is an import whose statement carries ``# noqa: F401``:
``perfbench/tracing.py`` patches such a name on the importing module, so
the name must exist there even though the module never reads it. Package
``__init__`` files are left out, since their imports are the names they
re-export.
"""
import ast
import sys
from pathlib import Path

import jobshopls

PACKAGE = Path(jobshopls.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NOQA = "# noqa: F401"


def unread_imports(source: str) -> tuple[list, list]:
    """(unread imports, unread imports marked ``NOQA``) of one module's
    source, each as (line number, bound name)."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread, marked = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any(NOQA in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                (marked if noqa else unread).append((node.lineno, name))
    return unread, marked


def modules() -> list:
    """(dotted name below the package, path) of every non-``__init__`` module."""
    return [(".".join(p.relative_to(PACKAGE).with_suffix("").parts), p)
            for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"]


def test_the_check_finds_unread_and_marked_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import importlib.resources\n"
        "from json import (dumps,\n"
        "                  loads)  # noqa: F401\n"
        "from math import pi as PI, tau\n"
        "def f(x: tau) -> str:\n"
        "    return dumps(importlib.resources)\n"
    )
    unread, marked = unread_imports(source)
    assert unread == [(2, "os"), (6, "PI")]
    assert marked == [(4, "loads")]


def test_every_import_is_read_or_a_tracer_patch_site():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import SPAN_SITES
    finally:
        sys.path.remove(str(PERFBENCH))
    sites = {site for span in SPAN_SITES.values() for site in span}
    dead, unpatched = [], []
    for module, path in modules():
        unread, marked = unread_imports(path.read_text())
        dead += [f"{path.name}:{line}: {name}" for line, name in unread]
        unpatched += [f"{path.name}:{line}: {name}" for line, name in marked
                      if (module, name) not in sites]
    assert dead == [], "imported but never read"
    assert unpatched == [], f"marked {NOQA!r} but not patched by the tracer"
