"""Env grammar guard: the package reads only deployment settings.

Tiers, batch sizes and cache bounds are module constants; the
environment may only say where caches live, how big they may grow and
how many worker processes to use.  Two scans over ``src/repro``:

* every ``REPRO_*`` name in the source text (string literals,
  docstrings and comments alike) must be one of :data:`ALLOWED`, so no
  module defines or documents another knob;
* every key read through ``os.environ[...]``, ``os.environ.get`` (or
  ``pop``/``setdefault``), ``in os.environ`` or ``os.getenv`` must
  resolve to one of :data:`ALLOWED`: a literal, or a name bound to one
  at module level somewhere in the package.  A key the scan cannot
  resolve fails too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ALLOWED = {"REPRO_CACHE_DIR", "REPRO_CACHE_MAX_BYTES", "REPRO_SWEEP_WORKERS"}

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+")
_KEY_METHODS = {"get", "pop", "setdefault"}


def _sources() -> Iterator[Tuple[Path, str]]:
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path, path.read_text()


def _is_os(node: ast.AST, attr: str) -> bool:
    """``os.<attr>``, or a bare ``<attr>`` imported from ``os``."""
    if isinstance(node, ast.Attribute):
        return (node.attr == attr and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    return isinstance(node, ast.Name) and node.id == attr


def _env_keys(tree: ast.AST) -> Iterator[ast.AST]:
    """Every expression used as an environment key."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_os(node.value, "environ"):
            yield node.slice
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            if _is_os(func, "getenv") or (
                    isinstance(func, ast.Attribute)
                    and func.attr in _KEY_METHODS
                    and _is_os(func.value, "environ")):
                yield node.args[0]
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) and _is_os(right, "environ")
                for op, right in zip(node.ops, node.comparators)):
            yield node.left


def _string_constants(trees: List[ast.Module]) -> Dict[str, Set[str]]:
    """Every module-level ``NAME = "literal"`` binding in the package."""
    constants: Dict[str, Set[str]] = {}
    for tree in trees:
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        constants.setdefault(target.id, set()).add(
                            stmt.value.value)
    return constants


def test_source_names_only_deployment_variables():
    stray: List[str] = []
    for path, text in _sources():
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in _NAME.findall(line):
                if name not in ALLOWED:
                    stray.append(f"{path.relative_to(PACKAGE.parent)}:"
                                 f"{lineno}: {name}")
    assert not stray, "undeclared env variables:\n" + "\n".join(stray)


def test_environment_reads_resolve_to_deployment_variables():
    trees = {path: ast.parse(text, str(path)) for path, text in _sources()}
    constants = _string_constants(list(trees.values()))
    read = set()
    stray: List[str] = []
    for path, tree in trees.items():
        for key in _env_keys(tree):
            where = f"{path.relative_to(PACKAGE.parent)}:{key.lineno}"
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                values = {key.value}
            elif isinstance(key, ast.Name) and key.id in constants:
                values = constants[key.id]
            else:
                stray.append(f"{where}: unresolved key {ast.unparse(key)}")
                continue
            stray.extend(f"{where}: {value}" for value in values - ALLOWED)
            read |= values & ALLOWED
    assert not stray, "environment reads outside the grammar:\n" + \
        "\n".join(stray)
    # The scan is not vacuous: every allowed variable is really read.
    assert read == ALLOWED
