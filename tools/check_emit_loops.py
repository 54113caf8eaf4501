#!/usr/bin/env python3
"""Fail CI when leaf-run code emits observability events one-per-element.

Per-element ``ctx.emit(...)`` inside a loop re-checks the observed flag
and re-builds an :class:`~repro.obs.events.Event` for every row -- the
exact pattern the vectorization pass removed from the hot paths.  The
packages a leaf run executes (:data:`PACKAGES`: the proposal's core,
the baselines, the CPU and tile families, and the engine's replay) must
batch records and hand them to ``ctx.emit_each(...)`` (one observed
check, loop only when a sink is attached).

This is an AST check, not a grep: it flags any ``*.emit(...)`` call that
occurs lexically inside a ``for``/``while`` body under ``src/repro/<pkg>``
for each scanned package.  ``emit_each`` is exempt, and so is
``repro/base.py`` (``RunContext.emit_each``'s loop *is* the batched
form), as are loops in modules whose *job* is per-attempt emission (the
allowlist below).

Usage::

    python tools/check_emit_loops.py [ROOT]

Exits 0 when clean, 1 listing every offending ``file:line``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Packages under ``src/repro`` whose code runs inside a leaf run.
PACKAGES = ("core", "baselines", "cpu", "tile", "engine")

#: Modules allowed to emit inside a loop: per-*attempt* / per-*fault*
#: control loops that run a handful of times, not per-row hot loops.
ALLOWLIST: set[str] = set()


def _loop_emit_calls(tree: ast.AST) -> list[ast.Call]:
    """Every ``*.emit(...)`` call nested inside a For/While body."""
    hits: list[ast.Call] = []

    def walk(node: ast.AST, in_loop: bool) -> None:
        entered = in_loop or isinstance(node, (ast.For, ast.AsyncFor,
                                               ast.While))
        for child in ast.iter_child_nodes(node):
            # a nested function/class resets scope but keeps the flag:
            # a closure defined in a loop body still runs per iteration
            if (entered and isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "emit"):
                hits.append(child)
            walk(child, entered)

    walk(tree, False)
    return hits


def offending_lines(root: Path) -> list[str]:
    """Every ``file:line: text`` hit in ``root``'s scanned packages."""
    hits: list[str] = []
    paths = [p for pkg in PACKAGES
             for p in sorted((root / "src" / "repro" / pkg).rglob("*.py"))]
    for path in paths:
        rel = path.relative_to(root).as_posix()
        if rel in ALLOWLIST:
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for call in _loop_emit_calls(ast.parse(source, filename=rel)):
            hits.append(f"{rel}:{call.lineno}: "
                        f"{lines[call.lineno - 1].strip()}")
    return hits


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    hits = offending_lines(root)
    for h in hits:
        print(f"EMIT IN LOOP: {h}", file=sys.stderr)
    if hits:
        print(f"{len(hits)} per-element emit call(s) in leaf-run loops; "
              "batch the records and use ctx.emit_each(kind, name, records)",
              file=sys.stderr)
        return 1
    print("no per-element emit calls in leaf-run loops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
