"""The emit-in-loop lint: clean tree, and it actually bites.

``tools/check_emit_loops.py`` keeps the packages a leaf run executes
(``core``, ``baselines``, ``cpu``, ``tile``, ``engine``) on the batched
``ctx.emit_each`` pattern; this suite runs it against the real tree
(must be clean) and against synthetic trees with violations (must flag
exactly the per-element ``.emit`` calls inside loops -- not loop-free
emits, not ``emit_each``, not calls in strings or comments).
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_emit_loops  # noqa: E402


def _core(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    return pkg


def test_repo_tree_is_clean():
    assert check_emit_loops.offending_lines(REPO_ROOT) == []


def test_lint_flags_emit_in_for_and_while(tmp_path):
    (_core(tmp_path) / "bad.py").write_text(
        "def f(ctx, rows):\n"
        "    for r in rows:\n"
        "        ctx.emit('grouping', 'x', row=r)\n"
        "    while rows:\n"
        "        ctx.events.emit('hash', 'y')\n"
        "        rows.pop()\n")
    hits = check_emit_loops.offending_lines(tmp_path)
    assert len(hits) == 2
    assert all("bad.py" in h for h in hits)


def test_lint_flags_nested_closure_in_loop(tmp_path):
    (_core(tmp_path) / "sneaky.py").write_text(
        "def f(ctx, rows):\n"
        "    for r in rows:\n"
        "        def cb():\n"
        "            ctx.emit('grouping', 'x', row=r)\n"
        "        cb()\n")
    assert len(check_emit_loops.offending_lines(tmp_path)) == 1


def test_lint_allows_loop_free_emit_and_emit_each(tmp_path):
    (_core(tmp_path) / "ok.py").write_text(
        "def f(ctx, stats):\n"
        "    ctx.emit('phase', 'done', rows=len(stats))\n"
        "    for s in stats:\n"
        "        s['seen'] = True\n"
        "    if ctx.observed:\n"
        "        ctx.emit_each('grouping', 'numeric', stats)\n")
    assert check_emit_loops.offending_lines(tmp_path) == []


def test_lint_scans_every_leaf_run_package(tmp_path):
    for pkg in ("baselines", "cpu", "tile", "engine"):
        d = tmp_path / "src" / "repro" / pkg
        d.mkdir(parents=True)
        (d / "loopy.py").write_text(
            "def f(ctx, rows):\n"
            "    for r in rows:\n"
            "        ctx.emit('grouping', 'x', row=r)\n")
    hits = check_emit_loops.offending_lines(tmp_path)
    assert sorted(h.split("/")[2] for h in hits) == [
        "baselines", "cpu", "engine", "tile"]


def test_lint_ignores_files_outside_core(tmp_path):
    pkg = tmp_path / "src" / "repro" / "serve"
    pkg.mkdir(parents=True)
    (pkg / "loopy.py").write_text(
        "def f(ctx, jobs):\n"
        "    for j in jobs:\n"
        "        ctx.emit('serve', 'job', id=j)\n")
    assert check_emit_loops.offending_lines(tmp_path) == []
