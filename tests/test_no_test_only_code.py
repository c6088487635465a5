"""Guard: no public library code whose only callers are its own tests.

The scan parses every module under ``src/repro`` and collects its public
top-level functions and classes.  A def is *live* when something that is
itself live names it.  The roots are the module-level statements of
``src/repro`` (``__init__`` re-exports and ``__all__`` lists excepted)
and every file under ``benchmarks/``, ``examples/`` and ``perfbench/``
(whose string constants count as names too); a live def makes live
every name its body mentions.  References from ``tests/`` never count,
so a def that only tests reach is dead.

Names are matched without regard to the module they come from, which
errs towards liveness: the guard may miss dead code that shares a name
with live code, but it never flags code that a real caller reaches.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "perfbench")

# Public defs that no static reference reaches but that are live anyway.
# Each is a root of the scan: what it names is live too.
ALLOWED = {
    # ``@register_kernel`` puts these in the engine's kernel registry.
    "LubyKernel": "registered kernel of LubyMIS, looked up by the fast engine",
    "ProposalMatchingKernel": "registered kernel of ProposalMatching",
    "MPXKernel": "registered kernel of MPXClustering",
    # Test switches: select a mode for a block of library calls.
    "use_engine": "pins the reference engine for cross-engine tests",
    "use_disk_faults": "in-process REPRO_DISK_FAULTS for storage tests",
    "storage_stats": "reads the in-process storage and fault counters",
    "reset_storage_stats": "zeroes those counters between storage tests",
    # Generator fixtures: graph families and labels tests build inputs from.
    "complete_bipartite_graph": "K_{a,b} fixture for matching/planarity tests",
    "random_signs": "+/- edge-label fixture for correlation tests",
    "with_weights": "explicit edge-weight fixture for weighted tests",
}


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Every identifier ``node`` mentions as a name, attribute or import.

    With ``strings``, the dotted parts of string constants count too
    (perfbench hooks the functions it times by module and name).
    """
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) \
                and isinstance(sub.value, str):
            out.update(sub.value.split("."))
    return out


def _is_reexport(path: Path, stmt: ast.stmt) -> bool:
    if path.name != "__init__.py":
        return False
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def dead_defs(allowed=ALLOWED) -> dict[str, list[str]]:
    """Map each public top-level def no live code reaches to its modules."""
    defs: dict[str, list[tuple[str, set[str]]]] = {}
    live: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC.parent))
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.setdefault(stmt.name, []).append((module, _names(stmt)))
            elif not _is_reexport(path, stmt):
                live |= _names(stmt)
    live |= set(allowed)
    for caller in CALLER_DIRS:
        for path in sorted((ROOT / caller).rglob("*.py")):
            live |= _names(ast.parse(path.read_text()), strings=True)

    frontier = list(live)
    while frontier:
        for _, body in defs.get(frontier.pop(), ()):
            new = body - live
            live |= new
            frontier.extend(new)

    return {
        name: [module for module, _ in where]
        for name, where in sorted(defs.items())
        if not name.startswith("_") and name not in live
    }


def test_no_public_def_is_reached_only_by_tests():
    dead = dead_defs()
    assert not dead, (
        "public defs reached only by tests (delete them, or allowlist "
        f"with a reason in {Path(__file__).name}): {dead}"
    )


def test_every_allowlist_entry_is_needed():
    stale = set(ALLOWED) - set(dead_defs(allowed=()))
    assert not stale, f"allowlisted but reached or undefined: {sorted(stale)}"
