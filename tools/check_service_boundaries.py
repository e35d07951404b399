#!/usr/bin/env python
"""Import-graph lint: engine code must respect service boundaries.

The service-plane refactor moved every engine backend (storage tiers,
meta store, shuffle index, scheduler, memory pressure, lineage) behind
an owning service actor.  The architectural invariant is that *no
module outside a service's owner set imports its implementation class*
— everything else talks to the service through a duck-typed handle
(plain service object or ``ActorRef``), so the actor plane's message
log stays a faithful RPC trace.

This script walks ``src/repro`` with ``ast`` and fails (exit 1) on any
runtime import of a guarded class outside its allowlist.  Imports inside
``if TYPE_CHECKING:`` blocks are exempt: annotations are not calls.

A second rule guards the chunk-engine seam: outside ``repro/frame/``
and ``repro/engine/``, importing ``repro.frame`` (directly or via a
relative import) is an error.  Operator and service code must go
through ``repro.engine.local`` (the row-space API re-export) or an
engine handle, so a chunk backend can be swapped without touching the
planes above it.

A third rule keeps the accounting walk accounting-only:
``repro/core/executor.py`` may not call ``.execute(...)`` on anything,
nor name ``ExecContext`` or ``persist_result`` — every
kernel runs behind ``repro.services.runner.run_subtask_kernels`` and
the executor only replays the records it returns.

Run from the repository root (CI runs it next to ruff)::

    python tools/check_service_boundaries.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: guarded class -> module paths (relative to src/, ``/``-separated)
#: allowed to import it at runtime.  A trailing ``/`` means the whole
#: subtree.  The services package may import everything: it *is* the
#: deployment layer, and the only place services are assembled.
ALLOWED = {
    # storage backends: the storage package owns its tiers and router.
    "StorageService": {"repro/storage/", "repro/services/"},
    "WorkerStorage": {"repro/storage/", "repro/services/"},
    "ShuffleManager": {"repro/storage/", "repro/services/"},
    # supervisor-side backends wrapped by service actors.
    "MetaService": {
        "repro/core/meta.py", "repro/core/__init__.py", "repro/services/",
    },
    "MemoryPressure": {"repro/core/memory_control.py", "repro/services/"},
    "RecoveryManager": {"repro/core/recovery.py", "repro/services/"},
    # the services themselves: constructed by deploy, never by the
    # executor or client code.
    "SchedulingService": {"repro/services/"},
    "LifecycleService": {"repro/services/"},
    "ResultCacheService": {"repro/services/"},
    "SubtaskRunner": {"repro/services/"},
}

#: module subtrees allowed to import ``repro.frame`` directly; everyone
#: else must use ``repro.engine.local`` or an engine handle.
FRAME_ALLOWED_PREFIXES = ("repro/frame/", "repro/engine/")

#: the accounting walk: replays kernel results, never produces them.
ACCOUNTING_ONLY = "repro/core/executor.py"
#: names of the kernel-execution machinery it may not mention.
KERNEL_NAMES = {"ExecContext", "persist_result"}


def _module_parts(rel_path: str) -> list[str]:
    """Dotted package parts of the *package containing* ``rel_path``."""
    parts = rel_path.split("/")
    parts[-1] = parts[-1][: -len(".py")]
    # ``__init__`` lives *in* its package; a plain module lives one level
    # below its package — either way, drop exactly the final component.
    return parts[:-1]


def _resolve_import(rel_path: str, level: int, module: str | None) -> str:
    """Absolute dotted module targeted by an import statement."""
    if level == 0:
        return module or ""
    base = _module_parts(rel_path)
    if level > 1:
        base = base[: len(base) - (level - 1)]
    suffix = module.split(".") if module else []
    return ".".join(base + suffix)


def _is_frame(module: str) -> bool:
    return module == "repro.frame" or module.startswith("repro.frame.")


def _type_checking_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Line ranges of ``if TYPE_CHECKING:`` bodies (exempt imports)."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if is_tc:
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _allowed(name: str, rel_path: str) -> bool:
    for entry in ALLOWED[name]:
        if entry.endswith("/"):
            if rel_path.startswith(entry):
                return True
        elif rel_path == entry:
            return True
    return False


def _kernel_violations(path: Path, tree: ast.Module) -> list[str]:
    """Kernel execution referenced from the accounting-only module."""
    where = path.relative_to(SRC_ROOT.parent)
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            names = []
        for name in names:
            if name in KERNEL_NAMES:
                violations.append(
                    f"{where}:{node.lineno}: {name} is kernel execution — "
                    f"it lives behind run_subtask_kernels, not in "
                    f"{ACCOUNTING_ONLY}"
                )
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "execute"):
            violations.append(
                f"{where}:{node.lineno}: .execute(...) call — the "
                f"accounting walk replays kernel results, it never "
                f"runs an operator"
            )
    return violations


def check_file(path: Path) -> list[str]:
    rel_path = path.relative_to(SRC_ROOT).as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = _type_checking_spans(tree)
    violations = []
    if rel_path == ACCOUNTING_ONLY:
        violations.extend(_kernel_violations(path, tree))
    frame_ok = rel_path.startswith(FRAME_ALLOWED_PREFIXES)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(lo <= node.lineno <= hi for lo, hi in exempt):
            continue
        if isinstance(node, ast.Import):
            if not frame_ok:
                for alias in node.names:
                    if _is_frame(alias.name):
                        violations.append(_frame_violation(
                            path, node.lineno, alias.name, rel_path))
            continue
        if not frame_ok:
            resolved = _resolve_import(rel_path, node.level, node.module)
            if _is_frame(resolved):
                violations.append(_frame_violation(
                    path, node.lineno, resolved, rel_path))
            elif resolved == "repro":
                for alias in node.names:
                    if alias.name == "frame":
                        violations.append(_frame_violation(
                            path, node.lineno, "repro.frame", rel_path))
        for alias in node.names:
            name = alias.name
            if name in ALLOWED and not _allowed(name, rel_path):
                violations.append(
                    f"{path.relative_to(SRC_ROOT.parent)}:{node.lineno}: "
                    f"{name} may only be imported by "
                    f"{sorted(ALLOWED[name])}, not {rel_path}"
                )
    return violations


def _frame_violation(path: Path, lineno: int, module: str,
                     rel_path: str) -> str:
    return (
        f"{path.relative_to(SRC_ROOT.parent)}:{lineno}: "
        f"{module} may only be imported under "
        f"{sorted(FRAME_ALLOWED_PREFIXES)}, not {rel_path} — "
        f"use repro.engine.local or an engine handle"
    )


def main() -> int:
    violations: list[str] = []
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        violations.extend(check_file(path))
    if violations:
        print("service boundary violations:")
        for line in violations:
            print(f"  {line}")
        return 1
    count = len(list((SRC_ROOT / 'repro').rglob('*.py')))
    print(f"service boundaries OK ({count} modules checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
