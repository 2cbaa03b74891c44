"""Guarded-attribute registry for the lock-discipline checker.

An attribute is *guarded* when concurrent readers/writers must hold a
specific lock to touch it.  The registry is seeded with the repo's known
shared-state classes (:class:`~repro.serving.registry.ScheduleRegistry`,
:class:`~repro.records.RecordStore`, :class:`~repro.serving.service.TuningService`,
the per-job drive lock, :class:`~repro.faults.plan.FaultPlan`) and extended
in-source via ``# guarded-by: <lock>`` comments on the line that first
assigns the attribute in ``__init__``::

    self._best = {}          # guarded-by: _mutex

Two checking modes exist:

``self``
    The attribute is checked on ``self.<attr>`` accesses inside methods of
    the declaring class (matched by class name anywhere in the project).

``receiver``
    The attribute is checked on *any* receiver (``job.finished``), but only
    inside the module that declares the class — cross-module attribute names
    collide too easily (``result.trials_used``) for a global rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .base import SourceModule

GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class GuardedAttr:
    """One attribute/lock pairing."""

    cls: str  # declaring class name
    attr: str
    lock: str  # lock attribute name on the same object
    mode: str = "self"  # "self" | "receiver"
    module: str = ""  # for receiver mode: only check inside this path suffix


#: The repo's known shared-state invariants.  Keep this table in sync with the
#: ``# guarded-by:`` annotations in the source files; the checker unions both.
SEED_GUARDS: Tuple[GuardedAttr, ...] = (
    # ScheduleRegistry: every structure the reader/writer paths share —
    # the lazy shard index, the materialised-entry cache, per-file states,
    # the shard-handle LRU, the per-target embedding matrices and the
    # layout/laziness flags.
    GuardedAttr("ScheduleRegistry", "_best", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_index", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_files", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_targets", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_matrices", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_all_indexed", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_native", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_manifest_ok", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_handles", "_mutex"),
    GuardedAttr("ScheduleRegistry", "_read_handles", "_mutex"),
    GuardedAttr("ScheduleRegistry", "total_lines", "_mutex"),
    GuardedAttr("ScheduleRegistry", "skipped_lines", "_mutex"),
    # RecordStore: appends come from server worker threads concurrently.
    GuardedAttr("RecordStore", "_measures", "_lock"),
    GuardedAttr("RecordStore", "_results", "_lock"),
    GuardedAttr("RecordStore", "skipped_lines", "_lock"),
    GuardedAttr("RecordStore", "slow_flushes", "_lock"),
    GuardedAttr("RecordStore", "flush_failures", "_lock"),
    # TuningService: job table + stats counters.
    GuardedAttr("TuningService", "_jobs", "_lock"),
    GuardedAttr("TuningService", "_transfer_donors", "_lock"),
    GuardedAttr("TuningService", "_warm_start_donors", "_lock"),
    GuardedAttr("TuningService", "jobs_created", "_lock"),
    GuardedAttr("TuningService", "registry_hits", "_lock"),
    GuardedAttr("TuningService", "coalesced_requests", "_lock"),
    GuardedAttr("TuningService", "aborted_jobs", "_lock"),
    # Per-job drive lock: serializes the drivers racing run()/advance().
    GuardedAttr("_Job", "finished", "drive_lock", mode="receiver", module="serving/service.py"),
    GuardedAttr(
        "_Job", "trials_used", "drive_lock", mode="receiver", module="serving/service.py"
    ),
    # FaultPlan bookkeeping read by assertions and the gate.
    GuardedAttr("FaultPlan", "fired", "_lock"),
    GuardedAttr("FaultPlan", "_arrivals", "_lock"),
)


def parse_annotations(module: SourceModule) -> List[GuardedAttr]:
    """Collect ``# guarded-by:`` annotations from one module.

    The annotation sits on a ``self.<attr> = ...`` line inside a class body
    (conventionally ``__init__``); the declaring class is found by walking
    the AST for the innermost class containing that line.
    """
    annotated: Dict[int, str] = {}
    for lineno, text in enumerate(module.lines, start=1):
        match = GUARDED_BY_RE.search(text)
        if match:
            annotated[lineno] = match.group(1)
    if not annotated:
        return []

    guards: List[GuardedAttr] = []
    for class_node in _classes(module.tree):
        for node in ast.walk(class_node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            lock = annotated.get(node.lineno)
            if lock is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guards.append(
                        GuardedAttr(class_node.name, target.attr, lock, mode="self")
                    )
    return guards


def _classes(tree: ast.Module) -> Iterable[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node
