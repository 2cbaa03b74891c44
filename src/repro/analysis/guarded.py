"""Guarded-attribute registry for the lock-discipline checker.

An attribute is *guarded* when concurrent readers/writers must hold a
specific lock to touch it.  Guards are declared in the source, by a
``# guarded-by: <lock>`` comment on the line that first assigns the
attribute in ``__init__``::

    self._best = {}          # guarded-by: _mutex

That comment is the one place a ``self``-mode guard is declared
(:class:`~repro.serving.registry.ScheduleRegistry`,
:class:`~repro.records.RecordStore`, :class:`~repro.serving.service.TuningService`
and :class:`~repro.faults.plan.FaultPlan` carry them).  :data:`SEED_GUARDS`
holds only what a comment cannot express: the ``receiver``-mode rows of the
per-job drive lock.

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


#: Guards a ``# guarded-by:`` comment cannot declare; the checker adds every
#: annotated attribute to these.
SEED_GUARDS: Tuple[GuardedAttr, ...] = (
    # Per-job drive lock: serializes the drivers racing run()/advance().
    GuardedAttr("_Job", "finished", "drive_lock", mode="receiver", module="serving/service.py"),
    GuardedAttr(
        "_Job", "trials_used", "drive_lock", mode="receiver", module="serving/service.py"
    ),
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
