"""Crash-tolerant helpers for the append-only JSONL stores.

Both persistent stores (:class:`~repro.records.RecordStore` and the
:class:`~repro.serving.registry.ScheduleRegistry` shards) append one JSON
object per line with a single ``write`` + ``flush``.  A process killed inside
that write leaves a *torn tail*: a strict prefix of the final line, almost
never valid JSON and usually without a trailing newline.  Merely *skipping*
that line at load time is not enough — the stores append with ``open("a")``,
so the next committed record would concatenate onto the torn prefix and one
*good* entry would be corrupted.  :func:`repair_torn_tail` therefore
physically truncates the torn tail (and warns), restoring the one-object-
per-line invariant before any parsing or appending happens.

A complete final line that merely lacks its newline is valid JSON and is
kept, but its newline is restored: otherwise the next append would run onto
it, and the following load would truncate the merged line as torn, losing
both entries.  Mid-file corruption is *not* touched here — that is a
data-integrity question the stores answer via their ``strict`` policy.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

__all__ = ["repair_torn_tail"]

#: How many bytes of tail to pull in per backwards step while hunting for the
#: final newline.  A torn line is one JSON object (a few hundred bytes), so
#: the first chunk almost always suffices; the loop only matters for
#: pathological single-line files.
_TAIL_CHUNK = 64 * 1024

_WHITESPACE = b" \t\r\n"


def _read_tail(path: Path) -> tuple[int, bytes, int]:
    """``(size, tail, tail_start)`` where ``tail`` spans the final line.

    Reads backwards in :data:`_TAIL_CHUNK` steps until the buffer contains a
    newline strictly before the (whitespace-stripped) final line, so repair
    cost is O(final line), not O(file) — a million-entry shard must not be
    slurped whole just to check its last line.
    """
    with path.open("rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        buf = b""
        pos = size
        while pos > 0:
            step = min(_TAIL_CHUNK, pos)
            pos -= step
            fh.seek(pos)
            buf = fh.read(step) + buf
            stripped = buf.rstrip(_WHITESPACE)
            if not stripped and pos > 0:
                continue
            if stripped.rfind(b"\n") >= 0 or pos == 0:
                break
        return size, buf, pos


def repair_torn_tail(path: Path, label: str = "JSONL file") -> int:
    """Truncate a torn (partially written) final line off a JSONL file.

    Returns the number of bytes removed (0 when the file ends cleanly or the
    final line is syntactically valid JSON; a valid final line without its
    newline gets the newline appended).  Emits a ``UserWarning`` naming the
    file when a tail is removed: the entry it belonged to was never durably
    committed, so dropping it is the only consistent recovery.
    """
    path = Path(path)
    try:
        size, buf, buf_start = _read_tail(path)
    except FileNotFoundError:
        return 0
    stripped = buf.rstrip(_WHITESPACE)
    if not stripped:
        return 0
    start = buf_start + stripped.rfind(b"\n") + 1
    tail = stripped[start - buf_start :]
    try:
        json.loads(tail.decode("utf-8", errors="replace"))
    except json.JSONDecodeError:
        pass
    else:
        if not buf.endswith(b"\n"):
            with path.open("ab") as fh:
                fh.write(b"\n")
        return 0
    removed = size - start
    with path.open("rb+") as fh:
        fh.truncate(start)
    warnings.warn(
        f"{label} {path} ended in a torn line; truncated {removed} partial "
        "bytes (the interrupted append was never durably committed)",
        UserWarning,
        stacklevel=2,
    )
    return removed
