"""The shared file code of the append-only JSONL stores.

Both persistent stores (:class:`~repro.records.RecordStore` and the
:class:`~repro.serving.registry.ScheduleRegistry` shards) keep one ASCII JSON
object per line.  :class:`AppendLog` appends a line with a single ``write``
+ ``flush``, and :func:`read_lines` parses lines under one validity rule.

A process killed inside an append leaves a *torn tail*: a strict prefix of
the final line, almost never valid JSON and usually without a trailing
newline.  Merely *skipping* that line at load time is not enough — the next
append would concatenate onto the torn prefix and one *good* entry would be
corrupted.  :func:`repair_torn_tail` therefore physically truncates the
torn tail (and warns), restoring the one-object-per-line invariant before
any parsing or appending happens.

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
from typing import IO, Any, Callable, Iterator, Optional, Tuple, TypeVar

from repro.faults.plan import FiredFault

__all__ = ["AppendLog", "read_lines", "repair_torn_tail"]

T = TypeVar("T")

#: How many bytes of tail to pull in per backwards step while hunting for the
#: final newline.  A torn line is one JSON object (a few hundred bytes), so
#: the first chunk almost always suffices; the loop only matters for
#: pathological single-line files.
_TAIL_CHUNK = 64 * 1024

_WHITESPACE = b" \t\r\n"


class AppendLog:
    """One append-only JSONL file, opened lazily in binary append mode.

    Takes no lock: its owner serialises ``append`` and ``close`` under its own.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh: Optional[IO[bytes]] = None

    def append(self, line: bytes, fired: Optional[FiredFault]) -> int:
        """Append one newline-terminated line; returns the offset it starts at.

        ``fired`` is what the owner's own fault poll returned, enacted the
        same way at every append point: ``slow_disk`` stalls, then appends;
        ``torn_write`` writes and flushes a torn prefix, then raises
        ``InjectedCrash``; ``enospc`` does the same but raises
        ``OSError(ENOSPC)``; ``crash`` raises ``InjectedCrash`` before
        writing a byte.  On ``OSError`` the file is truncated back to where
        the line began, so a retry appends a clean line; a torn write's
        prefix is left for :func:`repair_torn_tail`, as a real death would.
        """
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("ab")
        fh = self._fh
        # Append mode leaves the initial position platform-defined; pin it to
        # the end so the returned offset (and a rollback to it) is exact.
        offset = fh.seek(0, os.SEEK_END)
        try:
            if fired is not None:
                kind = fired.spec.kind
                if kind == "slow_disk":
                    fired.sleep()
                elif kind == "crash":
                    fired.crash(f"died before appending to {self.path.name}")
                else:  # torn_write, enospc
                    fh.write(fired.torn_prefix(line))
                    fh.flush()
                    if kind == "enospc":
                        fired.raise_enospc()
                    fired.crash(f"died mid-append to {self.path.name}")
            fh.write(line)
            fh.flush()
        except OSError:
            try:
                fh.truncate(offset)
            except OSError:
                pass  # the disk is truly wedged; load-time repair takes over
            raise
        return offset

    def close(self) -> None:
        """Close the file handle (idempotent; the next append reopens it)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_lines(
    blob: bytes, parse: Callable[[Any], T], *, strict: bool, path: Path, what: str
) -> Iterator[Tuple[int, int, int, Optional[T]]]:
    """Parse a JSONL file's bytes into ``(lineno, offset, length, value)``.

    One tuple per non-blank line: ``lineno`` counts from 1, ``offset`` and
    ``length`` span the raw line with its newline, and ``value`` is
    ``parse(json.loads(line))``.  A line that is not UTF-8, not JSON, or that
    ``parse`` rejects (``ValueError``, ``KeyError``, ``TypeError``) is
    corrupted: its ``value`` is ``None`` for the caller to count as skipped,
    or, under ``strict``, it raises ``ValueError`` naming ``path:lineno``
    (``path`` is the file the bytes were read from).
    """
    end = 0
    for lineno, raw in enumerate(blob.splitlines(keepends=True), start=1):
        offset, end = end, end + len(raw)
        text = raw.strip()
        if not text:
            continue
        try:
            value: Optional[T] = parse(json.loads(text.decode("utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise ValueError(f"corrupted {what} at {path}:{lineno}: {exc}") from exc
            value = None
        yield lineno, offset, len(raw), value


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
