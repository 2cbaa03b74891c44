"""Load client of the ``serve-zipf`` workload: ``repro.serving.loadgen`` in
a process of its own.

Runs apart from the server so that its threads never compete with the
server's threads for one interpreter lock.  Reads one JSON job from stdin::

    {"port": 4711, "config": {"clients": 2, "seed": 7}}

replays :func:`repro.serving.loadgen.run_load` with
``LoadGenConfig(**config)`` against ``127.0.0.1:port`` and prints one JSON
object to stdout: loadgen's ``repro-loadgen/1`` report and every reply::

    {"report": {...}, "replies": [[client, op, batch, ok, degraded, source,
                                   workload, latency, trials_used, error_code,
                                   began_s, ended_s], ...]}

``run_load`` reports only aggregates, so the replies are taken by replacing
the ``TuningClient`` that ``loadgen`` imported by name with a subclass that
keeps each one.  A request whose transport retries are exhausted is kept
with ``ok = false`` and error code ``unanswered``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import ClassVar

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.serving import loadgen  # noqa: E402
from repro.serving.netclient import NetClientError, TuningClient  # noqa: E402


class _RecordingClient(TuningClient):
    """A ``TuningClient`` that appends every ``tune`` reply to ``REPLIES``."""

    REPLIES: ClassVar[list] = []

    def tune(self, op, batch=1, trials=16, tenant="default", force_tune=False):
        client = threading.current_thread().name
        began = time.perf_counter()
        try:
            reply = super().tune(op, batch, trials, tenant, force_tune)
        except NetClientError:
            self.REPLIES.append([client, op, batch, False, False, "", "", 0.0, 0, "unanswered",
                                 began, time.perf_counter()])
            raise
        self.REPLIES.append([
            client, op, batch, reply.ok, reply.degraded, reply.source,
            str(reply.result.get("workload", "")), float(reply.result.get("latency", 0.0)),
            reply.trials_used, reply.error_code, began, began + reply.elapsed,
        ])
        return reply


def main() -> int:
    job = json.load(sys.stdin)
    loadgen.TuningClient = _RecordingClient
    report = loadgen.run_load("127.0.0.1", int(job["port"]), loadgen.LoadGenConfig(**job["config"]))
    json.dump({"report": report, "replies": _RecordingClient.REPLIES}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
