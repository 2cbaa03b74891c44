"""One line-validity rule for every reader of the JSONL stores.

The record store's load, the registry's shard scan and the registry's import
all read lines through :func:`repro.jsonl.read_lines`: a line that is not
UTF-8, not JSON or not the store's own record is skipped and counted, or,
under ``strict=True``, rejected with a ``ValueError`` naming ``path:line``.
"""

import json
import re

import pytest

from repro.records import MeasureRecord, RecordStore
from repro.serving.registry import RegistryEntry, ScheduleRegistry

#: Bad middle lines: not UTF-8, and valid JSON that is no store's record.
BAD_LINES = {"not-utf8": b"\xff\xfe", "json-array": b"[1, 2]"}


def _measure_line(i):
    record = MeasureRecord(
        workload="wl", latency=1.0, throughput=1.0, trial_index=i, schedule={"stub": i}
    )
    return json.dumps({"kind": "measure", **record.to_dict()}).encode()


def _entry_line(i):
    entry = RegistryEntry(
        fingerprint=f"wl-{i:02d}",
        target="sim-cpu",
        workload=f"workload_{i}",
        latency=1.0,
        throughput=1.0,
        trials=4,
        scheduler="harl",
        schedule={"stub": i},
    )
    return json.dumps(entry.to_dict()).encode()


def _load_records(path, strict):
    with RecordStore(path, strict=strict) as store:
        return len(store.query(kind="measure")), store.skipped_lines


def _scan_shard(path, strict):
    with ScheduleRegistry(path.parent, num_shards=1, strict=strict) as registry:
        return len(registry), registry.skipped_lines


def _import_export(path, strict):
    with ScheduleRegistry(path.parent / "registry", num_shards=1, strict=strict) as registry:
        return registry.import_file(path), registry.skipped_lines


#: reader -> (the file it reads, one good line of that file, how to read it)
READERS = {
    "record-store": ("records.jsonl", _measure_line, _load_records),
    "shard-scan": ("registry/shard-00.jsonl", _entry_line, _scan_shard),
    "import": ("export.jsonl", _entry_line, _import_export),
}


def _read(tmp_path, reader, bad, strict):
    """Read three good lines with the bad one second (so not a torn tail)."""
    name, good_line, read = READERS[reader]
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [good_line(0), BAD_LINES[bad], good_line(1), good_line(2)]
    path.write_bytes(b"\n".join(lines) + b"\n")
    return read(path, strict)


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_bad_line_is_skipped_and_counted(tmp_path, reader, bad):
    loaded, skipped = _read(tmp_path, reader, bad, strict=False)
    assert (loaded, skipped) == (3, 1)


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_bad_line_is_named_under_strict(tmp_path, reader, bad):
    where = f"{tmp_path / READERS[reader][0]}:2"
    with pytest.raises(ValueError, match=f"corrupted .* at {re.escape(where)}"):
        _read(tmp_path, reader, bad, strict=True)
