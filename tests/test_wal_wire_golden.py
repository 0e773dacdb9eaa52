"""Log wire-format golden.

The bytes of a log record are a frozen format: archived segments, shipped
frames and on-disk logs written by one build must decode under the next,
and the log length drives sim time. This test pins

* the serialized hex of one instance of every record type, with every
  header and body field set to a non-zero value;
* the hex of a CLR wrapping each compensation the engine writes;
* the SHA-256 of the whole log after the seeded history of
  ``test_sim_invariance.py`` (which pins only the log's length), and
  again after its crash/restart.

Regenerate the golden only for a change that is *meant* to move the log
format::

    REPRO_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_wal_wire_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from test_sim_invariance import CONFIG, HISTORY_TXNS, SCALE, SEED

from repro.bench.harness import build_tpcc, make_perf_env
from repro.config import DatabaseConfig
from repro.sim.device import SLC_SSD
from repro.storage.page import PageType
from repro.wal.records import (
    FLAG_HEAP,
    FLAG_SMO,
    AbortRecord,
    AllocPageRecord,
    BeginRecord,
    CheckpointBeginRecord,
    CheckpointEndRecord,
    ClrRecord,
    CommitRecord,
    DeallocPageRecord,
    DeformatPageRecord,
    DeleteRowRecord,
    FormatPageRecord,
    InsertRowRecord,
    PageImageRecord,
    PreformatPageRecord,
    RecordType,
    SetLinksRecord,
    UpdateRowRecord,
    decode_record,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "wal_wire.json"

#: Every header field non-zero and distinct, so a swapped or dropped
#: field changes the bytes.
HEADER = dict(
    txn_id=0x0102030405,
    prev_txn_lsn=0x1112131415,
    page_id=0x2122,
    prev_page_lsn=0x3132333435,
    object_id=0x4142,
    flags=FLAG_SMO | FLAG_HEAP,
)


def record_samples() -> dict:
    """One instance of each record type, every field non-zero."""
    return {
        "BEGIN": BeginRecord(**HEADER),
        "COMMIT": CommitRecord(wall_clock=1234.5678, **HEADER),
        "ABORT": AbortRecord(**HEADER),
        "CHECKPOINT_BEGIN": CheckpointBeginRecord(
            wall_clock=99.25,
            prev_checkpoint_lsn=0x5152535455,
            active_txns=((3, 0x100), (7, 0x200)),
            **HEADER,
        ),
        "CHECKPOINT_END": CheckpointEndRecord(begin_lsn=0x6162636465, **HEADER),
        "FORMAT_PAGE": FormatPageRecord(
            page_type=int(PageType.BTREE),
            index_id=0x0203,
            level=4,
            prev_page=0x05060708,
            next_page=0x090A0B0C,
            **HEADER,
        ),
        "PREFORMAT_PAGE": PreformatPageRecord(image=bytes(range(1, 65)), **HEADER),
        "PAGE_IMAGE": PageImageRecord(
            image=bytes(range(64, 0, -1)), prev_image_lsn=0x7172737475, **HEADER
        ),
        "INSERT_ROW": InsertRowRecord(slot=0x0D0E, row=b"row-bytes", key_bytes=b"key", **HEADER),
        "DELETE_ROW": DeleteRowRecord(
            slot=0x0F10, row=b"gone", key_bytes=b"k2", pair_lsn=0x8182838485, **HEADER
        ),
        "UPDATE_ROW": UpdateRowRecord(
            slot=0x1112, old=b"before", new=b"after!", key_bytes=b"k3", **HEADER
        ),
        "SET_LINKS": SetLinksRecord(
            old_prev=0x01010101, old_next=0x02020202, new_prev=0x03030303,
            new_next=0x04040404, **HEADER,
        ),
        "ALLOC_PAGE": AllocPageRecord(target_page=0x0A0B, was_ever_allocated=True, **HEADER),
        "DEALLOC_PAGE": DeallocPageRecord(target_page=0x0C0D, clear_ever=True, **HEADER),
        "DEFORMAT_PAGE": DeformatPageRecord(
            page_type=int(PageType.HEAP), index_id=0x0304, level=5, **HEADER
        ),
        "CLR": ClrRecord(
            compensated_lsn=0x9192939495,
            undo_next_lsn=0xA1A2A3A4A5,
            comp=InsertRowRecord(slot=1, row=b"r", key_bytes=b"k", **HEADER),
            **HEADER,
        ),
    }


def clr_samples() -> dict:
    """A CLR around each compensation the engine writes (txn/undo.py and
    the B-tree's CLR-mode writes), including the absent optional blobs."""
    comps = {
        "delete_with_row": DeleteRowRecord(slot=2, row=b"victim", key_bytes=b"k", pair_lsn=0x40),
        "delete_without_row": DeleteRowRecord(slot=2, row=None, key_bytes=b"k", pair_lsn=0x40),
        "insert": InsertRowRecord(slot=3, row=b"back", key_bytes=b"k"),
        "update_with_old": UpdateRowRecord(slot=4, old=b"newer", new=b"older", key_bytes=b"k"),
        "update_without_old": UpdateRowRecord(slot=4, old=None, new=b"", key_bytes=b"k"),
        "set_links": SetLinksRecord(old_prev=8, old_next=9, new_prev=6, new_next=7),
        "page_image": PageImageRecord(image=bytes(range(32))),
        "deformat": DeformatPageRecord(page_type=int(PageType.BTREE), index_id=1, level=2),
        "alloc": AllocPageRecord(target_page=12, was_ever_allocated=True),
        "dealloc": DeallocPageRecord(target_page=12, clear_ever=True),
    }
    samples = {}
    for name, comp in comps.items():
        comp.page_id, comp.object_id, comp.flags = 0x2122, 0x4142, FLAG_SMO
        samples[name] = ClrRecord(
            compensated_lsn=0x9192939495,
            undo_next_lsn=0xA1A2A3A4A5,
            comp=comp,
            page_id=comp.page_id,
            object_id=comp.object_id,
            flags=comp.flags,
            txn_id=0x0102030405,
            prev_txn_lsn=0x1112131415,
            prev_page_lsn=0x3132333435,
        )
    return samples


def _log_sha256(db) -> str:
    return hashlib.sha256(db.log.read_bytes(db.log.start_lsn, db.log.end_lsn)).hexdigest()


def log_digests() -> dict:
    """Log SHA-256 after the sim-invariance history and after its restart."""
    env = make_perf_env(SLC_SSD)
    _engine, db, driver = build_tpcc(env, SCALE, config=DatabaseConfig(**CONFIG), seed=SEED)
    driver.run_transactions(HISTORY_TXNS)
    digests = {"history": _log_sha256(db)}
    db.crash()
    db.recover()
    digests["restart"] = _log_sha256(db)
    return digests


def observe() -> dict:
    return {
        "records": {k: r.serialize().hex() for k, r in record_samples().items()},
        "clr": {k: r.serialize().hex() for k, r in clr_samples().items()},
        "log_sha256": log_digests(),
    }


def _golden() -> dict:
    if os.environ.get("REPRO_WRITE_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(observe(), indent=1) + "\n")
    return json.loads(GOLDEN.read_text())


def test_every_record_type_has_a_sample():
    assert set(record_samples()) == {t.name for t in RecordType}


def test_record_bytes_match_the_golden():
    golden = _golden()
    for group, samples in (("records", record_samples()), ("clr", clr_samples())):
        assert set(samples) == set(golden[group]), group
        for name, rec in samples.items():
            expected = bytes.fromhex(golden[group][name])
            assert rec.serialize() == expected, f"{group}/{name}"
            decoded, end = decode_record(expected, 0)
            assert end == len(expected)
            assert type(decoded) is type(rec)
            assert decoded.serialize() == expected, f"{group}/{name} re-serialized"


def test_log_bytes_match_the_golden():
    assert log_digests() == _golden()["log_sha256"]
