"""The table-driven record codec: every ``BODY`` kind round-trips, the
derived constructor keeps its contract, and a body that does not exactly
fill its record is rejected."""

from __future__ import annotations

import os
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogRecordDecodeError, WalError
from repro.replication.stream import LogFrame
from repro.storage.page import NULL_PAGE, PageType
from repro.tools.loginspect import lint_log_segments
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import (
    _REGISTRY,
    BLOB,
    BOOL,
    F64,
    HEADER_SIZE,
    OPT_BLOB,
    PAIRS,
    RECORD,
    U8,
    U16,
    U32,
    U64,
    ZERO,
    CheckpointBeginRecord,
    ClrRecord,
    CommitRecord,
    DeleteRowRecord,
    InsertRowRecord,
    LogRecord,
    RecordType,
    UpdateRowRecord,
    decode_record,
    record_extent,
)

HEADER_FIELDS = ("flags", "txn_id", "prev_txn_lsn", "page_id", "prev_page_lsn", "object_id")


def reseal(blob) -> bytes:
    """Rewrite a hand-edited record's length and CRC so that only its body
    is malformed (what a buggy writer, not a torn tail, would produce)."""
    blob = bytearray(blob)
    struct.pack_into("<I", blob, 0, len(blob))
    struct.pack_into("<I", blob, HEADER_SIZE - 4, 0)
    struct.pack_into("<I", blob, HEADER_SIZE - 4, zlib.crc32(blob))
    return bytes(blob)


def overlong_row_record() -> bytes:
    """An insert whose ``row`` length field claims 4 bytes more than the
    row holds, swallowing the ``key_bytes`` length field."""
    blob = bytearray(InsertRowRecord(slot=1, row=b"hello", key_bytes=b"k", page_id=3).serialize())
    row_len_at = HEADER_SIZE + 2
    assert struct.unpack_from("<I", blob, row_len_at)[0] == 5
    struct.pack_into("<I", blob, row_len_at, 10)
    return reseal(blob)


# ---------------------------------------------------------------------------
# Malformed bodies fail with a typed error
# ---------------------------------------------------------------------------


class TestMalformedBody:
    def test_resealed_record_is_otherwise_valid(self):
        blob = reseal(InsertRowRecord(slot=1, row=b"hello", key_bytes=b"k").serialize())
        rec, end = decode_record(blob, 0)
        assert (rec.row, rec.key_bytes, end) == (b"hello", b"k", len(blob))

    def test_overlong_blob_length_is_rejected(self):
        with pytest.raises(LogRecordDecodeError, match="key_bytes"):
            decode_record(overlong_row_record(), 0)

    def test_trailing_bytes_inside_the_record_are_rejected(self):
        blob = InsertRowRecord(slot=1, row=b"hello", key_bytes=b"k").serialize()
        with pytest.raises(LogRecordDecodeError, match="3 bytes before"):
            decode_record(reseal(blob + b"xyz"), 0)

    def test_pair_count_beyond_the_record_is_rejected(self):
        rec = CheckpointBeginRecord(wall_clock=1.0, prev_checkpoint_lsn=8, active_txns=((3, 9),))
        blob = bytearray(rec.serialize())
        count_at = HEADER_SIZE + 16
        assert struct.unpack_from("<I", blob, count_at)[0] == 1
        for count in (1000, 2**32 - 1):
            struct.pack_into("<I", blob, count_at, count)
            with pytest.raises(LogRecordDecodeError, match="active_txns"):
                decode_record(reseal(blob), 0)

    def test_fixed_field_past_the_end_is_rejected(self):
        blob = CheckpointBeginRecord(wall_clock=1.0).serialize()
        with pytest.raises(LogRecordDecodeError, match="runs past"):
            decode_record(reseal(blob[: HEADER_SIZE + 10]), 0)

    def test_missing_nested_record_is_rejected(self):
        blob = ClrRecord(comp=InsertRowRecord(slot=1)).serialize()
        # Cut the CLR right after its two LSNs: the nested record is gone.
        with pytest.raises(LogRecordDecodeError, match="comp"):
            decode_record(reseal(blob[: HEADER_SIZE + 16]), 0)

    def test_nested_record_shorter_than_its_blob_is_rejected(self):
        comp = InsertRowRecord(slot=1, row=b"r").serialize()
        body = struct.pack("<QQI", 5, 6, len(comp) + 2) + comp + b"\0\0"
        blob = ClrRecord(comp=InsertRowRecord()).serialize()[:HEADER_SIZE] + body
        with pytest.raises(LogRecordDecodeError, match="nested record"):
            decode_record(reseal(blob), 0)

    def test_archived_segment_with_malformed_body_yields_log002(self, tmp_path):
        good = InsertRowRecord(slot=0, row=bytes(20), page_id=1).serialize()
        payload = good + overlong_row_record()
        end = FIRST_LSN + len(payload)
        path = os.path.join(str(tmp_path), f"t-{FIRST_LSN:016x}-{end:016x}.seg")
        with open(path, "wb") as handle:
            handle.write(LogFrame(FIRST_LSN, payload, ship_wall=0.0).encode())
        findings = lint_log_segments(str(tmp_path))
        assert [f.rule for f in findings] == ["LOG002"]
        assert f"{FIRST_LSN + len(good):#x}" in findings[0].message


def test_record_extent_reads_length_and_type_from_the_header():
    blob = InsertRowRecord(slot=1, row=b"abc").serialize()
    assert record_extent(blob + b"more", 0) == (len(blob), RecordType.INSERT_ROW)
    with pytest.raises(LogRecordDecodeError):
        record_extent(blob, 0, limit=len(blob) - 1)


# ---------------------------------------------------------------------------
# Registry-wide round trip
# ---------------------------------------------------------------------------


def test_every_record_type_has_a_registered_class():
    assert sorted(_REGISTRY) == sorted(int(t) for t in RecordType)
    for rtype, cls in _REGISTRY.items():
        assert cls.TYPE == rtype
        assert cls.__slots__ == tuple(cls.BODY)


def _uint(bits: int):
    return st.integers(min_value=0, max_value=2**bits - 1)


_CLASSES = sorted(_REGISTRY.values(), key=lambda cls: cls.TYPE)

_KIND_VALUES = {
    U8: _uint(8),
    U16: _uint(16),
    U32: _uint(32),
    U64: _uint(64),
    F64: st.floats(allow_nan=False),
    BOOL: st.booleans(),
    BLOB: st.binary(max_size=64),
    OPT_BLOB: st.none() | st.binary(max_size=64),
    PAIRS: st.lists(st.tuples(_uint(64), _uint(64)), max_size=5).map(tuple),
}

_HEADER_VALUES = {
    "flags": _uint(8),
    "txn_id": _uint(64),
    "prev_txn_lsn": _uint(64),
    "page_id": _uint(32),
    "prev_page_lsn": _uint(64),
    "object_id": _uint(32),
}


def record_of(cls):
    """Instances of ``cls`` with every header and body field drawn per
    its kind; a ``RECORD`` field nests a record of a class without one."""
    fields = {
        name: _nested() if kind is RECORD else _KIND_VALUES[kind]
        for name, kind in cls.BODY.items()
    }
    return st.fixed_dictionaries({**_HEADER_VALUES, **fields}).map(lambda kw: cls(**kw))


def _nested():
    plain = [cls for cls in _CLASSES if RECORD not in cls.BODY.values()]
    return st.sampled_from(plain).flatmap(record_of)


def assert_same_fields(a: LogRecord, b: LogRecord) -> None:
    assert type(a) is type(b)
    for name in HEADER_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    for name, kind in a.BODY.items():
        if kind is RECORD:
            assert_same_fields(getattr(a, name), getattr(b, name))
        else:
            assert getattr(a, name) == getattr(b, name), name


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), lsn=_uint(64))
def test_every_registered_class_round_trips(cls, data, lsn):
    rec = data.draw(record_of(cls))
    blob = rec.serialize()
    decoded, end = decode_record(blob, 0, lsn)
    assert end == len(blob)
    assert decoded.lsn == lsn
    assert_same_fields(rec, decoded)
    assert decoded.serialize() == blob


@settings(max_examples=50, deadline=None)
@given(recs=st.lists(st.sampled_from(_CLASSES).flatmap(record_of), max_size=6))
def test_a_stream_of_records_decodes_back_to_back(recs):
    stream = b"".join(rec.serialize() for rec in recs)
    offset, decoded = 0, []
    while offset < len(stream):
        rec, offset = decode_record(stream, offset)
        decoded.append(rec)
    assert offset == len(stream)
    assert [r.serialize() for r in decoded] == [r.serialize() for r in recs]


# ---------------------------------------------------------------------------
# Constructor contract
# ---------------------------------------------------------------------------


class TestConstructor:
    def test_unknown_keyword_raises_type_error(self):
        with pytest.raises(TypeError):
            InsertRowRecord(slot=1, colour="red")

    def test_body_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            InsertRowRecord(1, b"row")

    def test_missing_nested_record_raises_wal_error(self):
        with pytest.raises(WalError):
            ClrRecord(compensated_lsn=1, undo_next_lsn=0)

    @pytest.mark.parametrize(
        "cls",
        [cls for cls in _CLASSES if RECORD not in cls.BODY.values()],
        ids=lambda cls: cls.__name__,
    )
    def test_omitted_fields_take_their_zero_value(self, cls):
        rec = cls()
        assert rec.lsn == NULL_LSN
        for name in HEADER_FIELDS:
            assert getattr(rec, name) == 0, name
        for name, kind in cls.BODY.items():
            assert getattr(rec, name) == ZERO[kind], name
            assert type(getattr(rec, name)) is type(ZERO[kind]), name

    def test_zero_values_are_the_former_defaults(self):
        assert NULL_LSN == NULL_PAGE == PageType.UNFORMATTED == 0
        assert DeleteRowRecord().row is None and UpdateRowRecord().old is None
        assert CheckpointBeginRecord().active_txns == ()
        assert CommitRecord().wall_clock == 0.0

    def test_clr_omitted_fields_take_their_zero_value(self):
        rec = ClrRecord(comp=InsertRowRecord())
        assert (rec.compensated_lsn, rec.undo_next_lsn, rec.page_id) == (0, 0, 0)
