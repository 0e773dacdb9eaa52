"""Log record types, their serialization, and their redo/undo semantics.

Every record that modifies a page carries ``prev_page_lsn`` — the page's
LSN before this modification — forming the per-page back-chain that
``PreparePageAsOf`` (paper section 4) walks. Records expose two operations:

* ``redo(page)`` — replay the modification (ARIES redo pass, restore
  roll-forward). Physiological: a logical operation on an identified page.
* ``physical_undo(page, fetch)`` — exactly invert the modification on the
  page, used by page-oriented undo while walking the chain in reverse.
  ``fetch`` is a callable ``lsn -> LogRecord`` used to *derive* undo
  information that the paper's section 4.2 extensions would have embedded:
  a structure-modification delete without a row image derives it from its
  paired insert; a CLR without undo info derives it from the record it
  compensates. Derivation costs extra log reads — the trade-off the paper
  calls out when it "chooses simplicity over optimizing the size".

Transaction rollback does **not** use ``physical_undo`` for ordinary row
operations; it performs *logical* undo (re-locating the row by key) because
other transactions may have shifted slots or structure modifications may
have moved rows to other pages. Rollback lives in
:mod:`repro.txn.manager`; the per-record payloads here (``key_bytes``,
``row``) are what it consumes.

Wire format
-----------
A record is the fixed 42-byte ``_HEADER`` (length, type, flags, chain
fields, object id, CRC-32) plus a body. Each record class declares its
body once, as an ordered ``BODY = {field: kind}`` with
``__slots__ = tuple(BODY)``. Fields are packed little-endian in ``BODY``
order; each omitted constructor argument takes its kind's zero value:

* ``U8``/``U16``/``U32``/``U64``/``F64``/``BOOL`` — fixed width
  (``struct`` codes ``B H I Q d ?``); zero ``0``/``0.0``/``False``.
* ``BLOB`` — u32 length + bytes; zero ``b""``.
* ``OPT_BLOB`` — u8 present flag, then a ``BLOB``; zero ``None``.
* ``PAIRS`` — u32 count + ``(u64, u64)`` pairs; zero ``()``.
* ``RECORD`` — a nested record (a CLR's ``comp``) inside a ``BLOB``; no
  zero value: omitting it raises :class:`WalError`.

Header fields default to 0 (= ``NULL_LSN`` = ``NULL_PAGE``). From
``BODY`` each class derives a keyword-only constructor and a plan that
the one generic packer and unpacker below follow. The unpacker checks
every length and count against the record's end and requires the body to
fill the record exactly, so a malformed record raises
:class:`LogRecordDecodeError` rather than decoding to wrong values.
"""

from __future__ import annotations

import enum
import struct
import zlib
from operator import attrgetter
from typing import NamedTuple

from repro.errors import LogRecordDecodeError, MissingUndoInfoError, WalError
from repro.storage.page import Page, PageType, alloc_bitmap_geometry, ever_bit_offset
from repro.wal.lsn import NULL_LSN, format_lsn

#: Magic bytes opening the log stream (LSN space starts after them).
LOG_HEADER_MAGIC = b"REPROLOG"

#: Record flag: part of a B-tree structure modification (system transaction).
FLAG_SMO = 0x01
#: Record flag: heap row (rollback tombstones instead of key lookup).
FLAG_HEAP = 0x02

#: total, type, flags, txn_id, prev_txn_lsn, page_id, prev_page_lsn,
#: object_id, crc.
_HEADER = struct.Struct("<IBBQQIQII")
HEADER_SIZE = _HEADER.size  # 42 bytes
#: The CRC is the header's last field, computed with itself zeroed.
_CRC_AT = HEADER_SIZE - 4
_CRC_ZERO = bytes(4)


class RecordHeader(NamedTuple):
    """A decoded record header, without the body.

    The per-page back-chain (``prev_page_lsn``) and the per-transaction
    chain (``prev_txn_lsn``) both live in the fixed-size header, so chain
    *discovery* never needs record bodies: the batched undo path walks
    headers first, then fetches the full records in one coalesced pass
    (:meth:`repro.wal.log_manager.LogManager.read_many`).
    """

    lsn: int
    total: int
    record_type: int
    flags: int
    txn_id: int
    prev_txn_lsn: int
    page_id: int
    prev_page_lsn: int
    object_id: int

    def __repr__(self) -> str:
        return (
            f"RecordHeader(lsn={format_lsn(self.lsn)}, "
            f"type={self.record_type}, page={self.page_id}, "
            f"prev_page={format_lsn(self.prev_page_lsn)})"
        )


def _header_at(data, offset: int, limit: int) -> tuple:
    """The raw header fields of the record at ``offset``, after checking
    that the whole record lies within ``data[:limit]``."""
    if offset + HEADER_SIZE > limit:
        raise LogRecordDecodeError(f"truncated header at offset {offset}")
    fields = _HEADER.unpack_from(data, offset)
    total = fields[0]
    if total < HEADER_SIZE or offset + total > limit:
        raise LogRecordDecodeError(
            f"truncated record at offset {offset} (claims {total} bytes)"
        )
    return fields


def record_extent(data, offset: int, limit: int | None = None) -> tuple[int, int]:
    """``(total length, record type)`` of the record at ``offset``, read
    from its header alone (no CRC check, no body decode).

    Raises :class:`LogRecordDecodeError` unless the whole record lies
    within ``data[:limit]`` (default: all of ``data``) — how the log
    manager frames shipped batches and validates ingested ones.
    """
    fields = _header_at(data, offset, len(data) if limit is None else limit)
    return fields[0], fields[1]


def unpack_header(data, offset: int, lsn: int = NULL_LSN) -> RecordHeader:
    """Decode only the fixed-size header of the record at ``offset``."""
    return RecordHeader(lsn, *_header_at(data, offset, len(data))[:-1])


class RecordType(enum.IntEnum):
    """Wire discriminator for log records."""

    BEGIN = 1
    COMMIT = 2
    ABORT = 3
    CHECKPOINT_BEGIN = 4
    CHECKPOINT_END = 5
    FORMAT_PAGE = 6
    PREFORMAT_PAGE = 7
    PAGE_IMAGE = 8
    INSERT_ROW = 9
    DELETE_ROW = 10
    UPDATE_ROW = 11
    SET_LINKS = 12
    ALLOC_PAGE = 13
    DEALLOC_PAGE = 14
    DEFORMAT_PAGE = 15
    CLR = 16


# ---------------------------------------------------------------------------
# Body field kinds and the generic body codec
# ---------------------------------------------------------------------------

U8, U16, U32, U64, F64, BOOL = "B", "H", "I", "Q", "d", "?"
BLOB, OPT_BLOB, PAIRS, RECORD = "blob", "opt_blob", "pairs", "record"

#: Each kind's zero value: the constructor default of an omitted field.
ZERO = {
    U8: 0, U16: 0, U32: 0, U64: 0, F64: 0.0, BOOL: False,
    BLOB: b"", OPT_BLOB: None, PAIRS: (), RECORD: None,
}

_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<QQ")

#: Plan step kinds for fixed-width fields: one field, or a run of
#: adjacent ones sharing a single precompiled struct.
_ONE, _RUN = "one", "run"

#: Header fields every record carries, in wire order after the type.
_HEADER_FIELDS = ("flags", "txn_id", "prev_txn_lsn", "page_id", "prev_page_lsn", "object_id")


def _plan(body: dict) -> tuple:
    """Compile ``BODY`` into ``(kind, name(s), struct, getter)`` steps."""
    steps = []
    run: list[str] = []

    def close_run() -> None:
        if run:
            fmt = struct.Struct("<" + "".join(body[name] for name in run))
            kind, names = (_ONE, run[0]) if len(run) == 1 else (_RUN, tuple(run))
            steps.append((kind, names, fmt, attrgetter(*run)))
            run.clear()

    for name, kind in body.items():
        if kind in (BLOB, OPT_BLOB, PAIRS, RECORD):
            close_run()
            steps.append((kind, name, None, attrgetter(name)))
        else:
            run.append(name)
    close_run()
    return tuple(steps)


def _make_init(cls):
    """A keyword-only ``__init__`` for ``cls``, generated from its
    ``BODY`` the way :mod:`dataclasses` builds one (a loop over
    ``**kwargs`` would cost every record construction on the insert
    path)."""
    body = cls.BODY
    params = [f"{name}={ZERO[kind]!r}" for name, kind in body.items()]
    params += [f"{name}=0" for name in _HEADER_FIELDS]
    lines = ["self.lsn = NULL_LSN"]
    lines += [f"self.{name} = {name}" for name in (*_HEADER_FIELDS, *body)]
    lines += [
        f"if {name} is None: raise WalError('{cls.__name__} requires {name}')"
        for name, kind in body.items()
        if kind is RECORD
    ]
    source = f"def __init__(self, *, {', '.join(params)}):\n" + "".join(
        f"    {line}\n" for line in lines
    )
    namespace: dict = {}
    exec(source, {"NULL_LSN": NULL_LSN, "WalError": WalError}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _pack_body(rec, out: bytearray) -> None:
    """Append ``rec``'s body to ``out``, field by field per its plan."""
    for kind, _name, fmt, get in rec._PLAN:
        if kind is _ONE:
            out += fmt.pack(get(rec))
        elif kind is _RUN:
            out += fmt.pack(*get(rec))
        else:
            value = get(rec)
            if kind is OPT_BLOB:
                out.append(value is not None)
                if value is None:
                    continue
            elif kind is PAIRS:
                out += _U32.pack(len(value))
                for pair in value:
                    out += _PAIR.pack(*pair)
                continue
            elif kind is RECORD:
                value = value.serialize()
            out += _U32.pack(len(value))
            out += value


def _unpack_body(rec, mv: memoryview, pos: int, end: int) -> None:
    """Set ``rec``'s body fields from ``mv[pos:end]`` per its plan.

    Every step checks its extent against ``end`` *before* reading or
    allocating, and the body must end exactly at ``end``.
    """
    for kind, name, fmt, _get in rec._PLAN:
        if kind is _ONE:
            nxt = pos + fmt.size
            if nxt > end:
                break
            setattr(rec, name, fmt.unpack_from(mv, pos)[0])
        elif kind is _RUN:
            nxt = pos + fmt.size
            if nxt > end:
                break
            for field, value in zip(name, fmt.unpack_from(mv, pos), strict=True):
                setattr(rec, field, value)
        elif kind is OPT_BLOB and pos < end and not mv[pos]:
            nxt = pos + 1
            setattr(rec, name, None)
        else:
            if kind is OPT_BLOB:
                pos += 1
            start = pos + 4
            if start > end:
                break
            (count,) = _U32.unpack_from(mv, pos)
            nxt = start + (count * _PAIR.size if kind is PAIRS else count)
            if nxt > end:
                break
            if kind is PAIRS:
                value = tuple(_PAIR.iter_unpack(mv[start:nxt]))
            elif kind is RECORD:
                # A module-global lookup, so tracing that wraps
                # decode_record also sees the nested decode.
                value, comp_end = decode_record(mv, start)
                if comp_end != nxt:
                    raise LogRecordDecodeError(
                        f"{type(rec).__name__}.{name}: nested record ends at "
                        f"{comp_end}, its length field says {nxt}"
                    )
            else:
                value = mv[start:nxt].tobytes()
            setattr(rec, name, value)
        pos = nxt
    else:
        if pos == end:
            return
        raise LogRecordDecodeError(
            f"{type(rec).__name__} body ends {end - pos} bytes before the record"
        )
    # A ``break`` above: the field runs past the record's end.
    raise LogRecordDecodeError(
        f"{type(rec).__name__}.{name} runs past the record end at {end}"
    )


_REGISTRY: dict[int, type] = {}


class LogRecord:
    """Base class: common header fields plus redo/undo protocol."""

    TYPE: RecordType
    #: Ordered ``{field: kind}`` body declaration (see the module docstring).
    BODY: dict = {}
    #: Participates in a page's modification chain (has a meaningful
    #: page_id / prev_page_lsn). Note page 0 (boot) is a real page, so this
    #: cannot be inferred from ``page_id != 0``.
    IS_PAGE_MOD = False
    #: Transaction rollback generates a CLR for this record.
    UNDOABLE_IN_ROLLBACK = False

    __slots__ = ("lsn", *_HEADER_FIELDS)
    _PLAN = ()

    def __init_subclass__(cls, **kw) -> None:
        super().__init_subclass__(**kw)
        cls._PLAN = _plan(cls.BODY)
        cls.__init__ = _make_init(cls)
        if hasattr(cls, "TYPE"):
            _REGISTRY[int(cls.TYPE)] = cls

    @property
    def is_smo(self) -> bool:
        return bool(self.flags & FLAG_SMO)

    @property
    def is_heap(self) -> bool:
        return bool(self.flags & FLAG_HEAP)

    # -- serialization -------------------------------------------------

    def serialize(self) -> bytes:
        out = bytearray(HEADER_SIZE)
        _pack_body(self, out)
        _HEADER.pack_into(
            out, 0, len(out), self.TYPE, self.flags, self.txn_id, self.prev_txn_lsn,
            self.page_id, self.prev_page_lsn, self.object_id, 0,
        )
        _U32.pack_into(out, _CRC_AT, zlib.crc32(out))
        return bytes(out)

    # -- redo / physical undo -------------------------------------------

    def redo(self, page: Page, fetch=None) -> None:
        """Replay this modification on ``page``."""
        raise WalError(f"{type(self).__name__} is not redoable on a page")

    def physical_undo(self, page: Page, fetch=None) -> None:
        """Exactly invert this modification on ``page``.

        Called by page-oriented undo while walking a page's chain in
        strict reverse order, so slot references are valid by construction.
        """
        raise WalError(f"{type(self).__name__} is not physically undoable")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(lsn={format_lsn(self.lsn)}, "
            f"txn={self.txn_id}, page={self.page_id}, "
            f"prev_page={format_lsn(self.prev_page_lsn)})"
        )


LogRecord.__init__ = _make_init(LogRecord)


def decode_record(data, offset: int, lsn: int = NULL_LSN) -> tuple[LogRecord, int]:
    """Decode one record at ``offset``; returns (record, end offset).

    Raises :class:`LogRecordDecodeError` on truncation, CRC mismatch, an
    unknown type, or a body that does not exactly fill the record — the
    signal recovery uses to find the end of a torn log tail.
    """
    fields = _header_at(data, offset, len(data))
    total, rtype, flags, txn_id, prev_txn_lsn, page_id, prev_page_lsn, object_id, crc = fields
    end = offset + total
    cls = _REGISTRY.get(rtype)
    with memoryview(data) as mv:
        check = zlib.crc32(mv[offset : offset + _CRC_AT])
        check = zlib.crc32(_CRC_ZERO, check)
        if zlib.crc32(mv[offset + HEADER_SIZE : end], check) != crc:
            raise LogRecordDecodeError(f"CRC mismatch at offset {offset}")
        if cls is None:
            raise LogRecordDecodeError(f"unknown record type {rtype} at {offset}")
        rec = object.__new__(cls)
        rec.lsn = lsn
        rec.flags = flags
        rec.txn_id = txn_id
        rec.prev_txn_lsn = prev_txn_lsn
        rec.page_id = page_id
        rec.prev_page_lsn = prev_page_lsn
        rec.object_id = object_id
        _unpack_body(rec, mv, offset + HEADER_SIZE, end)
    return rec, end


# ---------------------------------------------------------------------------
# Transaction control records
# ---------------------------------------------------------------------------


class BeginRecord(LogRecord):
    """Transaction start."""

    TYPE = RecordType.BEGIN
    __slots__ = ()


class CommitRecord(LogRecord):
    """Transaction commit; carries the wall-clock time used by SplitLSN
    search (section 5.1)."""

    TYPE = RecordType.COMMIT
    BODY = {"wall_clock": F64}
    __slots__ = tuple(BODY)


class AbortRecord(LogRecord):
    """Transaction fully rolled back (end of its log chain)."""

    TYPE = RecordType.ABORT
    __slots__ = ()


class CheckpointBeginRecord(LogRecord):
    """Checkpoint start: wall clock, back-pointer to the previous
    checkpoint (navigated by SplitLSN search), and the active-transaction
    table (consumed by as-of snapshot recovery's analysis pass)."""

    TYPE = RecordType.CHECKPOINT_BEGIN
    BODY = {
        "wall_clock": F64,
        "prev_checkpoint_lsn": U64,
        #: (txn_id, last_lsn) pairs.
        "active_txns": PAIRS,
    }
    __slots__ = tuple(BODY)


class CheckpointEndRecord(LogRecord):
    """Checkpoint completion marker."""

    TYPE = RecordType.CHECKPOINT_END
    BODY = {"begin_lsn": U64}
    __slots__ = tuple(BODY)


# ---------------------------------------------------------------------------
# Page lifecycle records
# ---------------------------------------------------------------------------


class FormatPageRecord(LogRecord):
    """Page formatted for an object (first write of an allocation).

    Starts a page's modification chain. On re-allocation the chain is
    preceded by a :class:`PreformatPageRecord` (``prev_page_lsn`` points at
    it) so page-oriented undo can cross into the prior incarnation — the
    fix for the broken chain of paper Figure 1.
    """

    TYPE = RecordType.FORMAT_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    BODY = {
        "page_type": U8,
        "index_id": U16,
        "level": U8,
        "prev_page": U32,
        "next_page": U32,
    }
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        page.format(
            self.page_id,
            PageType(self.page_type),
            object_id=self.object_id,
            index_id=self.index_id,
            level=self.level,
            prev_page=self.prev_page,
            next_page=self.next_page,
        )

    def physical_undo(self, page: Page, fetch=None) -> None:
        # Before a first-time format the page held nothing; before a
        # re-allocation format the preceding preformat record (next on the
        # chain walk) restores the prior image over these zeroes.
        page.deformat()


class PreformatPageRecord(LogRecord):
    """The paper's section 4.2 extension: logged when a page is
    *re-allocated*, storing the prior incarnation's full content.

    ``prev_page_lsn`` points at the prior content's pageLSN, splicing the
    old chain onto the new one (paper Figure 2). Redo is a no-op (the page
    is about to be formatted); physical undo restores the stored image,
    which is how as-of queries read dropped-and-overwritten tables.
    """

    TYPE = RecordType.PREFORMAT_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = False
    BODY = {"image": BLOB}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        """No page change: the record only preserves history."""

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.restore(self.image)


class PageImageRecord(LogRecord):
    """Optional full page image after every Nth modification (section 6.1).

    Image records form their own back-chain via ``prev_image_lsn`` (the
    page header stores ``last_image_lsn``), letting undo jump to the first
    image after the target LSN instead of undoing every modification.
    """

    TYPE = RecordType.PAGE_IMAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = False
    BODY = {"prev_image_lsn": U64, "image": BLOB}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        page.restore(self.image)

    def physical_undo(self, page: Page, fetch=None) -> None:
        """No-op: the image did not change the page, it recorded it."""


class DeformatPageRecord(LogRecord):
    """Compensation body for undoing a format (page returns to zeroes).

    Appears only nested inside CLRs; stores the original format parameters
    so the CLR itself stays physically undoable without derivation.
    """

    TYPE = RecordType.DEFORMAT_PAGE
    IS_PAGE_MOD = True
    BODY = {"page_type": U8, "index_id": U16, "level": U8}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        page.deformat()

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.format(
            self.page_id,
            PageType(self.page_type),
            object_id=self.object_id,
            index_id=self.index_id,
            level=self.level,
        )


# ---------------------------------------------------------------------------
# Row modification records
# ---------------------------------------------------------------------------


class InsertRowRecord(LogRecord):
    """Row (or index entry) inserted at a slot.

    Self-contained for undo: the inserted payload is the redo image, and
    its inverse is a plain slot delete.
    """

    TYPE = RecordType.INSERT_ROW
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    BODY = {"slot": U16, "row": BLOB, "key_bytes": BLOB}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        page.insert_record(self.slot, self.row)

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.delete_record(self.slot)


class DeleteRowRecord(LogRecord):
    """Row (or index entry) deleted from a slot.

    Ordinary deletes always carry the row image (classic ARIES needs it
    for rollback). Structure-modification deletes (the delete half of a
    B-tree row move) are redo-only in the baseline; with the section 4.2
    extension (``smo_delete_undo_info``) they carry the row too, otherwise
    undo derives it from the paired insert via ``pair_lsn`` at the cost of
    an extra log read.
    """

    TYPE = RecordType.DELETE_ROW
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    BODY = {"slot": U16, "row": OPT_BLOB, "key_bytes": BLOB, "pair_lsn": U64}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        page.delete_record(self.slot)

    def resolve_row(self, fetch=None) -> bytes:
        """The deleted payload: embedded, or derived from the paired insert."""
        if self.row is not None:
            return self.row
        if self.pair_lsn != NULL_LSN and fetch is not None:
            paired = fetch(self.pair_lsn)
            if isinstance(paired, InsertRowRecord):
                return paired.row
        raise MissingUndoInfoError(
            f"delete at lsn {format_lsn(self.lsn)} carries no row image "
            f"and it cannot be derived (pair_lsn={format_lsn(self.pair_lsn)})"
        )

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.insert_record(self.slot, self.resolve_row(fetch))


class UpdateRowRecord(LogRecord):
    """Row payload replaced in place (same slot, new bytes)."""

    TYPE = RecordType.UPDATE_ROW
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    BODY = {"slot": U16, "old": OPT_BLOB, "new": BLOB, "key_bytes": BLOB}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        page.update_record(self.slot, self.new)

    def physical_undo(self, page: Page, fetch=None) -> None:
        if self.old is None:
            raise MissingUndoInfoError(
                f"update at lsn {format_lsn(self.lsn)} carries no before-image"
            )
        page.update_record(self.slot, self.old)


class SetLinksRecord(LogRecord):
    """Sibling-chain pointer update (B-tree leaf chain during splits)."""

    TYPE = RecordType.SET_LINKS
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    BODY = {"old_prev": U32, "old_next": U32, "new_prev": U32, "new_next": U32}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        page.prev_page = self.new_prev
        page.next_page = self.new_next

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.prev_page = self.old_prev
        page.next_page = self.old_next


# ---------------------------------------------------------------------------
# Allocation map records
# ---------------------------------------------------------------------------


def _alloc_bit_indexes(page: Page, map_page_id: int, target_page: int) -> tuple[int, int]:
    """Bit positions (allocated, ever-allocated) of ``target_page`` within
    its allocation-map page body."""
    local = target_page - (map_page_id + 1)
    if local < 0 or local >= alloc_bitmap_geometry(page.page_size):
        raise WalError(
            f"page {target_page} not covered by allocation map {map_page_id}"
        )
    return local, ever_bit_offset(page.page_size) + local


class AllocPageRecord(LogRecord):
    """Allocation-map bit set: ``target_page`` becomes allocated.

    ``was_ever_allocated`` is the section 4.2 metadata distinguishing the
    first allocation (no preformat needed — the page never held data) from
    a re-allocation (preformat must preserve the prior content).
    """

    TYPE = RecordType.ALLOC_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    BODY = {"target_page": U32, "was_ever_allocated": BOOL}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, True)
        page.set_body_bit(ever_bit, True)

    def physical_undo(self, page: Page, fetch=None) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, False)
        page.set_body_bit(ever_bit, self.was_ever_allocated)


class DeallocPageRecord(LogRecord):
    """Allocation-map bit clear: ``target_page`` becomes free.

    The ever-allocated bit normally stays set — that is what tells a
    future re-allocation to log a preformat record first. ``clear_ever``
    is used only by compensations that undo a *first-time* allocation,
    restoring the page to never-allocated.
    """

    TYPE = RecordType.DEALLOC_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    BODY = {"target_page": U32, "clear_ever": BOOL}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, False)
        if self.clear_ever:
            page.set_body_bit(ever_bit, False)

    def physical_undo(self, page: Page, fetch=None) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, True)
        page.set_body_bit(ever_bit, True)


# ---------------------------------------------------------------------------
# Compensation log records
# ---------------------------------------------------------------------------


class ClrRecord(LogRecord):
    """Compensation log record written while undoing ``compensated_lsn``.

    ``comp`` is the nested operation the compensation performs (its redo).
    Classic ARIES CLRs are redo-only; the paper's section 4.2 extension
    makes them undoable so page-oriented undo can walk *through* a
    rollback. Here that works in two ways:

    * with ``clr_undo_info`` the nested ``comp`` record embeds the data
      needed to invert it (e.g. the row a compensating delete removed);
    * without it, :meth:`physical_undo` derives that data by fetching the
      compensated record — the derivation the paper deems possible but
      rejects for simplicity; it costs an extra (potentially stalling)
      log read, which the ablation benchmark measures.
    """

    TYPE = RecordType.CLR
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = False  # CLRs are never compensated themselves
    BODY = {"compensated_lsn": U64, "undo_next_lsn": U64, "comp": RECORD}
    __slots__ = tuple(BODY)

    def redo(self, page: Page, fetch=None) -> None:
        self.comp.redo(page, fetch)

    def _fetch_compensated(self, fetch):
        if fetch is None:
            raise MissingUndoInfoError(
                f"CLR at {format_lsn(self.lsn)} has no undo info and no log "
                f"access to derive it"
            )
        return fetch(self.compensated_lsn)

    def physical_undo(self, page: Page, fetch=None) -> None:
        comp = self.comp
        if isinstance(comp, DeleteRowRecord):
            # Invert a compensating delete (which undid an insert): put the
            # row back. Derive it from the compensated insert if absent.
            if comp.row is not None:
                row = comp.row
            else:
                original = self._fetch_compensated(fetch)
                if not isinstance(original, InsertRowRecord):
                    raise MissingUndoInfoError(
                        f"CLR at {format_lsn(self.lsn)}: compensated record "
                        f"is {type(original).__name__}, cannot derive row"
                    )
                row = original.row
            page.insert_record(comp.slot, row)
        elif isinstance(comp, InsertRowRecord):
            # Invert a compensating insert (which undid a delete).
            page.delete_record(comp.slot)
        elif isinstance(comp, UpdateRowRecord):
            # Invert a compensating update: restore the value the page held
            # before the compensation, i.e. the original update's after-image.
            if comp.old is not None:
                value = comp.old
            else:
                original = self._fetch_compensated(fetch)
                if isinstance(original, UpdateRowRecord):
                    value = original.new
                elif isinstance(original, InsertRowRecord):
                    # Heap-insert rollback tombstones the slot with an
                    # update; the pre-tombstone value is the inserted row.
                    value = original.row
                else:
                    raise MissingUndoInfoError(
                        f"CLR at {format_lsn(self.lsn)}: compensated record "
                        f"is {type(original).__name__}, cannot derive value"
                    )
            page.update_record(comp.slot, value)
        elif isinstance(comp, PageImageRecord):
            # Compensation restored a pre-format image (root-split
            # rollback). Its inverse is the formatted-empty state the
            # compensated format record produces.
            original = self._fetch_compensated(fetch)
            original.redo(page)
        else:
            # Allocation, links, format compensations are self-inverting.
            comp.physical_undo(page, fetch)

    def __repr__(self) -> str:
        return (
            f"ClrRecord(lsn={format_lsn(self.lsn)}, txn={self.txn_id}, "
            f"page={self.page_id}, compensates={format_lsn(self.compensated_lsn)}, "
            f"comp={type(self.comp).__name__})"
        )
