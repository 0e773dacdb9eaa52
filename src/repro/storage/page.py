"""Slotted data pages.

Every page starts with a fixed header whose two LSN fields drive the paper's
mechanism:

* ``page_lsn`` — LSN of the last log record that modified the page. Log
  records carry ``prev_page_lsn`` (the page's LSN before the modification),
  which back-links all modifications of a page into a chain that
  ``PreparePageAsOf`` walks.
* ``last_image_lsn`` — LSN of the most recent full page image logged for
  this page (section 6.1's optional every-Nth-modification images). Image
  records form their own back-chain so undo can skip log regions.

The record area grows up from the header; the slot directory grows down
from the page end (two bytes per slot holding the record offset). Record
payloads are opaque to this layer: the B-tree keeps slots in key order, the
heap appends. Modifications are *physiological* — logged as logical
operations within an identified page (insert at slot, delete at slot) — so
redo/undo replay operations rather than bytes, and internal compaction
needs no logging.
"""

from __future__ import annotations

import enum
import re
import struct

from repro.errors import PageFullError, StorageError

#: Slot directory entry: u16 record offset (0 = vacant, offsets are always
#: >= HEADER_SIZE for live records).
_SLOT = struct.Struct("<H")
#: Record framing: u16 payload length prefix at the record offset.
_RECLEN = struct.Struct("<H")

_HEADER = struct.Struct(
    "<HBBIQQIHBBIIHHHHI4s"
    # magic, page_type, flags, page_id, page_lsn, last_image_lsn,
    # object_id, index_id, level, pad, prev_page, next_page,
    # slot_count, free_lower, free_upper, mods_since_image, checksum, reserved
)

HEADER_SIZE = _HEADER.size  # 56 bytes


def _field_layout(header: struct.Struct) -> tuple[tuple[struct.Struct, int], ...]:
    """(struct, byte offset) of each field of ``header``, from its format."""
    order, codes = header.format[0], re.findall(r"\d*[a-zA-Z?]", header.format[1:])
    layout, offset = [], 0
    for code in codes:
        field = struct.Struct(order + code)
        layout.append((field, offset))
        offset += field.size
    if offset != header.size:  # pragma: no cover - a padded layout
        raise AssertionError(f"header format {header.format!r} has padding")
    return tuple(layout)


#: Per-field access to the header: :data:`_HEADER` stays the one
#: definition of the layout.
_FIELDS = _field_layout(_HEADER)
#: Byte offset of the u32 checksum field (stamped on write-out).
CHECKSUM_OFFSET = _FIELDS[16][1]
PAGE_MAGIC = 0xD81A
NULL_PAGE = 0


class PageType(enum.IntEnum):
    """Discriminates how a page's body is interpreted."""

    UNFORMATTED = 0
    BOOT = 1
    ALLOC_MAP = 2
    HEAP = 3
    BTREE = 4


def _header_field(index: int, doc: str | None = None, *, settable: bool = False) -> property:
    """A property over header field ``index``, read (and written) in place."""
    field, offset = _FIELDS[index]

    def get(page: "Page"):
        return field.unpack_from(page.data, offset)[0]

    def put(page: "Page", value) -> None:
        field.pack_into(page.data, offset, value)

    return property(get, put if settable else None, doc=doc)


class Page:
    """A mutable view over one page-sized ``bytearray``.

    The constructor wraps existing bytes without validation; use
    :meth:`format` to initialize a fresh page and :meth:`is_formatted` to
    probe whether bytes hold a real page.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytearray) -> None:
        if not isinstance(data, bytearray):
            data = bytearray(data)
        self.data = data

    # ------------------------------------------------------------------
    # Header accessors
    # ------------------------------------------------------------------

    def _get(self, index: int):
        field, offset = _FIELDS[index]
        return field.unpack_from(self.data, offset)[0]

    def _set(self, index: int, value) -> None:
        field, offset = _FIELDS[index]
        field.pack_into(self.data, offset, value)

    @property
    def page_size(self) -> int:
        return len(self.data)

    magic = _header_field(0)

    @property
    def page_type(self) -> PageType:
        return PageType(self._get(1))

    flags = _header_field(2, settable=True)
    page_id = _header_field(3)
    page_lsn = _header_field(4, settable=True)
    last_image_lsn = _header_field(5, settable=True)
    object_id = _header_field(6)
    index_id = _header_field(7)
    level = _header_field(8, "B-tree level; 0 means leaf.")
    prev_page = _header_field(10, settable=True)
    next_page = _header_field(11, settable=True)
    slot_count = _header_field(12)
    free_lower = _header_field(13)
    free_upper = _header_field(14)
    mods_since_image = _header_field(15, settable=True)
    checksum = _header_field(16, settable=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def format(
        self,
        page_id: int,
        page_type: PageType,
        object_id: int = 0,
        index_id: int = 0,
        level: int = 0,
        prev_page: int = NULL_PAGE,
        next_page: int = NULL_PAGE,
    ) -> None:
        """Initialize this page as empty with the given identity.

        Zeroes the whole body: a formatted page has no trace of its prior
        incarnation (the paper's preformat record exists precisely to save
        that prior content in the log).
        """
        size = len(self.data)
        self.data[:] = bytes(size)
        _HEADER.pack_into(
            self.data,
            0,
            PAGE_MAGIC,
            int(page_type),
            0,
            page_id,
            0,
            0,
            object_id,
            index_id,
            level,
            0,
            prev_page,
            next_page,
            0,
            HEADER_SIZE,
            size,
            0,
            0,
            b"\0" * 4,
        )

    def deformat(self) -> None:
        """Return the page to the unformatted (all-zero) state.

        This is the physical undo of a first-time format: before its first
        allocation the page held nothing.
        """
        self.data[:] = bytes(len(self.data))

    def is_formatted(self) -> bool:
        return self.magic == PAGE_MAGIC

    def clone_bytes(self) -> bytes:
        """An immutable copy of the current page content."""
        return bytes(self.data)

    def restore(self, image: bytes) -> None:
        """Overwrite the page with a full image (page-image / preformat undo)."""
        if len(image) != len(self.data):
            raise StorageError(
                f"image size {len(image)} != page size {len(self.data)}"
            )
        self.data[:] = image

    # ------------------------------------------------------------------
    # Slot directory
    # ------------------------------------------------------------------

    def _slot_pos(self, slot: int) -> int:
        return len(self.data) - _SLOT.size * (slot + 1)

    def _slot_offset(self, slot: int) -> int:
        return _SLOT.unpack_from(self.data, self._slot_pos(slot))[0]

    def _set_slot_offset(self, slot: int, offset: int) -> None:
        _SLOT.pack_into(self.data, self._slot_pos(slot), offset)

    def _check_slot(self, slot: int, *, insert: bool = False) -> None:
        limit = self.slot_count + (1 if insert else 0)
        if not 0 <= slot < limit:
            raise StorageError(
                f"slot {slot} out of range (page {self.page_id}, "
                f"{self.slot_count} slots)"
            )

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def contiguous_free(self) -> int:
        """Bytes available between the record area and the slot directory."""
        return self.free_upper - self.free_lower

    def live_bytes(self) -> int:
        """Bytes occupied by live records (length prefixes included)."""
        data = self.data
        count = self.slot_count
        offsets = struct.unpack_from(f"<{count}H", data, len(data) - _SLOT.size * count)
        # Each record starts with its u16 length: sum the low and the high
        # bytes at those offsets, iterating in C rather than per slot.
        low = sum(map(data.__getitem__, offsets))
        high = sum(map(data.__getitem__, map((1).__add__, offsets)))
        return _RECLEN.size * count + low + (high << 8)

    def total_free(self) -> int:
        """Free bytes counting reclaimable garbage (what compaction yields)."""
        used_by_slots = _SLOT.size * self.slot_count
        return len(self.data) - HEADER_SIZE - used_by_slots - self.live_bytes()

    def space_needed(self, payload_len: int) -> int:
        """Bytes an insert of ``payload_len`` consumes (record + new slot)."""
        return _RECLEN.size + payload_len + _SLOT.size

    def max_payload(self) -> int:
        """Largest payload an empty page of this size can hold."""
        return len(self.data) - HEADER_SIZE - _RECLEN.size - _SLOT.size

    def has_room_for(self, payload_len: int) -> bool:
        needed = self.space_needed(payload_len)
        # Contiguous free space is total free space minus garbage, so it
        # answers most calls without summing the live records.
        return needed <= self.contiguous_free() or needed <= self.total_free()

    # ------------------------------------------------------------------
    # Record operations (physiological units that log records replay)
    # ------------------------------------------------------------------

    def record_span(self, slot: int) -> tuple[int, int]:
        """(start, length) of the payload at ``slot`` within :attr:`data`,
        for reading it in place. Unchecked: the caller keeps ``slot``
        below :attr:`slot_count`."""
        data = self.data
        (offset,) = _SLOT.unpack_from(data, len(data) - _SLOT.size * (slot + 1))
        return offset + _RECLEN.size, _RECLEN.unpack_from(data, offset)[0]

    def record(self, slot: int) -> bytes:
        """The payload stored at ``slot``."""
        self._check_slot(slot)
        start, length = self.record_span(slot)
        return bytes(self.data[start : start + length])

    def records(self):
        """Iterate payloads in slot order."""
        for slot in range(self.slot_count):
            yield self.record(slot)

    def insert_record(self, slot: int, payload: bytes) -> None:
        """Insert ``payload`` at position ``slot``, shifting later slots up.

        Compacts the page first when fragmented; raises
        :class:`PageFullError` when the record cannot fit even then.
        """
        self._check_slot(slot, insert=True)
        needed = self.space_needed(len(payload))
        if needed > self.contiguous_free():
            if needed > self.total_free():
                raise PageFullError(
                    f"page {self.page_id}: need {needed} bytes, "
                    f"have {self.total_free()}"
                )
            self.compact()
        offset = self.free_lower
        _RECLEN.pack_into(self.data, offset, len(payload))
        start = offset + _RECLEN.size
        self.data[start : start + len(payload)] = payload
        # Shift slot directory entries [slot, count) one position down
        # (toward lower addresses, since the directory grows downward).
        count = self.slot_count
        if slot < count:
            src_lo = self._slot_pos(count - 1)
            src_hi = self._slot_pos(slot) + _SLOT.size
            self.data[src_lo - _SLOT.size : src_hi - _SLOT.size] = self.data[
                src_lo:src_hi
            ]
        self._set_slot_offset(slot, offset)
        self._set(12, count + 1)
        self._set(13, offset + _RECLEN.size + len(payload))
        self._set(14, self._slot_pos(count))

    def delete_record(self, slot: int) -> bytes:
        """Remove the record at ``slot`` and return its payload.

        Later slots shift down by one; the record bytes become reclaimable
        garbage.
        """
        self._check_slot(slot)
        payload = self.record(slot)
        count = self.slot_count
        if slot < count - 1:
            src_lo = self._slot_pos(count - 1)
            src_hi = self._slot_pos(slot)
            self.data[src_lo + _SLOT.size : src_hi + _SLOT.size] = self.data[
                src_lo:src_hi
            ]
        self._set_slot_offset(count - 1, 0)
        self._set(12, count - 1)
        self._set(14, self._slot_pos(count - 2) if count > 1 else len(self.data))
        return payload

    def update_record(self, slot: int, payload: bytes) -> bytes:
        """Replace the record at ``slot``; returns the prior payload."""
        self._check_slot(slot)
        old = self.record(slot)
        offset = self._slot_offset(slot)
        if len(payload) <= len(old):
            _RECLEN.pack_into(self.data, offset, len(payload))
            start = offset + _RECLEN.size
            self.data[start : start + len(payload)] = payload
            return old
        # Grow: relocate to fresh space (compacting first if necessary).
        extra = _RECLEN.size + len(payload)
        if extra > self.contiguous_free():
            if len(payload) - len(old) > self.total_free():
                raise PageFullError(
                    f"page {self.page_id}: update needs {len(payload) - len(old)} "
                    f"more bytes, have {self.total_free()}"
                )
            # Temporarily drop the old record so compaction reclaims it.
            self._set_slot_offset(slot, 0)
            self.compact(skip_vacant=True)
        new_offset = self.free_lower
        _RECLEN.pack_into(self.data, new_offset, len(payload))
        start = new_offset + _RECLEN.size
        self.data[start : start + len(payload)] = payload
        self._set_slot_offset(slot, new_offset)
        self._set(13, new_offset + _RECLEN.size + len(payload))
        return old

    def compact(self, skip_vacant: bool = False) -> None:
        """Rewrite live records densely from the header boundary.

        Physiological logging makes compaction invisible to the log: the
        logical content (slot → payload) is unchanged.
        """
        live: list[tuple[int, bytes]] = []
        for slot in range(self.slot_count):
            offset = self._slot_offset(slot)
            if offset == 0:
                if skip_vacant:
                    continue
                raise StorageError(f"page {self.page_id}: vacant slot {slot}")
            (length,) = _RECLEN.unpack_from(self.data, offset)
            start = offset + _RECLEN.size
            live.append((slot, bytes(self.data[start : start + length])))
        write_at = HEADER_SIZE
        for slot, payload in live:
            _RECLEN.pack_into(self.data, write_at, len(payload))
            start = write_at + _RECLEN.size
            self.data[start : start + len(payload)] = payload
            self._set_slot_offset(slot, write_at)
            write_at = start + len(payload)
        self._set(13, write_at)

    # ------------------------------------------------------------------
    # Body bit access (allocation bitmaps)
    # ------------------------------------------------------------------

    def get_body_bit(self, bit_index: int) -> bool:
        """Read bit ``bit_index`` of the page body (after the header)."""
        byte = HEADER_SIZE + bit_index // 8
        if byte >= len(self.data):
            raise StorageError(f"bit {bit_index} beyond page body")
        return bool(self.data[byte] & (1 << (bit_index % 8)))

    def set_body_bit(self, bit_index: int, value: bool) -> None:
        """Write bit ``bit_index`` of the page body."""
        byte = HEADER_SIZE + bit_index // 8
        if byte >= len(self.data):
            raise StorageError(f"bit {bit_index} beyond page body")
        mask = 1 << (bit_index % 8)
        if value:
            self.data[byte] |= mask
        else:
            self.data[byte] &= ~mask & 0xFF

    def __repr__(self) -> str:
        if not self.is_formatted():
            return f"Page(unformatted, {len(self.data)} bytes)"
        return (
            f"Page(id={self.page_id}, type={self.page_type.name}, "
            f"lsn={self.page_lsn}, slots={self.slot_count}, "
            f"obj={self.object_id}, level={self.level})"
        )


def alloc_bitmap_geometry(page_size: int) -> int:
    """Number of pages one allocation-map page can track.

    The map body is split in two parallel bitmaps: *allocated* and
    *ever-allocated* (the paper's section 4.2 metadata distinguishing first
    allocation from re-allocation). Each tracked page therefore costs two
    bits, taken from separate halves of the body.
    """
    body_bits = (page_size - HEADER_SIZE) * 8
    return body_bits // 2


def ever_bit_offset(page_size: int) -> int:
    """Bit index where the ever-allocated bitmap begins."""
    return alloc_bitmap_geometry(page_size)
