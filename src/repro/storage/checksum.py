"""Page checksums (torn-write and bit-rot detection).

The checksum is computed over the whole page with the header's checksum
field zeroed, stored into that field on write-out, verified and re-zeroed
on read-in — so in-memory pages always carry a zero checksum field and
full page images logged from memory compare bytewise.
"""

from __future__ import annotations

import zlib

from repro.errors import PageCorruptionError
from repro.storage.page import CHECKSUM_OFFSET
_FIELD = slice(CHECKSUM_OFFSET, CHECKSUM_OFFSET + 4)


def compute_checksum(data: bytes | bytearray) -> int:
    """CRC-32 of ``data`` with the checksum field treated as zero."""
    crc = zlib.crc32(data[: _FIELD.start])
    crc = zlib.crc32(b"\0\0\0\0", crc)
    crc = zlib.crc32(data[_FIELD.stop :], crc)
    return crc & 0xFFFFFFFF


def stamp_checksum(data: bytearray) -> None:
    """Store the page checksum into the header field (before a disk write)."""
    crc = compute_checksum(data)
    data[_FIELD] = crc.to_bytes(4, "little")


def verify_and_clear_checksum(data: bytearray, page_id: int) -> None:
    """Validate the stored checksum and zero the field (after a disk read).

    All-zero pages (never written) are accepted: they represent pages that
    exist in the file's address space but were never formatted.

    Raises :class:`~repro.errors.PageCorruptionError` on mismatch.
    """
    stored = int.from_bytes(data[_FIELD], "little")
    if stored == 0 and not any(data):
        return
    data[_FIELD] = b"\0\0\0\0"
    actual = zlib.crc32(data) & 0xFFFFFFFF
    if actual != stored:
        raise PageCorruptionError(
            f"page {page_id}: checksum mismatch "
            f"(stored {stored:#010x}, computed {actual:#010x})"
        )
