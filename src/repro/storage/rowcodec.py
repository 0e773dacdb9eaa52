"""Row serialization: schema-driven encoding of tuples to page payloads.

Layout: a null bitmap (one bit per column, set = NULL), followed by the
non-null column values in schema order. Fixed-width types are stored
inline; variable-length types carry a u16 length prefix.

The same codec also encodes bare key tuples (for B-tree interior entries
and lock keys) via :class:`KeyCodec`, which treats the key columns as a
mini-schema with no nullable columns.
"""

from __future__ import annotations

import itertools
import struct

from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.errors import StorageError

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_BOOL = struct.Struct("<?")
_U16 = struct.Struct("<H")

#: ``struct`` codes of the fixed-width types, as :func:`_encode_value`
#: writes them.
_FIXED_CODE = {ColumnType.INT: "q", ColumnType.FLOAT: "d", ColumnType.BOOL: "?"}


def _fixed_struct(ctypes) -> struct.Struct | None:
    """One struct reading ``ctypes`` back to back, or None if any is var-len."""
    ctypes = tuple(ctypes)
    if any(ctype.is_varlen for ctype in ctypes):
        return None
    return struct.Struct("<" + "".join(_FIXED_CODE[ctype] for ctype in ctypes))


def _encode_value(ctype: ColumnType, value, out: bytearray) -> None:
    if ctype is ColumnType.INT:
        out += _I64.pack(value)
    elif ctype is ColumnType.FLOAT:
        out += _F64.pack(float(value))
    elif ctype is ColumnType.BOOL:
        out.append(1 if value else 0)
    elif ctype is ColumnType.STR:
        raw = value.encode("utf-8")
        out += _U16.pack(len(raw))
        out += raw
    elif ctype is ColumnType.BYTES:
        out += _U16.pack(len(value))
        out += value
    else:  # pragma: no cover - exhaustive over ColumnType
        raise StorageError(f"unsupported column type {ctype}")


def _decode_value(ctype: ColumnType, data, pos: int):
    """(value, next position); a truncated value raises ``struct.error``
    or, for a var-len one, :class:`StorageError`."""
    if ctype is ColumnType.INT:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if ctype is ColumnType.FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if ctype is ColumnType.BOOL:
        return _BOOL.unpack_from(data, pos)[0], pos + 1
    (length,) = _U16.unpack_from(data, pos)
    start = pos + _U16.size
    end = start + length
    if end > len(data):
        raise StorageError(f"{ctype.value} value of {length} bytes runs past the payload end")
    if ctype is ColumnType.STR:
        return data[start:end].decode("utf-8"), end
    return bytes(data[start:end]), end


class RowCodec:
    """Encode/decode full rows for one :class:`TableSchema`.

    Every payload that does not decode cleanly (too short, a value past
    its end, invalid UTF-8) raises :class:`StorageError`.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._types = tuple(col.ctype for col in schema.columns)
        self._bitmap_len = (len(self._types) + 7) // 8
        self._no_nulls = bytes(self._bitmap_len)
        #: Decode plan of a row without NULLs: a struct per run of
        #: adjacent fixed-width columns, the type of each var-len one.
        self._plan = []
        for varlen, run in itertools.groupby(self._types, key=lambda ctype: ctype.is_varlen):
            if varlen:
                self._plan += [(None, ctype) for ctype in run]
            else:
                self._plan.append((_fixed_struct(run), None))
        #: Columns up to the last key column, and the key's positions
        #: among them (None when the key is exactly that prefix).
        positions = schema.key_positions
        self._key_prefix = max(positions) + 1
        self._key_pick = None if positions == tuple(range(self._key_prefix)) else positions
        #: Key fast path: the prefix read by one unpack after the bitmap,
        #: when all of it is NOT NULL and fixed width.
        prefix = schema.columns[: self._key_prefix]
        self._key_struct = None
        if not any(col.nullable for col in prefix):
            self._key_struct = _fixed_struct(col.ctype for col in prefix)

    def encode(self, row: tuple) -> bytes:
        """Serialize a validated row tuple."""
        self.schema.check_row(row)
        bitmap = bytearray(self._bitmap_len)
        body = bytearray()
        for index, (ctype, value) in enumerate(zip(self._types, row, strict=True)):
            if value is None:
                bitmap[index // 8] |= 1 << (index % 8)
            else:
                _encode_value(ctype, value, body)
        return bytes(bitmap) + bytes(body)

    def _corrupt(self, problem: str) -> StorageError:
        return StorageError(f"row for {self.schema.name!r}: {problem}")

    def _decode_columns(self, data, count: int) -> list:
        """Values of the first ``count`` columns, NULLs included."""
        if len(data) < self._bitmap_len:
            raise self._corrupt("payload shorter than null bitmap")
        pos = self._bitmap_len
        values = []
        try:
            for index in range(count):
                if data[index // 8] & (1 << (index % 8)):
                    values.append(None)
                else:
                    value, pos = _decode_value(self._types[index], data, pos)
                    values.append(value)
        except (struct.error, UnicodeDecodeError) as err:
            raise self._corrupt(f"undecodable payload ({err})") from err
        return values

    def decode(self, data: bytes) -> tuple:
        """Deserialize a payload produced by :meth:`encode`."""
        if not data.startswith(self._no_nulls):
            return tuple(self._decode_columns(data, len(self._types)))
        # No NULLs: every run of fixed-width columns is one unpack.
        pos = self._bitmap_len
        values = []
        try:
            for fixed, varlen in self._plan:
                if fixed is not None:
                    values += fixed.unpack_from(data, pos)
                    pos += fixed.size
                else:
                    value, pos = _decode_value(varlen, data, pos)
                    values.append(value)
        except (struct.error, UnicodeDecodeError) as err:
            raise self._corrupt(f"undecodable payload ({err})") from err
        return tuple(values)

    def decode_key(self, data, offset: int = 0, length: int | None = None) -> tuple:
        """The primary-key tuple of the row encoded at
        ``data[offset:offset + length]`` (default: all of ``data``).

        Decodes no column past the last key column. When every column up
        to it is NOT NULL and fixed width (every TPC-C table), the key is
        one precompiled unpack after the null bitmap, read in place: a
        B-tree probe passes the page buffer and the record's span, so
        nothing is copied.
        """
        if length is None:
            length = len(data) - offset
        key_struct = self._key_struct
        if key_struct is None:
            values = self._decode_columns(bytes(data[offset : offset + length]), self._key_prefix)
        else:
            if length < self._bitmap_len + key_struct.size:
                raise self._corrupt(f"{length}-byte payload ends inside the key")
            values = key_struct.unpack_from(data, offset + self._bitmap_len)
        pick = self._key_pick
        if pick is None:
            return tuple(values)
        return tuple([values[pos] for pos in pick])


class KeyCodec:
    """Encode/decode bare key tuples given the key columns' types.

    Used for B-tree separator keys and for the lock keys embedded in DML
    log records (which as-of snapshot recovery re-acquires during its redo
    pass).
    """

    def __init__(self, ctypes) -> None:
        self.ctypes = tuple(ctypes)
        #: Every key column fixed width: the whole key is one unpack.
        self._struct = _fixed_struct(self.ctypes)

    @classmethod
    def for_schema(cls, schema: TableSchema) -> "KeyCodec":
        return cls(
            schema.columns[pos].ctype for pos in schema.key_positions
        )

    def encode(self, key: tuple) -> bytes:
        if len(key) != len(self.ctypes):
            raise StorageError(
                f"key arity mismatch: expected {len(self.ctypes)}, got {len(key)}"
            )
        out = bytearray()
        for ctype, value in zip(self.ctypes, key, strict=True):
            if value is None:
                raise StorageError("key values cannot be NULL")
            _encode_value(ctype, value, out)
        return bytes(out)

    def decode(self, data, offset: int = 0) -> tuple:
        """The key encoded at ``data[offset:]``."""
        try:
            if self._struct is not None:
                return self._struct.unpack_from(data, offset)
            pos = offset
            values = []
            for ctype in self.ctypes:
                value, pos = _decode_value(ctype, data, pos)
                values.append(value)
            return tuple(values)
        except (struct.error, UnicodeDecodeError) as err:
            raise StorageError(f"undecodable key ({err})") from err


def column_spec_from_strings(name: str, type_name: str, max_len: int, nullable: bool) -> Column:
    """Rebuild a :class:`Column` from catalog-row primitives."""
    return Column(
        name=name,
        ctype=ColumnType(type_name),
        nullable=nullable,
        max_len=max_len,
    )
