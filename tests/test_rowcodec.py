"""Row/key codec tests: schema validation and round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.errors import StorageError
from repro.storage.rowcodec import KeyCodec, RowCodec


def make_schema() -> TableSchema:
    return TableSchema(
        "t",
        (
            Column("i", ColumnType.INT),
            Column("f", ColumnType.FLOAT),
            Column("s", ColumnType.STR, max_len=100, nullable=True),
            Column("b", ColumnType.BOOL),
            Column("raw", ColumnType.BYTES, max_len=100, nullable=True),
        ),
        key=("i",),
    )


class TestSchemaValidation:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (Column("a", ColumnType.INT), Column("a", ColumnType.INT)),
                key=("a",),
            )

    def test_missing_key_column_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a", ColumnType.INT),), key=("b",))

    def test_nullable_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (Column("a", ColumnType.INT, nullable=True),),
                key=("a",),
            )

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a", ColumnType.INT),), key=())

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (Column("a", ColumnType.INT), Column("b", ColumnType.INT)),
                key=("a", "a"),
            )

    def test_key_positions(self):
        schema = TableSchema(
            "t",
            (
                Column("a", ColumnType.INT),
                Column("b", ColumnType.STR),
                Column("c", ColumnType.INT),
            ),
            key=("c", "a"),
        )
        assert schema.key_positions == (2, 0)
        assert schema.key_of((1, "x", 3)) == (3, 1)

    def test_row_from_dict_defaults_nullable(self):
        schema = make_schema()
        row = schema.row_from_dict({"i": 1, "f": 2.0, "b": True})
        assert row == (1, 2.0, None, True, None)

    def test_row_from_dict_missing_required(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.row_from_dict({"i": 1})

    def test_row_from_dict_unknown_column(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.row_from_dict({"i": 1, "f": 1.0, "b": False, "zzz": 2})

    def test_check_row_arity(self):
        with pytest.raises(ValueError):
            make_schema().check_row((1, 2.0))

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(TypeError):
            make_schema().check_row((True, 1.0, None, False, None))

    def test_int_accepted_as_float(self):
        make_schema().check_row((1, 2, None, False, None))

    def test_string_too_long(self):
        with pytest.raises(ValueError):
            make_schema().check_row((1, 1.0, "x" * 101, False, None))

    def test_int_out_of_range(self):
        with pytest.raises(ValueError):
            make_schema().check_row((2**63, 1.0, None, False, None))


class TestRowCodec:
    def test_roundtrip_simple(self):
        codec = RowCodec(make_schema())
        row = (42, 3.25, "hello", True, b"\x00\xff")
        assert codec.decode(codec.encode(row)) == row

    def test_roundtrip_nulls(self):
        codec = RowCodec(make_schema())
        row = (1, -0.5, None, False, None)
        assert codec.decode(codec.encode(row)) == row

    def test_roundtrip_unicode(self):
        codec = RowCodec(make_schema())
        row = (7, 0.0, "héllo wörld ☃", True, b"")
        assert codec.decode(codec.encode(row)) == row

    def test_decode_key(self):
        codec = RowCodec(make_schema())
        payload = codec.encode((99, 1.0, "a", False, None))
        assert codec.decode_key(payload) == (99,)

    def test_short_payload_rejected(self):
        codec = RowCodec(make_schema())
        with pytest.raises(StorageError):
            codec.decode(b"")

    def test_int_as_float_column_roundtrip(self):
        codec = RowCodec(make_schema())
        decoded = codec.decode(codec.encode((1, 5, None, False, None)))
        assert decoded[1] == 5.0
        assert isinstance(decoded[1], float)


class TestKeyCodec:
    def test_roundtrip_composite(self):
        codec = KeyCodec((ColumnType.INT, ColumnType.STR))
        key = (12, "abc")
        assert codec.decode(codec.encode(key)) == key

    def test_for_schema(self):
        schema = TableSchema(
            "t",
            (
                Column("a", ColumnType.INT),
                Column("b", ColumnType.STR),
            ),
            key=("b", "a"),
        )
        codec = KeyCodec.for_schema(schema)
        assert codec.decode(codec.encode(("x", 1))) == ("x", 1)

    def test_arity_mismatch(self):
        codec = KeyCodec((ColumnType.INT,))
        with pytest.raises(StorageError):
            codec.encode((1, 2))

    def test_null_key_rejected(self):
        codec = KeyCodec((ColumnType.INT,))
        with pytest.raises(StorageError):
            codec.encode((None,))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_row_strategy = st.tuples(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(st.none(), st.text(max_size=30)),
    st.booleans(),
    st.one_of(st.none(), st.binary(max_size=30)),
)


@settings(max_examples=300, deadline=None)
@given(_row_strategy)
def test_codec_roundtrip_property(row):
    schema = TableSchema(
        "p",
        (
            Column("i", ColumnType.INT),
            Column("f", ColumnType.FLOAT),
            Column("s", ColumnType.STR, max_len=200, nullable=True),
            Column("b", ColumnType.BOOL),
            Column("raw", ColumnType.BYTES, max_len=200, nullable=True),
        ),
        key=("i",),
    )
    codec = RowCodec(schema)
    assert codec.decode(codec.encode(row)) == row


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=20),
)
def test_key_codec_roundtrip_property(num, text):
    codec = KeyCodec((ColumnType.INT, ColumnType.STR))
    assert codec.decode(codec.encode((num, text))) == (num, text)


# ---------------------------------------------------------------------------
# Corrupt payloads fail typed, never as silently wrong values
# ---------------------------------------------------------------------------


def _int_str_schema() -> TableSchema:
    return TableSchema(
        "t", (Column("k", ColumnType.INT), Column("s", ColumnType.STR)), key=("k",)
    )


class TestCorruptRows:
    def test_truncated_fixed_value_raises_storage_error(self):
        codec = RowCodec(_int_str_schema())
        payload = codec.encode((5, "hello"))
        with pytest.raises(StorageError):
            codec.decode(payload[:4])

    def test_truncated_string_raises_instead_of_shortening(self):
        codec = RowCodec(_int_str_schema())
        payload = codec.encode((5, "hello"))
        with pytest.raises(StorageError):
            codec.decode(payload[:-2])

    def test_truncated_string_length_prefix_raises(self):
        codec = RowCodec(_int_str_schema())
        payload = codec.encode((5, "hello"))
        with pytest.raises(StorageError):
            codec.decode(payload[: 1 + 8 + 1])

    def test_invalid_utf8_raises_storage_error(self):
        codec = RowCodec(_int_str_schema())
        payload = bytearray(codec.encode((5, "hi")))
        payload[-1] = 0xFF
        with pytest.raises(StorageError):
            codec.decode(bytes(payload))

    def test_truncated_key_raises_on_the_fast_path(self):
        codec = RowCodec(_int_str_schema())
        payload = codec.encode((5, "hello"))
        with pytest.raises(StorageError):
            codec.decode_key(payload[:6])
        # In place, the span's length bounds the key, not the buffer.
        with pytest.raises(StorageError):
            codec.decode_key(payload, 0, 6)

    def test_truncated_key_raises_on_the_general_path(self):
        schema = TableSchema(
            "t", (Column("s", ColumnType.STR), Column("k", ColumnType.INT)), key=("k",)
        )
        codec = RowCodec(schema)
        payload = codec.encode(("hello", 5))
        with pytest.raises(StorageError):
            codec.decode_key(payload[:-3])
        with pytest.raises(StorageError):
            codec.decode_key(payload[:4])

    def test_truncated_separator_key_raises(self):
        for ctypes in ((ColumnType.INT, ColumnType.INT), (ColumnType.INT, ColumnType.STR)):
            codec = KeyCodec(ctypes)
            with pytest.raises(StorageError):
                codec.decode(codec.encode((1, 2 if ctypes[1] is ColumnType.INT else "ab"))[:-1])


# ---------------------------------------------------------------------------
# Key-only decode agrees with decoding the whole row
# ---------------------------------------------------------------------------

_VALUES = {
    ColumnType.INT: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ColumnType.FLOAT: st.floats(allow_nan=False),
    ColumnType.STR: st.text(max_size=20),
    ColumnType.BYTES: st.binary(max_size=20),
    ColumnType.BOOL: st.booleans(),
}

#: Key layouts the fast and general decode_key paths must both get right.
KEY_SCHEMAS = {
    # Non-prefix key, fixed-width prefix: one unpack, then a reorder.
    "non_prefix_fixed": TableSchema(
        "a",
        (
            Column("a", ColumnType.INT),
            Column("b", ColumnType.FLOAT),
            Column("c", ColumnType.INT),
            Column("d", ColumnType.STR, nullable=True),
        ),
        key=("c", "a"),
    ),
    # Non-prefix key with a var-len column before the last key column.
    "non_prefix_varlen": TableSchema(
        "b",
        (
            Column("a", ColumnType.INT),
            Column("s", ColumnType.STR),
            Column("c", ColumnType.INT),
        ),
        key=("c", "a"),
    ),
    # A nullable column before the last key column.
    "nullable_before_key": TableSchema(
        "c",
        (
            Column("a", ColumnType.INT),
            Column("n", ColumnType.INT, nullable=True),
            Column("k", ColumnType.BOOL),
            Column("tail", ColumnType.BYTES, nullable=True),
        ),
        key=("a", "k"),
    ),
    # FLOAT and (possibly negative) INT key columns.
    "float_int_key": TableSchema(
        "d",
        (
            Column("f", ColumnType.FLOAT),
            Column("i", ColumnType.INT),
            Column("s", ColumnType.STR, nullable=True),
        ),
        key=("f", "i"),
    ),
    # The key is the whole row, var-len columns included.
    "whole_row": TableSchema(
        "e",
        (
            Column("s", ColumnType.STR),
            Column("i", ColumnType.INT),
            Column("raw", ColumnType.BYTES),
        ),
        key=("s", "i", "raw"),
    ),
    # The key is the whole row, all fixed width.
    "whole_row_fixed": TableSchema(
        "f",
        (Column("i", ColumnType.INT), Column("b", ColumnType.BOOL)),
        key=("i", "b"),
    ),
}


def _rows(schema: TableSchema):
    return st.tuples(
        *(
            st.one_of(st.none(), _VALUES[col.ctype]) if col.nullable else _VALUES[col.ctype]
            for col in schema.columns
        )
    )


@pytest.mark.parametrize("layout", list(KEY_SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_decode_key_equals_key_of_decode(layout, data):
    schema = KEY_SCHEMAS[layout]
    codec = RowCodec(schema)
    row = data.draw(_rows(schema))
    payload = codec.encode(row)
    key = schema.key_of(codec.decode(payload))
    assert key == schema.key_of(row)
    assert codec.decode_key(payload) == key
    # In place, as a B-tree probe reads it from a page buffer.
    before = data.draw(st.binary(max_size=12))
    after = data.draw(st.binary(max_size=12))
    buffer = bytearray(before + payload + after)
    assert codec.decode_key(buffer, len(before), len(payload)) == key
    key_codec = KeyCodec.for_schema(schema)
    encoded = key_codec.encode(key)
    assert key_codec.decode(encoded) == key
    assert key_codec.decode(before + encoded, len(before)) == key
