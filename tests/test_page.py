"""Slotted page unit and property tests."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFullError, StorageError
from repro.storage.page import (
    HEADER_SIZE,
    NULL_PAGE,
    Page,
    PageType,
    alloc_bitmap_geometry,
    ever_bit_offset,
)

PAGE_SIZE = 1024


def fresh_page(page_id: int = 7, page_type: PageType = PageType.BTREE) -> Page:
    page = Page(bytearray(PAGE_SIZE))
    page.format(page_id, page_type, object_id=42, index_id=1, level=0)
    return page


class TestFormat:
    def test_unformatted_bytes_are_not_a_page(self):
        assert not Page(bytearray(PAGE_SIZE)).is_formatted()

    def test_format_sets_identity(self):
        page = fresh_page()
        assert page.is_formatted()
        assert page.page_id == 7
        assert page.page_type is PageType.BTREE
        assert page.object_id == 42
        assert page.index_id == 1
        assert page.level == 0
        assert page.slot_count == 0
        assert page.page_lsn == 0
        assert page.prev_page == NULL_PAGE
        assert page.next_page == NULL_PAGE

    def test_format_erases_prior_content(self):
        page = fresh_page()
        page.insert_record(0, b"hello")
        page.format(8, PageType.HEAP)
        assert page.slot_count == 0
        assert page.page_id == 8

    def test_deformat_zeroes(self):
        page = fresh_page()
        page.insert_record(0, b"data")
        page.deformat()
        assert not page.is_formatted()
        assert bytes(page.data) == bytes(PAGE_SIZE)

    def test_restore_replaces_content(self):
        page = fresh_page()
        page.insert_record(0, b"one")
        image = page.clone_bytes()
        page.insert_record(1, b"two")
        page.restore(image)
        assert page.slot_count == 1
        assert page.record(0) == b"one"

    def test_restore_size_mismatch(self):
        page = fresh_page()
        with pytest.raises(StorageError):
            page.restore(b"short")

    def test_header_fields_settable(self):
        page = fresh_page()
        page.page_lsn = 12345
        page.last_image_lsn = 99
        page.prev_page = 3
        page.next_page = 4
        page.mods_since_image = 17
        assert page.page_lsn == 12345
        assert page.last_image_lsn == 99
        assert page.prev_page == 3
        assert page.next_page == 4
        assert page.mods_since_image == 17


class TestRecordOps:
    def test_insert_and_read(self):
        page = fresh_page()
        page.insert_record(0, b"alpha")
        assert page.slot_count == 1
        assert page.record(0) == b"alpha"

    def test_insert_shifts_slots(self):
        page = fresh_page()
        page.insert_record(0, b"b")
        page.insert_record(0, b"a")
        page.insert_record(2, b"c")
        assert list(page.records()) == [b"a", b"b", b"c"]

    def test_insert_middle(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.insert_record(1, b"c")
        page.insert_record(1, b"b")
        assert list(page.records()) == [b"a", b"b", b"c"]

    def test_insert_out_of_range(self):
        page = fresh_page()
        with pytest.raises(StorageError):
            page.insert_record(1, b"x")

    def test_delete_returns_payload(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.insert_record(1, b"b")
        assert page.delete_record(0) == b"a"
        assert list(page.records()) == [b"b"]

    def test_delete_last(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.delete_record(0)
        assert page.slot_count == 0

    def test_update_same_size_in_place(self):
        page = fresh_page()
        page.insert_record(0, b"aaaa")
        old = page.update_record(0, b"bbbb")
        assert old == b"aaaa"
        assert page.record(0) == b"bbbb"

    def test_update_shrink(self):
        page = fresh_page()
        page.insert_record(0, b"aaaaaaaa")
        page.update_record(0, b"b")
        assert page.record(0) == b"b"

    def test_update_grow_relocates(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.insert_record(1, b"z")
        page.update_record(0, b"a" * 100)
        assert page.record(0) == b"a" * 100
        assert page.record(1) == b"z"

    def test_insert_full_page_raises(self):
        page = fresh_page()
        payload = b"x" * page.max_payload()
        page.insert_record(0, payload)
        with pytest.raises(PageFullError):
            page.insert_record(1, b"y")

    def test_compaction_reclaims_garbage(self):
        page = fresh_page()
        chunk = b"c" * 100
        count = 0
        while page.has_room_for(len(chunk)):
            page.insert_record(page.slot_count, chunk)
            count += 1
        # Free half, then a big insert must succeed via compaction.
        for slot in range(count - 1, -1, -2):
            page.delete_record(slot)
        big = b"B" * 150
        assert page.has_room_for(len(big))
        page.insert_record(0, big)
        assert page.record(0) == big

    def test_total_free_counts_garbage(self):
        page = fresh_page()
        page.insert_record(0, b"d" * 200)
        free_before = page.total_free()
        page.delete_record(0)
        assert page.total_free() == free_before + 200 + 2 + 2

    def test_max_payload_fits_exactly(self):
        page = fresh_page()
        page.insert_record(0, b"m" * page.max_payload())
        assert page.contiguous_free() == 0


class TestBodyBits:
    def test_set_get_roundtrip(self):
        page = fresh_page(page_type=PageType.ALLOC_MAP)
        page.set_body_bit(0, True)
        page.set_body_bit(77, True)
        assert page.get_body_bit(0)
        assert page.get_body_bit(77)
        assert not page.get_body_bit(1)
        page.set_body_bit(77, False)
        assert not page.get_body_bit(77)

    def test_bit_out_of_range(self):
        page = fresh_page()
        with pytest.raises(StorageError):
            page.get_body_bit(PAGE_SIZE * 8)

    def test_geometry(self):
        per_map = alloc_bitmap_geometry(PAGE_SIZE)
        assert per_map == (PAGE_SIZE - HEADER_SIZE) * 8 // 2
        assert ever_bit_offset(PAGE_SIZE) == per_map


# ---------------------------------------------------------------------------
# Property tests: the page behaves like a list of payloads.
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=30),
        st.binary(min_size=0, max_size=40),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_page_matches_list_model(ops):
    """Random insert/delete/update sequences match a plain list model."""
    page = fresh_page()
    model: list[bytes] = []
    for op, pos, payload in ops:
        if op == "insert":
            slot = min(pos, len(model))
            if page.has_room_for(len(payload)):
                page.insert_record(slot, payload)
                model.insert(slot, payload)
        elif op == "delete" and model:
            slot = pos % len(model)
            assert page.delete_record(slot) == model.pop(slot)
        elif op == "update" and model:
            slot = pos % len(model)
            growth = len(payload) - len(model[slot])
            if growth <= 0 or page.total_free() >= growth:
                page.update_record(slot, payload)
                model[slot] = payload
    assert list(page.records()) == model
    assert page.slot_count == len(model)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=20))
def test_clone_restore_roundtrip(payloads):
    page = fresh_page()
    for index, payload in enumerate(payloads):
        if page.has_room_for(len(payload)):
            page.insert_record(index if index <= page.slot_count else page.slot_count, payload)
    image = page.clone_bytes()
    survived = list(page.records())
    page.insert_record(0, b"junk") if page.has_room_for(4) else None
    page.restore(image)
    assert list(page.records()) == survived


# ---------------------------------------------------------------------------
# Space accounting and header accessors against naive references
# ---------------------------------------------------------------------------

#: Header accessors and their field index in ``_HEADER``.
_HEADER_ACCESSORS = {
    "magic": 0, "page_type": 1, "flags": 2, "page_id": 3, "page_lsn": 4,
    "last_image_lsn": 5, "object_id": 6, "index_id": 7, "level": 8,
    "prev_page": 10, "next_page": 11, "slot_count": 12, "free_lower": 13,
    "free_upper": 14, "mods_since_image": 15, "checksum": 16,
}
_SETTABLE = {
    "flags": 0xFF, "page_lsn": 2**64 - 1, "last_image_lsn": 2**64 - 1,
    "prev_page": 2**32 - 1, "next_page": 2**32 - 1, "mods_since_image": 2**16 - 1,
    "checksum": 2**32 - 1,
}


def _reference_live_bytes(page: Page) -> int:
    """Live record bytes by a plain walk of every slot."""
    data = page.data
    total = 0
    for slot in range(page.slot_count):
        (offset,) = struct.unpack_from("<H", data, len(data) - 2 * (slot + 1))
        (length,) = struct.unpack_from("<H", data, offset)
        total += 2 + length
    return total


def _check_accounting(page: Page) -> None:
    from repro.storage.page import _HEADER

    fields = _HEADER.unpack_from(page.data, 0)
    for name, index in _HEADER_ACCESSORS.items():
        assert getattr(page, name) == fields[index], name
    live = _reference_live_bytes(page)
    free = PAGE_SIZE - HEADER_SIZE - 2 * page.slot_count - live
    assert page.live_bytes() == live
    assert page.total_free() == free
    for payload_len in (0, 1, free - 5, free - 4, free - 3, free + 1, PAGE_SIZE):
        assert page.has_room_for(payload_len) == (2 + payload_len + 2 <= free), payload_len


#: Small payloads, and ones whose u16 length has a non-zero high byte.
_payloads = st.one_of(
    st.binary(max_size=60), st.integers(250, 320).map(lambda n: bytes([n % 256]) * n)
)
_accounting_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 40), _payloads),
        st.tuples(st.just("delete"), st.integers(0, 40), st.just(b"")),
        st.tuples(st.just("grow"), st.integers(0, 40), _payloads.filter(len)),
        st.tuples(st.just("shrink"), st.integers(0, 40), st.integers(0, 300)),
        st.tuples(st.just("compact"), st.just(0), st.just(b"")),
        st.tuples(st.just("set"), st.sampled_from(sorted(_SETTABLE)), st.integers(0, 2**16)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_accounting_ops)
def test_accounting_matches_a_slot_walk(ops):
    """After every record op, live/total-free/has-room answers equal a
    per-slot reference walk, and every header accessor equals the field
    unpacked from the whole header."""
    page = fresh_page()
    model: list[bytes] = []
    for op, pos, arg in ops:
        if op == "insert":
            slot = pos % (len(model) + 1)
            if page.has_room_for(len(arg)):
                page.insert_record(slot, arg)
                model.insert(slot, arg)
        elif op == "delete" and model:
            slot = pos % len(model)
            assert page.delete_record(slot) == model.pop(slot)
        elif op == "grow" and model:
            slot = pos % len(model)
            payload = model[slot] + arg
            if page.total_free() >= len(arg):
                page.update_record(slot, payload)
                model[slot] = payload
        elif op == "shrink" and model:
            slot = pos % len(model)
            model[slot] = model[slot][: arg % (len(model[slot]) + 1)]
            page.update_record(slot, model[slot])
        elif op == "compact":
            page.compact()
        elif op == "set":
            value = arg % (_SETTABLE[pos] + 1)
            setattr(page, pos, value)
            assert getattr(page, pos) == value
        _check_accounting(page)
    assert list(page.records()) == model
