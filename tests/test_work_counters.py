"""Deterministic work counters of the B-tree hot path.

Host seconds are too noisy to gate; how many rows a B-tree operation
decodes is not. A key comparison must never decode a whole row: a point
read decodes exactly the row it returns, a search for an insert or an
update decodes none, and a range scan decodes only the rows in range.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.storage.rowcodec import RowCodec
from tests.conftest import ITEMS_SCHEMA

ROWS = 1500


@pytest.fixture
def counts(monkeypatch) -> SimpleNamespace:
    """Counts every :class:`RowCodec` full and key-only decode."""
    seen = SimpleNamespace(decode=0, decode_key=0)
    decode, decode_key = RowCodec.decode, RowCodec.decode_key

    def counting_decode(codec, *args):
        seen.decode += 1
        return decode(codec, *args)

    def counting_decode_key(codec, *args):
        seen.decode_key += 1
        return decode_key(codec, *args)

    monkeypatch.setattr(RowCodec, "decode", counting_decode)
    monkeypatch.setattr(RowCodec, "decode_key", counting_decode_key)
    return seen


@pytest.fixture
def tree_db(small_db):
    """A seeded three-level items tree (small pages)."""
    small_db.create_table(ITEMS_SCHEMA)
    keys = list(range(0, 2 * ROWS, 2))
    random.Random(11).shuffle(keys)
    with small_db.transaction() as txn:
        for key in keys:
            small_db.insert(txn, "items", (key, f"item-{key}", key * 10))
    assert small_db.table("items").accessor.height() >= 3
    return small_db


def _leaf_slots(tree) -> int:
    """The most slots on any leaf: bounds a binary search's probes."""
    most = 0
    for pid in tree.page_ids():
        with tree.services.fetch(pid) as guard:
            if guard.page.level == 0:
                most = max(most, guard.page.slot_count)
    return most


def test_point_read_decodes_only_the_row_it_returns(tree_db, counts):
    tree = tree_db.table("items").accessor
    probes = _leaf_slots(tree).bit_length()
    counts.decode = counts.decode_key = 0
    assert tree.get((500,)) == (500, "item-500", 5000)
    assert counts.decode == 1
    assert 1 <= counts.decode_key <= probes
    counts.decode = 0
    assert tree.get((501,)) is None
    assert counts.decode == 0


def test_insert_and_update_searches_decode_no_row(tree_db, counts):
    tree = tree_db.table("items").accessor
    counts.decode = 0
    with tree_db.transaction() as txn:
        for key in range(1, 2 * ROWS, 40):
            tree.insert(txn, (key, f"new-{key}", key))
    assert counts.decode == 0
    with tree_db.transaction() as txn:
        prior = tree.update(txn, (500,), (500, "item-500", 7))
    # The one decode is the prior row ``update`` returns.
    assert prior == (500, "item-500", 5000)
    assert counts.decode == 1


def test_range_scan_decodes_only_rows_in_range(tree_db, counts):
    tree = tree_db.table("items").accessor
    counts.decode = 0
    rows = list(tree.scan((1001,), (1401,)))
    assert [row[0] for row in rows] == list(range(1002, 1401, 2))
    assert counts.decode == len(rows)
    counts.decode = 0
    assert list(tree.scan((9999,), (1,))) == []
    assert counts.decode == 0
