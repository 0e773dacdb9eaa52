"""End-to-end integration: the mechanisms composed, as a user would.

Each test tells one full story — crash in the middle of time-travel
workflows, backups plus as-of on the same history, snapshots over a
recovered database, multi-database engines — checking that the pieces
compose without seams.
"""

from __future__ import annotations

import pytest

from repro.archive import restore_point_in_time, take_backup
from repro.core.recovery_tools import diff_table, restore_rows
from repro.workload import TpccDriver, TpccScale, load_tpcc
from repro.workload.tpcc_txns import stock_level
from tests.conftest import ITEMS_SCHEMA, fill_items

SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=8,
    items=40,
)


class TestCrashThenTimeTravel:
    def test_asof_works_after_crash_recovery(self, engine, items_db):
        """History written before a crash stays reachable after recovery."""
        db = items_db
        fill_items(db, 10)
        db.env.clock.advance(10)
        good = db.env.clock.now()
        db.env.clock.advance(10)
        with db.transaction() as txn:
            db.update(txn, "items", (3,), {"qty": -3})
        db.crash()
        db.recover()
        snap = engine.create_asof_snapshot("itemsdb", "precrash", good)
        assert snap.get("items", (3,))[2] == 30
        assert db.get("items", (3,))[2] == -3

    def test_crash_during_snapshot_use(self, engine, items_db):
        """Snapshots are volatile: after a crash they are gone, but the
        same instant can be re-mounted from the recovered log."""
        db = items_db
        fill_items(db, 10)
        good = db.env.clock.now()
        db.env.clock.advance(5)
        snap = engine.create_asof_snapshot("itemsdb", "victim", good)
        assert snap.get("items", (1,)) is not None
        db.crash()
        db.recover()
        engine.snapshots.pop("victim", None)
        again = engine.create_asof_snapshot("itemsdb", "victim2", good)
        assert again.get("items", (1,)) == (1, "item-1", 10)

    def test_crash_preserves_committed_compensation(self, items_db):
        from repro.core.txn_undo import undo_transaction

        db = items_db
        fill_items(db, 5)
        txn = db.begin()
        db.update(txn, "items", (1,), {"qty": 999})
        db.commit(txn)
        undo_transaction(db, txn.txn_id)
        db.crash()
        db.recover()
        assert db.get("items", (1,))[2] == 10


class TestBackupPlusAsOf:
    def test_three_ways_to_the_same_instant(self, engine, items_db):
        """Backup-restore, as-of snapshot and diff-reconcile all agree."""
        db = items_db
        fill_items(db, 20)
        backup = take_backup(db)
        db.env.clock.advance(10)
        with db.transaction() as txn:
            for i in range(10):
                db.update(txn, "items", (i,), {"qty": 1000 + i})
        mark = db.env.clock.now()
        db.env.clock.advance(10)
        with db.transaction() as txn:
            for i in range(10, 20):
                db.delete(txn, "items", (i,))

        snap = engine.create_asof_snapshot("itemsdb", "s", mark)
        restored = restore_point_in_time(engine, backup, db, mark, "r")
        asof_rows = list(snap.scan("items"))
        restored_rows = list(restored.scan("items"))
        assert asof_rows == restored_rows

        diff = diff_table(snap, db, "items")
        assert len(diff.only_in_past) == 10
        restore_rows(db, "items", diff)
        assert sum(1 for _ in db.scan("items")) == 20


class TestTpccFullStory:
    def test_oops_and_recover_under_load(self, engine):
        """A TPC-C system loses its order_line table mid-flight; operators
        recover it from an as-of snapshot while the workload continues."""
        db = engine.create_database("prod")
        load_tpcc(db, SCALE)
        driver = TpccDriver(db, SCALE, seed=17, think_time_s=0.02)
        driver.run_transactions(80)
        level_before = stock_level(db, 1, 1, 60)
        good = db.env.clock.now()
        db.env.clock.advance(5)

        rows_before = db.table("order_line").count()
        db.drop_table("order_line")

        # Workload parts that don't touch order_line keep running.
        from repro.workload.tpcc_txns import payment
        import random

        rng = random.Random(9)
        for seq in range(1000, 1010):
            payment(db, rng, SCALE, seq)

        from repro.core.recovery_tools import recover_dropped_table

        copied = recover_dropped_table(engine, "prod", "order_line", good)
        assert copied == rows_before
        assert stock_level(db, 1, 1, 60) == level_before
        driver.run_transactions(40)  # and the system keeps going
        assert db.table("order_line").count() > rows_before

    def test_snapshot_consistency_under_concurrent_load(self, engine):
        """A snapshot taken mid-run stays consistent while the workload
        keeps mutating the primary."""
        db = engine.create_database("busy")
        load_tpcc(db, SCALE)
        driver = TpccDriver(db, SCALE, seed=23, think_time_s=0.02)
        driver.run_transactions(60)
        mark = db.env.clock.now()
        expected_ytd = sum(w[2] for w in db.scan("warehouse"))
        expected_hist = sum(h[4] for h in db.scan("history"))
        db.env.clock.advance(1)
        snap = engine.create_asof_snapshot("busy", "mid", mark)
        driver.run_transactions(60)  # primary diverges
        got_ytd = sum(w[2] for w in snap.scan("warehouse"))
        got_hist = sum(h[4] for h in snap.scan("history"))
        assert got_ytd == pytest.approx(expected_ytd)
        assert got_hist == pytest.approx(expected_hist)
        assert sum(w[2] for w in db.scan("warehouse")) > expected_ytd


class TestMultiDatabase:
    def test_independent_histories(self, engine):
        a = engine.create_database("a")
        b = engine.create_database("b")
        for db in (a, b):
            db.create_table(ITEMS_SCHEMA)
        with a.transaction() as txn:
            a.insert(txn, "items", (1, "in-a", 1))
        mark = engine.env.clock.now()
        engine.env.clock.advance(5)
        with b.transaction() as txn:
            b.insert(txn, "items", (1, "in-b", 1))
        snap_a = engine.create_asof_snapshot("a", "sa", mark)
        snap_b = engine.create_asof_snapshot("b", "sb", mark)
        assert snap_a.get("items", (1,))[1] == "in-a"
        assert snap_b.get("items", (1,)) is None

    def test_sql_across_everything(self, engine):
        session = engine.session()
        session.execute("CREATE DATABASE main")
        session.execute("USE main")
        session.execute(
            "CREATE TABLE t (k INT NOT NULL, v VARCHAR(20) NOT NULL, PRIMARY KEY (k))"
        )
        session.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
        mark = engine.env.clock.to_datetime().replace(tzinfo=None)
        engine.env.clock.advance(60)
        session.execute("DELETE FROM t WHERE k = 1")
        session.execute(
            f"CREATE DATABASE past AS SNAPSHOT OF main AS OF '{mark.isoformat(sep=' ')}'"
        )
        merged = session.execute(
            "INSERT INTO t SELECT * FROM past.t WHERE k = 1"
        )
        assert merged.rowcount == 1
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 2
