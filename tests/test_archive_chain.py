"""Chain restore correctness under TPC-C churn.

Full + 2 incrementals + archived log, restored at three different times,
must (a) match the live ``AS OF`` view and a point-in-time restore of the
full backup over the primary's retained log wherever all can reach,
(b) pass ``checkdb`` on every restored copy, and (c) keep working after
the primary's retention window has closed — where only the archive can
still serve the time.
"""

from __future__ import annotations

import pytest

from repro.archive import restore_point_in_time
from repro.errors import RetentionExceededError
from repro.tools import check_database
from repro.workload import TpccDriver, TpccScale, load_tpcc

SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=6,
    items=30,
)


@pytest.fixture
def churned(engine):
    """TPC-C primary with a full + 2 incrementals and a mark in each era."""
    db = engine.create_database("tpcc")
    load_tpcc(db, SCALE, seed=11)
    driver = TpccDriver(db, SCALE, seed=11, think_time_s=0.05)
    driver.pump = engine.replication_tick
    engine.backup_database("tpcc")
    marks = []
    for _round in range(3):
        driver.run_transactions(40)
        db.env.clock.advance(1)
        marks.append(db.env.clock.now())
        db.env.clock.advance(1)
        if _round < 2:
            engine.backup_database("tpcc")
    driver.run_transactions(10)
    db.log.flush()
    engine.archives["tpcc"].poll()
    return db, driver, marks


def _tables_equal(a, b) -> None:
    assert sorted(a.tables()) == sorted(b.tables())
    for table in a.tables():
        assert list(a.scan(table)) == list(b.scan(table)), table


class TestChainRestoreCorrectness:
    def test_restores_match_live_asof_and_pass_checkdb(self, engine, churned):
        db, _driver, marks = churned
        chain = engine.archives["tpcc"].store.newest_chain("tpcc")
        assert len(chain) == 3  # full + 2 incrementals
        for mark in marks:
            restored = engine.restore_from_archive("tpcc", mark)
            # The retained-log route from the chain's full backup must
            # land on the same rows as the archived-log route.
            pitr = restore_point_in_time(engine, chain[0], db, mark, "tpcc_pitr")
            with engine.query_as_of("tpcc", mark) as snap:
                _tables_equal(restored, snap)
                _tables_equal(pitr, snap)
            _tables_equal(pitr, restored)
            report = check_database(restored)
            assert report.ok, report.problems
            engine.drop_database(restored.name)
            engine.drop_database(pitr.name)

    def test_restore_outlives_the_retention_window(self, engine, churned):
        db, _driver, marks = churned
        db.set_undo_interval(1.0)
        db.env.clock.advance(30)
        db.checkpoint()
        db.env.clock.advance(30)
        db.checkpoint()
        db.enforce_retention()
        with pytest.raises(RetentionExceededError):
            engine.snapshot_pool.acquire(db, marks[0])
        restored = engine.restore_from_archive("tpcc", marks[0])
        report = check_database(restored)
        assert report.ok, report.problems
        # The archive-backed query_as_of fallback serves the same state.
        with engine.query_as_of("tpcc", marks[0]) as reader:
            _tables_equal(restored, reader)

    def test_seeded_replica_under_churn(self, engine, churned):
        db, driver, _marks = churned
        db.set_undo_interval(1.0)
        db.env.clock.advance(30)
        db.checkpoint()
        db.env.clock.advance(30)
        db.checkpoint()
        db.enforce_retention()
        replica = engine.add_replica("tpcc", "standby", seed_from_backup=True)
        driver.run_transactions(30)
        db.log.flush()
        engine.replication_tick()
        assert replica.lag_bytes() == 0
        _tables_equal(replica, db)
        report = check_database(replica.db)
        assert report.ok, report.problems
