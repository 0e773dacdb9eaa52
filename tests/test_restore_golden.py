"""Backup and restore golden.

Both restore routes run one recipe: lay backup pages down, roll a log
forward to the SplitLSN, undo transactions in flight there. This test
pins what that recipe produces and what it costs, for a small seeded
TPC-C history on the performance cost model:

* a full and an incremental page backup: ``backup_lsn``, the
  predecessor's LSN, the page ids and the SHA-256 of each page;
* ``restore_point_in_time`` from the full backup against the primary's
  retained log;
* an archive restore over a full + incremental chain;
* an archive restore to a time past the primary's retention horizon.

For each restore it records the sim-clock delta, the ``IoStats`` delta,
the SHA-256 of every restored data page and a digest of every table's
rows. Regenerate the golden only for a change that is *meant* to move
restore cost or restored bytes::

    REPRO_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_restore_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from test_sim_invariance import CONFIG, SCALE, SEED

from repro.archive import plan_restore, restore_from_archive, restore_point_in_time, take_backup
from repro.bench.harness import build_tpcc, make_perf_env
from repro.config import DatabaseConfig
from repro.core.split_lsn import find_split_lsn
from repro.sim.device import SLC_SSD

GOLDEN = Path(__file__).resolve().parent / "golden" / "restore.json"

TXNS_PER_ERA = 20


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def _backup_view(backup, base_lsn) -> dict:
    return {
        "backup_lsn": backup.backup_lsn,
        "base_lsn": base_lsn,
        "page_ids": sorted(backup.pages),
        "pages": [_sha(backup.pages[pid]) for pid in sorted(backup.pages)],
    }


def _page_digests(db) -> list[str]:
    """SHA-256 of every data page: the resident frame where there is
    one, else the durable bytes. Neither read charges I/O."""
    digests = []
    for pid in range(db.file_manager.page_count):
        frame = db.buffer.peek(pid)
        data = frame.page.data if frame is not None else db.file_manager.read_page_raw(pid)
        digests.append(_sha(data))
    return digests


def _row_digests(db) -> dict[str, str]:
    return {
        table: hashlib.sha256(repr(list(db.scan(table))).encode()).hexdigest()
        for table in sorted(db.tables())
    }


def _measured(env, restore) -> dict:
    """Run ``restore()`` and record its sim cost, then its contents."""
    start = env.clock.now()
    before = env.stats.snapshot()
    restored = restore()
    observed = {
        "sim_seconds": repr(env.clock.now() - start),
        "io": dict(sorted(env.stats.delta(before).as_dict().items())),
    }
    observed["pages"] = _page_digests(restored)
    observed["rows"] = _row_digests(restored)
    observed["read_only"] = restored.read_only
    return observed


def run_history() -> dict:
    env = make_perf_env(SLC_SSD)
    engine, db, driver = build_tpcc(env, SCALE, config=DatabaseConfig(**CONFIG), seed=SEED)
    driver.pump = engine.replication_tick
    observed: dict = {}

    full = take_backup(db)
    driver.run_transactions(TXNS_PER_ERA)
    engine.backup_database(db.name)
    driver.run_transactions(TXNS_PER_ERA)
    early = env.clock.now()
    env.clock.advance(1)
    inc = take_backup(db, full)
    observed["backups"] = {
        "full": _backup_view(full, None),
        "incremental": _backup_view(inc, inc.base_lsn),
    }

    driver.run_transactions(3 * TXNS_PER_ERA)
    engine.backup_database(db.name)
    driver.run_transactions(TXNS_PER_ERA)
    late = env.clock.now()
    env.clock.advance(1)
    driver.run_transactions(TXNS_PER_ERA // 4)
    db.log.flush()
    store = engine.archives[db.name].store
    engine.archives[db.name].poll()

    observed["pitr"] = _measured(
        env, lambda: restore_point_in_time(engine, full, db, late, "pitr")
    )

    plan = plan_restore(store, db.name, late)
    observed["archive_chain"] = {
        "chain": len(plan.chain),
        **_measured(env, lambda: restore_from_archive(engine, store, db.name, late, "chain")),
    }

    db.set_undo_interval(5.0)
    for _ in range(2):
        env.clock.advance(50.0)
        db.checkpoint()
    db.enforce_retention()
    engine.archives[db.name].poll()
    observed["past_horizon"] = {
        "past": db.log.start_lsn > find_split_lsn(store.log_view(db.name), early),
        **_measured(env, lambda: restore_from_archive(engine, store, db.name, early, "past")),
    }
    return observed


def test_restores_match_the_golden():
    observed = json.loads(json.dumps(run_history()))
    assert observed["archive_chain"]["chain"] == 2
    assert observed["past_horizon"]["past"]
    if os.environ.get("REPRO_WRITE_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(observed, indent=1) + "\n")
    golden = json.loads(GOLDEN.read_text())
    for phase in ("backups", "pitr", "archive_chain", "past_horizon"):
        assert observed[phase] == golden[phase], phase
