"""Sim-time invariance golden.

The simulated clock, the I/O counters, the log length and the bytes of
every data page are the reproduction's *result*: host-side optimisation
of the engine must never move them. This test runs a small seeded TPC-C
history on the performance cost model, an inline ``AS OF`` query and a
crash/restart, and compares all of it to ``golden/sim_invariance.json``.

Regenerate the golden only for a change that is *meant* to move sim
time or on-page bytes::

    REPRO_WRITE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sim_invariance.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.bench.harness import build_tpcc, make_perf_env
from repro.config import DatabaseConfig
from repro.sim.device import SLC_SSD
from repro.workload import TpccScale

GOLDEN = Path(__file__).resolve().parent / "golden" / "sim_invariance.json"

#: Small pages and a small pool: multi-level trees, splits and evictions
#: all appear within a short history.
SCALE = TpccScale(warehouses=2, districts_per_warehouse=2, customers_per_district=8, items=40)
CONFIG = dict(page_size=1024, buffer_pool_pages=24, log_cache_blocks=8)
SEED = 5
HISTORY_TXNS = 80


def _page_digest(db) -> str:
    """SHA-256 over every data page: the resident frame where there is
    one, else the durable bytes. Neither read charges I/O."""
    digest = hashlib.sha256()
    for pid in range(db.file_manager.page_count):
        frame = db.buffer.peek(pid)
        data = frame.page.data if frame is not None else db.file_manager.read_page_raw(pid)
        digest.update(pid.to_bytes(4, "little"))
        digest.update(bytes(data))
    return digest.hexdigest()


def _observe(env, db) -> dict:
    return {
        "sim_seconds": repr(env.clock.now()),
        "end_lsn": db.log.end_lsn,
        "io": dict(sorted(env.stats.as_dict().items())),
        "pages": _page_digest(db),
    }


def run_history() -> dict:
    env = make_perf_env(SLC_SSD)
    engine, db, driver = build_tpcc(env, SCALE, config=DatabaseConfig(**CONFIG), seed=SEED)
    driver.run_transactions(HISTORY_TXNS // 2)
    mark = env.clock.now()
    driver.run_transactions(HISTORY_TXNS // 2)
    observed = {"history": _observe(env, db)}

    stamp = env.clock.to_datetime(mark).strftime("%Y-%m-%d %H:%M:%S.%f")
    past = engine.sql(
        f"SELECT COUNT(*), SUM(s_quantity) FROM stock AS OF '{stamp}' WHERE w_id = 1",
        database=db.name,
    ).rows
    observed["asof"] = {"rows": [list(row) for row in past], **_observe(env, db)}

    db.crash()
    db.recover()
    observed["restart"] = _observe(env, db)
    return observed


def test_sim_time_and_page_bytes_match_the_golden():
    observed = json.loads(json.dumps(run_history()))
    if os.environ.get("REPRO_WRITE_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(observed, indent=1) + "\n")
    golden = json.loads(GOLDEN.read_text())
    for phase in ("history", "asof", "restart"):
        assert observed[phase] == golden[phase], phase
