"""Section 6.4 — the crossover between as-of rewind and full restore.

The paper: "there is a cross over point where restoring the full database
... will start performing better, especially for cases where a large
amount of data needs to be accessed". We sweep the fraction of the
database an as-of session touches — from the stock-level point query up to
scanning every table including the cold filler — and find where the as-of
total crosses the (flat) restore cost.
"""

from __future__ import annotations

from repro.archive import restore_point_in_time, take_backup
from repro.bench import ReportTable, save_results
from repro.bench.harness import BENCH_SCALE, build_tpcc, make_perf_env
from repro.sim.device import SLC_SSD
from repro.workload.tpcc_txns import stock_level


def _touch_scope(reader, scope: str) -> int:
    """Run one of the progressively wider as-of access patterns."""
    touched = 0
    if scope == "stock_level (1 district)":
        return stock_level(reader, w_id=1, d_id=1, threshold=60)
    if scope == "stock table scan":
        return sum(1 for _ in reader.scan("stock"))
    if scope == "all hot tables":
        for name in ("district", "stock", "orders", "order_line", "customer"):
            touched += sum(1 for _ in reader.scan(name))
        return touched
    if scope == "everything incl. cold data":
        for name in (
            "district",
            "stock",
            "orders",
            "order_line",
            "customer",
            "history",
            "filler",
        ):
            touched += sum(1 for _ in reader.scan(name))
        return touched
    raise ValueError(scope)


SCOPES = (
    "stock_level (1 district)",
    "stock table scan",
    "all hot tables",
    "everything incl. cold data",
)


def run_sec64() -> dict:
    env = make_perf_env(SLC_SSD)
    engine, db, driver = build_tpcc(env, BENCH_SCALE, filler_pages=2500, name="tpcc64")
    backup = take_backup(db)
    driver.run_for(4.0 * 60.0)
    target = env.clock.now() - 3.0 * 60.0

    rows = []
    for scope in SCOPES:
        t0 = env.clock.now()
        snap = engine.create_asof_snapshot(db.name, "xsnap", target)
        _touch_scope(snap, scope)
        asof_s = env.clock.now() - t0
        engine.drop_snapshot("xsnap")

        t1 = env.clock.now()
        restored = restore_point_in_time(engine, backup, db, target, "xrest")
        _touch_scope(restored, scope)
        restore_s = env.clock.now() - t1
        engine.drop_database("xrest")
        rows.append({"scope": scope, "asof_s": asof_s, "restore_s": restore_s})
    return {"rows": rows}


def test_sec64_crossover(benchmark, show):
    result = benchmark.pedantic(run_sec64, rounds=1, iterations=1)

    table = ReportTable(
        "Section 6.4: as-of vs restore as the accessed fraction grows",
        ["access pattern", "as-of s", "restore s", "winner"],
    )
    for row in result["rows"]:
        winner = "as-of" if row["asof_s"] < row["restore_s"] else "restore"
        table.add(row["scope"], row["asof_s"], row["restore_s"], winner)
    show(table)
    save_results("sec64_crossover", result)

    rows = result["rows"]
    # Narrow access: as-of wins decisively.
    assert rows[0]["asof_s"] < rows[0]["restore_s"]
    assert rows[1]["asof_s"] < rows[1]["restore_s"]
    # The crossover exists: touching everything makes restore better
    # (copying sequentially beats preparing page by page).
    assert rows[-1]["asof_s"] > rows[-1]["restore_s"]
    # And the widest as-of access costs far more than the narrow ones
    # (cost tracks data touched; exact ordering between narrow scopes
    # depends on how hot their pages are, not on their breadth).
    assert rows[-1]["asof_s"] > 3 * rows[0]["asof_s"]
