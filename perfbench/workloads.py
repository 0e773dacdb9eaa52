"""The benchmark's four workloads.

Each workload is a closed loop: one session in one process, no extra
threads, the next operation issued only after the previous one returned.
All four run on ``make_perf_env(SLC_SSD)``, so the simulated clock
advances through the engine's cost model. The work is a fixed sequence
of operations generated from the seed; the measured loop consumes it one
*step* at a time. Only the generated operations reach the engine.

A workload records ``(start, host seconds)`` of each timed operation in
``samples`` (keyed by operation kind), counts attempted and failed
operations, and appends a message to ``problems`` for every correctness
check that fails. Checks run inside ``self.pause()``, which a traced run
uses to keep them out of the per-layer numbers.

End-to-end metrics share one set of names across workloads. A
workload's ``kinds`` name the samples behind ``op_ms``, ``op2_ms`` and
``op3_ms``; its ``aliases`` give each shared name the name it has on that
workload, which the human-readable output prints beside it.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, replace

from repro.bench.harness import BENCH_SCALE, THINK_TIME_S, build_tpcc, make_perf_env
from repro.config import DatabaseConfig
from repro.core import recovery_tools
from repro.errors import ReproError
from repro.sim.device import SLC_SSD
from repro.tools.checkdb import check_database
from repro.workload import TpccDriver, TpccScale, load_tpcc
from repro.workload.tpcc_txns import stock_level

#: Standby name used by ``error_recovery`` and ``replay``.
STANDBY = "standby"


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload; :data:`SHAPES` holds the benchmark's own,
    :data:`TINY` the self-tests'."""

    scale: TpccScale = BENCH_SCALE
    #: New-order transactions run first in set-up, standing in for the
    #: initial orders TPC-C's load creates and this loader does not.
    initial_orders: int = 0
    #: Transactions of the standard mix run during set-up as a history.
    history_txns: int = 0
    #: AS OF target times recorded over that history (``asof_sweep``).
    targets: int = 0
    #: Transactions between two user errors (``error_recovery``).
    txns_per_step: int = 1
    #: Log written by transactions before each ``replay`` checkpoint and
    #: again before each crash; a byte count rather than a transaction
    #: count keeps the redo work of every restart about the same.
    restart_log_bytes: int = 0
    buffer_pool_pages: int = 1024
    log_cache_blocks: int = 64
    #: Steps run by each half of a traced run, and before an untraced run
    #: reads its peak RSS: a fixed amount of work, so the sim-side counts
    #: of one seed repeat exactly and memory does not track host speed.
    fixed_steps: int = 1


SHAPES = {
    # ~50 pages, all resident in the default 1024-frame pool.
    "oltp": Shape(fixed_steps=300),
    # 1 MB log cache (16 x 64 KB blocks) against a ~3 MB retained log.
    "asof_sweep": Shape(
        initial_orders=240, history_txns=288, targets=48, log_cache_blocks=16, fixed_steps=48
    ),
    # A 16-frame pool against ~45 pages: evictions every few transactions.
    "error_recovery": Shape(txns_per_step=20, buffer_pool_pages=16, fixed_steps=10),
    # ~1.4 MB of history replayed by every fresh standby; each restart
    # redoes ~80 KB of log.
    "replay": Shape(history_txns=400, restart_log_bytes=80_000, fixed_steps=6),
}

_TINY_SCALE = TpccScale(warehouses=2, districts_per_warehouse=2, customers_per_district=8, items=40)

TINY = {
    name: replace(
        shape,
        scale=_TINY_SCALE,
        initial_orders=min(shape.initial_orders, 20),
        history_txns=min(shape.history_txns, 60),
        targets=min(shape.targets, 3),
        txns_per_step=min(shape.txns_per_step, 5),
        restart_log_bytes=min(shape.restart_log_bytes, 8_000),
        buffer_pool_pages=min(shape.buffer_pool_pages, 12),
        fixed_steps=2,
    )
    for name, shape in SHAPES.items()
}


def _rows(reader) -> dict:
    """Every row of every table of ``reader``, in key order."""
    return {name: list(reader.scan(name)) for name in sorted(reader.tables())}


class Workload:
    """Base class: set-up, one step of the measured loop, end checks."""

    name = ""
    #: Sample kinds behind ``op_ms``, ``op2_ms`` and ``op3_ms``.
    kinds: tuple[str, str, str] = ("", "", "")
    #: Workload names of ``ops_per_s``, ``op_ms``, ``op2_ms``, ``op3_ms``.
    aliases: tuple[str, str, str, str] = ("", "", "", "")
    #: The measured loop ends on a multiple of this many steps.
    round_steps = 1

    def __init__(self, seed: int, shape: Shape | None = None) -> None:
        self.seed = seed
        self.shape = shape if shape is not None else SHAPES[self.name]
        self.rng = random.Random(seed)
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Unit ops done (what per-op metrics divide by).
        self.ops = 0.0
        self.committed = 0
        #: Replica apply totals of standbys already dropped.
        self.dropped_replica_records = 0
        self.dropped_replica_batches = 0
        #: Context manager wrapped around every check (see module doc).
        self.pause = contextlib.nullcontext
        #: Host-speed probes run between timed operations and set-up
        #: chunks, when set.
        self.speed = None
        self.engine = None
        self.env = None
        self.db = None

    # -- hooks -------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run checks."""

    def throughput(self) -> tuple[float, tuple[str, ...]]:
        """``ops_per_s`` as unit ops over the time of these sample kinds."""
        return self.committed, ("txn",)

    # -- helpers -----------------------------------------------------

    def _build(self, seed: int | None = None) -> None:
        """Load TPC-C; ``seed`` (default: the workload's) seeds the load
        and the driver's transaction stream."""
        env = make_perf_env(SLC_SSD)
        self.engine, self.db, self.driver = build_tpcc(
            env,
            self.shape.scale,
            config=DatabaseConfig(
                buffer_pool_pages=self.shape.buffer_pool_pages,
                log_cache_blocks=self.shape.log_cache_blocks,
            ),
            seed=self.seed if seed is None else seed,
        )
        self.env = env

    def build_history(self, driver, count: int) -> None:
        """Run ``count`` set-up transactions, probing host speed between
        chunks so a long set-up is rescaled by the speed it ran at."""
        for start in range(0, count, 10):
            if self.speed is not None:
                self.speed.maybe_probe()
            driver.run_transactions(min(10, count - start))

    def timed(self, kind: str, fn, *args):
        """Run one operation, count it and record its host seconds under
        ``kind``; an engine error counts as a failed operation."""
        if self.speed is not None:
            self.speed.maybe_probe()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except ReproError as err:
            self.failed += 1
            self.problems.append(f"{kind} failed: {type(err).__name__}: {err}")
            return None
        self.samples.setdefault(kind, []).append((start, time.perf_counter() - start))
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def check_clean(self, reader, what: str) -> None:
        with self.pause():
            report = check_database(reader)
        self.check(report.ok, f"checkdb on {what}: {report}")

    def run_txn(self, driver) -> None:
        """One TPC-C transaction of ``driver``'s mix, timed as ``txn`` and
        as its type. A mandated new-order rollback completes without
        committing."""
        result = self.timed("txn", driver.run_transactions, 1)
        if result is None:
            return
        self.committed += result.committed
        for kind in result.by_type:
            self.samples.setdefault(kind, []).append(self.samples["txn"][-1])

    def standby_matches(self, replica) -> None:
        """Catch ``replica`` up and check it row-identical to its primary."""
        with self.pause():
            while replica.lag_bytes():
                self.engine.replication_tick()
            same = _rows(replica.db) == _rows(self.db)
        self.check(same, f"standby {replica.name} diverged from its primary")

    def replica_totals(self) -> tuple[int, int]:
        """(records applied, apply batches) over every standby so far."""
        records = self.dropped_replica_records
        batches = self.dropped_replica_batches
        for replica in self.engine.replicas.values():
            records += replica.stats.records_applied
            batches += replica.stats.apply_batches
        return records, batches

    def pools(self) -> list:
        """Every snapshot pool the workload's AS OF reads can lease from."""
        return [self.engine.snapshot_pool] + [
            replica.snapshot_pool for replica in self.engine.replicas.values()
        ]


class Oltp(Workload):
    """TPC-C standard mix: the foreground cost of keeping history."""

    name = "oltp"
    kinds = ("new_order", "payment", "delivery")
    aliases = ("txn_per_s", "new_order_ms", "payment_ms", "delivery_ms")

    def setup(self) -> None:
        self._build()

    def step(self) -> None:
        self.run_txn(self.driver)
        self.ops += 1

    def finish(self) -> None:
        self.check_clean(self.db, "the primary")


class AsofSweep(Workload):
    """Stock-level AS OF a recorded history, in three cache classes.

    The history is the same for every seed: how much log a seeded history
    writes between checkpoints (deliveries are rare and large) moves every
    AS OF cost by 15-20%, which would swamp the changes the sweep is for.
    The seed picks which district each target queries.
    """

    #: Seed of the history's load and transaction stream.
    HISTORY_SEED = 1

    name = "asof_sweep"
    kinds = ("cold", "nearby", "warm")
    aliases = ("asof_queries_per_s", "asof_cold_ms", "asof_nearby_ms", "asof_warm_ms")
    #: Offset of a nearby target past its recorded time: well inside the
    #: 0.2 sim-s think time that precedes the next commit, so the target
    #: stays between the same two commits.
    NEARBY_S = 0.05

    def setup(self) -> None:
        self._build(self.HISTORY_SEED)
        scale = self.shape.scale
        # Every district needs its 20 recent orders from the first target
        # on, or early targets would be cheaper than late ones.
        initial = TpccDriver(
            self.db,
            scale,
            seed=self.HISTORY_SEED,
            mix=(("new_order", 1.0),),
            think_time_s=THINK_TIME_S,
        )
        self.build_history(initial, self.shape.initial_orders)
        per_target = self.shape.history_txns // self.shape.targets
        # Every district in turn, in a seeded order, so seeds differ in
        # their history but not in which districts they query.
        districts = [
            (w_id, d_id)
            for w_id in range(1, scale.warehouses + 1)
            for d_id in range(1, scale.districts_per_warehouse + 1)
        ]
        self.rng.shuffle(districts)
        #: (time, w_id, d_id, live stock_level answer at that time)
        self.targets = []
        for k in range(self.shape.targets):
            self.build_history(self.driver, per_target)
            at = self.env.clock.now()
            w_id, d_id = districts[k % len(districts)]
            self.targets.append((at, w_id, d_id, stock_level(self.db, w_id, d_id, 60)))
        # A commit after the last target keeps every nearby target in the past.
        self.build_history(self.driver, per_target)
        self.cursor = 0
        self.round_steps = len(self.targets)

    def query(self, at: float, w_id: int, d_id: int) -> int:
        with self.engine.query_as_of(self.db.name, at) as snapshot:
            return stock_level(snapshot, w_id, d_id, 60)

    def step(self) -> None:
        at, w_id, d_id, live = self.targets[self.cursor % len(self.targets)]
        self.cursor += 1
        pool = self.engine.snapshot_pool
        with self.pause():
            pool.clear()
            self.engine.version_store.clear()
        cold = self.timed("cold", self.query, at, w_id, d_id)
        with self.pause():
            pool.clear()
        nearby = self.timed("nearby", self.query, at + self.NEARBY_S, w_id, d_id)
        hits = pool.stats.hits
        warm = self.timed("warm", self.query, at + self.NEARBY_S, w_id, d_id)
        self.ops += 3
        self.check(
            cold == nearby == warm == live,
            f"AS OF {at:.3f}s w{w_id}d{d_id}: live {live}, "
            f"cold {cold}, nearby {nearby}, warm {warm}",
        )
        self.check(pool.stats.hits == hits + 1, f"warm AS OF {at:.3f}s missed the pool")

    def throughput(self) -> tuple[float, tuple[str, ...]]:
        return sum(len(self.samples.get(kind, ())) for kind in self.kinds), self.kinds


class ErrorRecovery(Workload):
    """TPC-C beside a standby, with periodic user errors repaired from
    the log: the paper's headline use case."""

    name = "error_recovery"
    kinds = ("new_order", "recover", "asof_sql")
    aliases = ("txn_per_s", "new_order_ms", "recover_ms", "asof_sql_ms")

    def setup(self) -> None:
        self._build()
        self.replica = self.engine.add_replica(self.db.name, STANDBY)
        self.writer = TpccDriver(
            self.db,
            self.shape.scale,
            seed=self.seed,
            think_time_s=THINK_TIME_S,
            pump=self.engine.replication_tick,
        )

    def sql(self, text: str):
        return self.engine.sql(text, database=self.db.name)

    def throughput(self) -> tuple[float, tuple[str, ...]]:
        return self.committed, ("txn", "recover", "asof_sql")

    def recover(self, w_id: int, before: float) -> int:
        """The user error, then its repair from the log."""
        self.sql(f"DELETE FROM stock WHERE w_id = {w_id}")
        with self.engine.query_as_of(self.db.name, before) as past:
            diff = recovery_tools.diff_table(past, self.db, "stock")
            return recovery_tools.restore_rows(self.db, "stock", diff)

    def step(self) -> None:
        for _ in range(self.shape.txns_per_step):
            self.run_txn(self.writer)
        w_id = self.rng.randint(1, self.shape.scale.warehouses)
        where = f"FROM stock WHERE w_id = {w_id}"
        before = self.env.clock.now()
        with self.pause():
            live = self.sql(f"SELECT COUNT(*), SUM(s_quantity) {where}").rows
        restored = self.timed("recover", self.recover, w_id, before)
        with self.pause():
            with self.engine.query_as_of(self.db.name, before) as past:
                diff = recovery_tools.diff_table(past, self.db, "stock")
            now = self.sql(f"SELECT COUNT(*), SUM(s_quantity) {where}").rows
        self.check(diff.is_empty, f"stock w{w_id} still differs from {before:.3f}s after restore")
        self.check(now == live, f"stock w{w_id}: {now} after restore, {live} before the error")
        self.check(restored == live[0][0], f"restored {restored} of {live[0][0]} stock rows")
        stamp = self.env.clock.to_datetime(before).strftime("%Y-%m-%d %H:%M:%S.%f")
        past_rows = self.timed(
            "asof_sql",
            self.sql,
            f"SELECT COUNT(*), SUM(s_quantity) FROM stock AS OF '{stamp}' WHERE w_id = {w_id}",
        )
        past_rows = past_rows.rows if past_rows is not None else None
        self.check(past_rows == live, f"AS OF '{stamp}' w{w_id}: {past_rows}, live {live}")
        self.ops += 1

    def finish(self) -> None:
        self.check_clean(self.db, "the primary")
        self.standby_matches(self.replica)


class Replay(Workload):
    """Redo only: fresh standbys replay a fixed history, and a second
    database crashes and restarts."""

    name = "replay"
    kinds = ("catchup_per_mb", "restart", "checkpoint")
    aliases = ("catchup_mb_per_s", "catchup_ms_per_mb", "restart_ms", "checkpoint_ms")

    def setup(self) -> None:
        self._build()
        self.build_history(self.driver, self.shape.history_txns)
        # The restarts run on their own database, so the history every
        # standby replays stays the same size from step to step.
        self.victim = self.engine.create_database("restarted", self.db.config)
        load_tpcc(self.victim, self.shape.scale, seed=self.seed)
        # The step takes every checkpoint itself, so each restart redoes
        # exactly the log written since the last one.
        self.writer = TpccDriver(
            self.victim,
            self.shape.scale,
            seed=self.seed,
            checkpoint_interval_s=float("inf"),
            think_time_s=THINK_TIME_S,
        )
        self.replayed_bytes = 0

    def catch_up(self):
        replica = self.engine.add_replica(self.db.name, STANDBY)
        while replica.lag_bytes():
            self.engine.replication_tick()
        return replica

    def restart(self) -> None:
        self.victim.crash()
        self.victim.recover()

    def step(self) -> None:
        replica = self.timed("catchup", self.catch_up)
        if replica is not None:
            mb = replica.stats.bytes_received / 1e6
            start, seconds = self.samples["catchup"][-1]
            self.samples.setdefault("catchup_per_mb", []).append((start, seconds / mb))
            self.replayed_bytes += replica.stats.bytes_received
            self.ops += mb
            self.standby_matches(replica)
            self.dropped_replica_records += replica.stats.records_applied
            self.dropped_replica_batches += replica.stats.apply_batches
            self.engine.drop_replica(STANDBY)
        self._write_log()
        self.timed("checkpoint", self.victim.checkpoint)
        self._write_log()
        with self.pause():
            before = _rows(self.victim)
        self.timed("restart", self.restart)
        self.check_clean(self.victim, "the restarted database")
        with self.pause():
            after = _rows(self.victim)
        self.check(after == before, "committed rows changed across a restart")

    def _write_log(self) -> None:
        """Run transactions until they wrote ``restart_log_bytes`` of log."""
        start = self.victim.log.end_lsn
        while self.victim.log.end_lsn - start < self.shape.restart_log_bytes:
            self.run_txn(self.writer)

    def throughput(self) -> tuple[float, tuple[str, ...]]:
        return self.replayed_bytes / 1e6, ("catchup",)


WORKLOADS = {cls.name: cls for cls in (Oltp, AsofSweep, ErrorRecovery, Replay)}
