"""Outside-in layer tracing for the benchmark.

The engine has no host-time spans of its own, so a traced run wraps the
public functions of each layer from here: methods on their class, and
module-level functions in every ``repro`` module that binds them (a
``from x import f`` in the caller makes a private binding that wrapping
the defining module would miss). Each call records a span with its name,
start, end, parent span and the op id of the step that caused it. A
generator function gets one span per resume, so a scan's time is charged
to the scan and not to whoever consumes it. Spans stay in memory until
the run ends.

A span's *self time* is its duration minus the part its child spans
cover; every ``us_per_op`` metric is self time, so each layer is charged
only for its own code.

:class:`Meter` snapshots the engine's own counters (IoStats, sim clock,
latch counters, pool and replica stats). Checks run inside
:meth:`Meter.pause`, whose counter movement is subtracted, so per-layer
numbers describe the workload and not its checks.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

from repro.latch import Latch

#: Every wrapped call: (module, attribute path, span name, {binding module:
#: span name} for callers whose calls belong to another layer).
TARGETS = (
    ("repro.storage.rowcodec", "RowCodec.decode", "storage.rowcodec.decode"),
    ("repro.storage.rowcodec", "RowCodec.decode_key", "storage.rowcodec.decode_key"),
    ("repro.storage.rowcodec", "RowCodec.encode", "storage.rowcodec.encode"),
    ("repro.storage.page", "Page.has_room_for", "storage.page.has_room_for"),
    ("repro.storage.buffer", "BufferPool.fetch", "storage.buffer.fetch"),
    ("repro.access.btree", "BTree.get", "access.btree.read"),
    ("repro.access.btree", "BTree.scan", "access.btree.read"),
    ("repro.access.btree", "BTree.insert", "access.btree.write"),
    ("repro.access.btree", "BTree.update", "access.btree.write"),
    ("repro.access.btree", "BTree.delete", "access.btree.write"),
    ("repro.catalog.schema", "TableSchema.key_positions", "catalog.schema"),
    ("repro.catalog.schema", "TableSchema.key_of", "catalog.schema"),
    ("repro.catalog.schema", "TableSchema.position_of", "catalog.schema"),
    ("repro.wal.log_manager", "LogManager.append", "wal.append"),
    ("repro.wal.log_manager", "LogManager.flush", "wal.flush"),
    ("repro.wal.log_manager", "LogManager.scan", "wal.scan"),
    ("repro.wal.log_manager", "LogManager.read_many", "wal.read_many"),
    ("repro.wal.log_manager", "LogManager.read_header", "wal.read_header"),
    ("repro.wal.records", "decode_record", "wal.decode"),
    ("repro.wal.apply", "RedoApplier.apply", "wal.redo"),
    ("repro.txn.manager", "TransactionManager.commit", "txn.commit"),
    ("repro.txn.locks", "LockManager.acquire", "txn.locks.acquire"),
    ("repro.core.split_lsn", "find_split_lsn", "core.split_lsn"),
    (
        "repro.engine.recovery",
        "analyze_log",
        "core.analysis",
        {"repro.engine.recovery": "engine.recovery.analysis"},
    ),
    ("repro.core.page_undo", "prepare_page_version", "core.page_undo"),
    ("repro.core.snapshot_pool", "SnapshotPool.acquire", "core.snapshot_pool.acquire"),
    ("repro.core.version_store", "PageVersionStore.lookup", "core.version_store"),
    ("repro.core.version_store", "PageVersionStore.publish", "core.version_store"),
    ("repro.core.recovery_tools", "diff_table", "core.recovery_tools"),
    ("repro.core.recovery_tools", "restore_rows", "core.recovery_tools"),
    ("repro.replication.shipper", "LogShipper.poll", "replication.ship"),
    ("repro.replication.replica", "Replica.receive", "replication.receive"),
    ("repro.replication.replica", "Replica.apply_ready", "replication.apply"),
    ("repro.engine.database", "Database.recover", "engine.recovery"),
    ("repro.engine.recovery", "redo_pass", "engine.recovery.redo"),
    ("repro.engine.recovery", "undo_pass", "engine.recovery.undo"),
    ("repro.engine.database", "Database.checkpoint", "engine.checkpoint"),
    ("repro.engine.engine", "Engine.pin_as_of", "engine.pin_as_of"),
    ("repro.sql.parser", "Parser.parse_statement", "sql.parse"),
    ("repro.sql.executor", "Session.execute", "sql.execute"),
)

#: Span names whose integer return value is summed (records redone).
COUNTED_RETURNS = frozenset({"wal.redo"})

#: Latches reported per layer, by the name their instances share.
LATCHES = (
    "db.write",
    "buffer_pool",
    "log_manager",
    "lock_manager",
    "snapshot_pool",
    "version_store",
)


def latch_group(name: str) -> str:
    """``db:<database>:write`` latches are one group; others keep their name."""
    if name.startswith("db:") and name.endswith(":write"):
        return "db.write"
    return name


class SpanLog:
    """Spans of one traced run, in call order."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, op id), by span index.
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        #: Generator items yielded and counted return values, by span name.
        self.counted: dict[str, int] = defaultdict(int)

    def _open(self, name: str) -> tuple[int, int]:
        stack = self.stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return index, parent

    def _close(self, index: int, name: str, start: float, parent: int) -> None:
        self.stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent, self.op)

    def wrap_call(self, name: str, fn):
        counted = name in COUNTED_RETURNS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            index, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start, parent)
            if counted:
                self.counted[name] += result
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not self.active:
                yield from inner
                return
            self.calls[name] += 1
            try:
                while True:
                    index, parent = self._open(name)
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index, name, start, parent)
                    self.counted[name] += 1
                    yield item
            finally:
                inner.close()

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds of self time by span name."""
        own: dict[str, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, _op in spans:
            duration = end - start
            own[name] += duration
            if parent >= 0:
                own[spans[parent][0]] -= duration
        return own

    def top_level_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent, _o in self.spans if parent < 0)

    def write(self, path) -> None:
        """Write the spans as gzip'd TSV: index, op, name, start and end
        in microseconds from the first span, parent index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\top\tname\tstart_us\tend_us\tparent\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(
                    f"{index}\t{op}\t{name}\t{(start - origin) * 1e6:.3f}\t"
                    f"{(end - origin) * 1e6:.3f}\t{parent}\n"
                )


class Instrumentation:
    """Patches :data:`TARGETS` with a :class:`SpanLog`'s wrappers;
    :meth:`remove` puts the originals back."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self.log.wrap_generator(name, fn)
        return self.log.wrap_call(name, fn)

    def install(self) -> None:
        for module_name, path, name, *overrides in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                member = owner.__dict__[attr]
                if isinstance(member, property):
                    wrapped = property(self._wrapper(name, member.fget))
                else:
                    wrapped = self._wrapper(name, member)
                self._set(owner, attr, wrapped)
                continue
            by_module = overrides[0] if overrides else {}
            fn = getattr(module, attr)
            for binder in list(sys.modules.values()):
                binder_name = getattr(binder, "__name__", "")
                if binder_name.split(".")[0] != "repro":
                    continue
                if binder.__dict__.get(attr) is fn:
                    span = by_module.get(binder_name, name)
                    self._set(binder, attr, self._wrapper(span, fn))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class LatchRegistry:
    """Collects every :class:`~repro.latch.Latch` built while installed."""

    def __init__(self) -> None:
        self.latches: list[Latch] = []
        self._original = None

    def install(self) -> None:
        original = Latch.__init__
        latches = self.latches

        def init(latch, *args, **kwargs):
            original(latch, *args, **kwargs)
            latches.append(latch)

        self._original = original
        Latch.__init__ = init

    def remove(self) -> None:
        if self._original is not None:
            Latch.__init__ = self._original
            self._original = None


class Meter:
    """Counter snapshots of one workload, minus what its checks moved."""

    def __init__(self, workload, latches: LatchRegistry, log: SpanLog | None = None) -> None:
        self.workload = workload
        self.latches = latches
        self.log = log
        self.excluded: dict[str, float] = defaultdict(float)
        self.paused_s = 0.0
        self._depth = 0

    def snapshot(self) -> dict[str, float]:
        wl = self.workload
        values: dict[str, float] = defaultdict(float)
        for key, value in wl.env.stats.as_dict().items():
            values[f"io.{key}"] = value
        values["sim.clock"] = wl.env.clock.now()
        for pool in wl.pools():
            values["pool.hits"] += pool.stats.hits
            values["pool.misses"] += pool.stats.misses
        values["repl.records"], values["repl.batches"] = wl.replica_totals()
        for latch in self.latches.latches:
            group = latch_group(latch.name)
            values[f"latch.{group}.acquisitions"] += latch.acquisitions
            values[f"latch.{group}.contentions"] += latch.contentions
        return values

    def pause(self):
        """Context manager: stop spans and set the counters it moves aside."""
        return _Pause(self)


class _Pause:
    def __init__(self, meter: Meter) -> None:
        self.meter = meter

    def __enter__(self) -> None:
        meter = self.meter
        meter._depth += 1
        if meter._depth > 1:
            return
        self.was_active = meter.log is not None and meter.log.active
        if self.was_active:
            meter.log.active = False
        self.before = meter.snapshot()
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        meter = self.meter
        meter._depth -= 1
        if meter._depth:
            return
        meter.paused_s += time.perf_counter() - self.start
        after = meter.snapshot()
        for key, value in after.items():
            meter.excluded[key] += value - self.before.get(key, 0.0)
        if self.was_active:
            meter.log.active = True


def moved(meter: Meter, before: dict, after: dict) -> dict[str, float]:
    """Counter movement between two snapshots, checks excluded."""
    keys = set(before) | set(after)
    return {k: after.get(k, 0.0) - before.get(k, 0.0) - meter.excluded.get(k, 0.0) for k in keys}


#: The deterministic sim-side counts, which must repeat exactly for a seed.
SIM_COUNTS = (
    ("sim.seconds", "s", lambda c: c["sim.clock"]),
    ("sim.log_bytes", "bytes", lambda c: c["io.log_write_bytes"]),
    ("sim.undo_ios", "count", lambda c: c["io.undo_log_reads"] + c["io.undo_header_reads"]),
    ("sim.pages_prepared", "count", lambda c: c["io.pages_prepared_asof"]),
    ("sim.records_redone", "count", lambda c: c["redo.records"]),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    log: SpanLog,
    counts: dict[str, float],
    ops: float,
    overhead: float,
    traced_s: float,
    paused_s: float,
) -> list[tuple[str, str, float]]:
    """The per-layer metrics as (name, unit, value); ``counts`` is the
    checks-excluded counter movement over the traced loop plus
    ``redo.records``; every ``_per_op`` divides by ``ops``."""
    own = log.self_times()
    calls = log.calls
    counted = log.counted

    def us(*names: str) -> float:
        return _ratio(sum(own.get(n, 0.0) for n in names) * 1e6, ops)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def calls_per_op(*names: str) -> float:
        return per_op(sum(calls.get(n, 0) for n in names))

    c = counts
    io = {k[3:]: v for k, v in c.items() if k.startswith("io.")}
    lookups = io["buffer_hits"] + io["buffer_misses"]
    log_reads = io["undo_log_cache_hits"] + io["undo_log_reads"]
    store_lookups = io["version_store_hits"] + io["version_store_misses"]
    undo_ios = io["undo_log_reads"] + io["undo_header_reads"]
    acquires = c["pool.hits"] + c["pool.misses"]
    redone = counted.get("wal.redo", 0)
    pages = calls.get("core.page_undo", 0)
    metrics = [
        ("storage.rowcodec.decode.us_per_op", "us/op", us("storage.rowcodec.decode")),
        (
            "storage.rowcodec.decode.calls_per_op",
            "calls/op",
            calls_per_op("storage.rowcodec.decode"),
        ),
        ("storage.rowcodec.decode_key.us_per_op", "us/op", us("storage.rowcodec.decode_key")),
        (
            "storage.rowcodec.decode_key.calls_per_op",
            "calls/op",
            calls_per_op("storage.rowcodec.decode_key"),
        ),
        ("storage.rowcodec.encode.us_per_op", "us/op", us("storage.rowcodec.encode")),
        ("storage.page.has_room_for.us_per_op", "us/op", us("storage.page.has_room_for")),
        ("storage.buffer.fetch.us_per_op", "us/op", us("storage.buffer.fetch")),
        ("storage.buffer.lookups_per_op", "count/op", per_op(lookups)),
        ("storage.buffer.hit_ratio", "ratio", _ratio(io["buffer_hits"], lookups)),
        ("storage.buffer.evictions_per_op", "count/op", per_op(io["buffer_evictions"])),
        ("access.btree.read.us_per_op", "us/op", us("access.btree.read")),
        ("access.btree.write.us_per_op", "us/op", us("access.btree.write")),
        (
            "access.btree.calls_per_op",
            "calls/op",
            calls_per_op("access.btree.read", "access.btree.write"),
        ),
        ("catalog.schema.us_per_op", "us/op", us("catalog.schema")),
        ("wal.append.us_per_op", "us/op", us("wal.append")),
        ("wal.flush.us_per_op", "us/op", us("wal.flush")),
        ("wal.flushes_per_op", "count/op", per_op(io["log_flushes"])),
        ("wal.scan.records_per_op", "records/op", per_op(counted.get("wal.scan", 0))),
        ("wal.scan.us_per_op", "us/op", us("wal.scan")),
        ("wal.decode.calls_per_op", "calls/op", calls_per_op("wal.decode")),
        ("wal.decode.us_per_op", "us/op", us("wal.decode")),
        ("wal.read_many.us_per_op", "us/op", us("wal.read_many")),
        ("wal.read_header.us_per_op", "us/op", us("wal.read_header")),
        ("wal.log_cache.lookups_per_op", "count/op", per_op(log_reads)),
        ("wal.log_cache.hit_ratio", "ratio", _ratio(io["undo_log_cache_hits"], log_reads)),
        ("wal.redo.records_per_op", "records/op", per_op(redone)),
        ("wal.redo.us_per_record", "us/record", _ratio(own.get("wal.redo", 0.0) * 1e6, redone)),
        ("wal.log_bytes_per_op", "bytes/op", per_op(io["log_write_bytes"])),
        ("txn.commit.us_per_op", "us/op", us("txn.commit")),
        ("txn.locks.acquire.us_per_op", "us/op", us("txn.locks.acquire")),
        ("txn.lock_waits_per_op", "count/op", per_op(io["lock_waits"])),
        ("core.split_lsn.us_per_op", "us/op", us("core.split_lsn")),
        ("core.analysis.us_per_op", "us/op", us("core.analysis")),
        ("core.page_undo.us_per_op", "us/op", us("core.page_undo")),
        ("core.page_undo.pages_per_op", "pages/op", per_op(pages)),
        (
            "core.page_undo.records_per_page",
            "records/page",
            _ratio(io["undo_records_applied"], pages),
        ),
        ("core.undo_ios_per_op", "count/op", per_op(undo_ios)),
        ("core.snapshot_pool.acquire.us_per_op", "us/op", us("core.snapshot_pool.acquire")),
        ("core.snapshot_pool.acquires_per_op", "count/op", per_op(acquires)),
        ("core.snapshot_pool.hit_ratio", "ratio", _ratio(c["pool.hits"], acquires)),
        ("core.version_store.us_per_op", "us/op", us("core.version_store")),
        ("core.version_store.lookups_per_op", "count/op", per_op(store_lookups)),
        ("core.version_store.hit_ratio", "ratio", _ratio(io["version_store_hits"], store_lookups)),
        (
            "core.version_store.invalidations_per_op",
            "count/op",
            per_op(io["version_store_invalidations"]),
        ),
        ("core.recovery_tools.us_per_op", "us/op", us("core.recovery_tools")),
        ("replication.ship.us_per_op", "us/op", us("replication.ship")),
        ("replication.receive.us_per_op", "us/op", us("replication.receive")),
        ("replication.apply.us_per_op", "us/op", us("replication.apply")),
        ("replication.batches_per_op", "count/op", per_op(c["repl.batches"])),
        (
            "replication.records_per_batch",
            "records/batch",
            _ratio(c["repl.records"], c["repl.batches"]),
        ),
        ("engine.recovery.us_per_op", "us/op", us("engine.recovery")),
        ("engine.recovery.analysis.us_per_op", "us/op", us("engine.recovery.analysis")),
        ("engine.recovery.redo.us_per_op", "us/op", us("engine.recovery.redo")),
        ("engine.recovery.undo.us_per_op", "us/op", us("engine.recovery.undo")),
        ("engine.checkpoint.us_per_op", "us/op", us("engine.checkpoint")),
        ("engine.pin_as_of.us_per_op", "us/op", us("engine.pin_as_of")),
        ("sql.parse.us_per_op", "us/op", us("sql.parse")),
        ("sql.execute.us_per_op", "us/op", us("sql.execute")),
    ]
    for group in LATCHES:
        acquisitions = per_op(c.get(f"latch.{group}.acquisitions", 0.0))
        contentions = c.get(f"latch.{group}.contentions", 0.0)
        metrics.append((f"latch.{group}.acquisitions_per_op", "count/op", acquisitions))
        metrics.append((f"latch.{group}.contentions", "count", contentions))
    unattributed = traced_s - paused_s - log.top_level_seconds()
    metrics += [
        ("trace.ops", "count", ops),
        ("trace.spans", "count", len(log.spans)),
        ("trace.unattributed.us_per_op", "us/op", _ratio(unattributed * 1e6, ops)),
        ("trace.overhead_ratio", "ratio", overhead),
    ]
    metrics += [(name, unit, fn(c)) for name, unit, fn in SIM_COUNTS]
    return metrics
