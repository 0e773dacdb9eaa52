"""Restore: lay backup pages down, roll the log forward, undo in-flight work.

This is the workflow the paper's introduction describes as the only
traditional way to recover from a user error: restore the baseline
backup, replay the transaction log up to a point just before the
mistake, undo transactions in flight at that point, then extract the
data. Every step's cost is charged (sequential page copy, sequential log
scan, random page fetches during redo), so the restore curve in Figures
7/8 — flat with respect to the target time, huge with respect to the
data needed — emerges from the same accounting as the as-of numbers.

Two routes run that one recipe and differ only in their inputs:

* :func:`restore_point_in_time` — one full backup rolled forward over
  the primary's *retained* log;
* :func:`restore_from_archive` — the cheapest chain (full +
  incrementals) rolled forward over the *archived* log, which reaches
  past the retention horizon. In the FineLine / instant-restore spirit,
  redo from an archived log replaces ever touching the (possibly long
  gone) primary media. The planner estimates cost through the device
  profiles before anything is copied: laying down more chain members
  costs backup bytes but shortens log replay, so it evaluates every
  chain prefix and picks the cheapest (ties prefer the longer chain —
  less replay for the same estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive.backup import Backup
from repro.core.split_lsn import checkpoint_chain, find_split_lsn
from repro.engine.database import Database
from repro.engine.recovery import analyze_log
from repro.errors import ArchiveError, BackupError
from repro.txn.transaction import RecoveredTransaction
from repro.txn.undo import LogicalUndo
from repro.wal.lsn import NULL_LSN, format_lsn
from repro.wal.records import FormatPageRecord, PageImageRecord


class _RestoreUndoContext:
    """Undo context stitching the restored database to the *source* log.

    Loser chains live in the source database's log; compensations apply to
    the restored database's pages (and are logged into its fresh log,
    which is harmless — the restored copy is handed out read-only).
    """

    def __init__(self, restored: Database, source_log) -> None:
        self.env = restored.env
        self.log = source_log
        self.modifier = restored.modifier
        self.fetch_page = restored.fetch_page
        self.tree_for_object = restored.tree_for_object


def roll_forward(restored: Database, log, from_lsn: int, split: int) -> int:
    """Replay ``log``'s page modifications in ``[from_lsn, split]`` onto
    ``restored``, gated by each page's pageLSN; returns records replayed.

    A format record is the first record of a page's (new) incarnation and
    erases whatever was there, so its redo never needs to read the
    restored file — pages born after the backup cost no I/O to
    materialize.
    """
    replayed = 0
    for rec in log.scan(from_lsn, split + 1):
        if not rec.IS_PAGE_MOD:
            continue
        create = isinstance(rec, FormatPageRecord)
        with restored.fetch_page(rec.page_id, create=create) as guard:
            page = guard.page
            if page.is_formatted() and page.page_lsn >= rec.lsn:
                continue
            rec.redo(page, fetch=log.undo_fetch)
            page.page_lsn = rec.lsn
            if isinstance(rec, PageImageRecord):
                page.last_image_lsn = rec.lsn
            guard.mark_dirty()
        restored.env.charge_cpu(restored.env.cost.redo_record_cpu_s)
        replayed += 1
    return replayed


def undo_in_flight(restored: Database, log, base: int, split: int) -> int:
    """Undo transactions in flight at ``split`` (standard restore undo).

    ``base`` is a checkpoint LSN at or before ``split`` (or the oldest
    covered LSN when no checkpoint qualifies) — the analysis scan starts
    there. Returns the number of transactions rolled back.
    """
    analysis = analyze_log(log, base, split + 1)
    ctx = _RestoreUndoContext(restored, log)
    undo = LogicalUndo(ctx)
    for txn_id, last_lsn in sorted(
        analysis.losers.items(), key=lambda item: item[1], reverse=True
    ):
        loser = RecoveredTransaction(txn_id)
        loser.last_lsn = last_lsn
        undo.rollback_chain(loser, last_lsn)
    return len(analysis.losers)


def _recover(
    engine, name: str, config, pages: dict, log, checkpoints, roll_from: int, split: int
) -> Database:
    """The shared recipe up to a consistent copy: lay ``pages`` down as
    ``name``, roll ``log`` forward from ``roll_from`` to ``split``, undo
    the transactions in flight there.

    ``checkpoints`` is the ``db``-shaped source whose checkpoint chain
    gives the analysis scan its start (the newest checkpoint at or
    before ``split``).
    """
    restored = Database(name, config, engine.env, bootstrap=False)
    restored.file_manager.write_sequential(pages)
    restored.reload_boot()
    roll_forward(restored, log, roll_from, split)
    base = next(
        (lsn for lsn, _wall, _prev in checkpoint_chain(checkpoints) if lsn <= split),
        NULL_LSN,
    )
    if base == NULL_LSN:
        base = max(roll_from, log.start_lsn)
    undo_in_flight(restored, log, base, split)
    return restored


def _seal(engine, restored: Database, register: bool) -> Database:
    """Finish the recipe: flush, hand out read-only, register the name."""
    restored.buffer.flush_all()
    restored.read_only = True
    if register:
        with engine.latch:
            engine._check_name_free(restored.name)
            engine.databases[restored.name] = restored
    return restored


def restore_point_in_time(
    engine,
    backup: Backup,
    source_db: Database,
    target_wall: float,
    new_name: str,
) -> Database:
    """Restore ``backup`` as ``new_name`` rolled forward to ``target_wall``.

    Requires the source database's log to still cover the range from
    ``backup.backup_lsn`` to the target (otherwise the "log backup chain"
    is broken and :class:`BackupError` is raised). Returns a read-only
    database registered with the engine; :class:`CatalogError` when
    ``new_name`` is taken.
    """
    log = source_db.log
    if backup.backup_lsn < log.start_lsn:
        raise BackupError(
            f"log no longer covers backup LSN {backup.backup_lsn:#x} "
            f"(retained from {log.start_lsn:#x}); log backup chain broken"
        )
    split = find_split_lsn(source_db, target_wall)
    if split < backup.backup_lsn:
        raise BackupError(
            f"target time precedes the backup "
            f"(split {split:#x} < backup {backup.backup_lsn:#x})"
        )
    restored = _recover(
        engine, new_name, source_db.config, backup.pages, log, source_db,
        backup.backup_lsn, split,
    )
    # Initialization of the unused log portion: the restored database's
    # log file spans the full retained range, and the part past the
    # restore point must still be formatted. The paper names this cost as
    # one reason restore time is flat regardless of the restore point
    # (section 6.2).
    unused = max(0, log.end_lsn - split)
    if unused:
        restored.env.log_device.write_seq(unused)
    return _seal(engine, restored, register=True)


@dataclass
class RestorePlan:
    """One candidate way to materialize ``db_name`` as of ``target_wall``."""

    db_name: str
    target_wall: float
    #: SplitLSN the restore rolls forward to.
    split_lsn: int
    #: Backups to lay down, oldest first (full, then incrementals).
    chain: list = field(default_factory=list)
    #: Roll-forward span over the archived log.
    roll_from_lsn: int = NULL_LSN
    #: Device-model estimate of the restore's media time (seconds).
    estimated_s: float = 0.0

    @property
    def backup_bytes(self) -> int:
        return sum(b.size_bytes for b in self.chain)

    @property
    def replay_bytes(self) -> int:
        return max(0, self.split_lsn - self.roll_from_lsn)

    def __repr__(self) -> str:
        return (
            f"RestorePlan({self.db_name!r} @ {format_lsn(self.split_lsn)}, "
            f"chain={len(self.chain)}, replay={self.replay_bytes}B, "
            f"est={self.estimated_s:.3f}s)"
        )


def plan_restore(store, db_name: str, target_wall: float) -> RestorePlan:
    """Pick the cheapest backup chain + log replay reaching ``target_wall``.

    Raises :class:`ArchiveError` when no archived chain and log range can
    cover the target (no backups, target before the first full backup, or
    the archived log does not reach the chain's start).
    """
    view = store.log_view(db_name)
    split = find_split_lsn(view, target_wall)
    coverage = store.coverage(db_name)
    candidates: list[RestorePlan] = []
    for chain in store.chains(db_name, up_to_lsn=split):
        # Every prefix of the chain is a valid plan; laying fewer
        # incrementals trades backup bytes for log replay.
        for cut in range(1, len(chain) + 1):
            prefix = chain[:cut]
            roll_from = prefix[-1].backup_lsn
            if roll_from < coverage[0]:
                continue  # archived log cannot roll this prefix forward
            plan = RestorePlan(
                db_name=db_name,
                target_wall=target_wall,
                split_lsn=split,
                chain=prefix,
                roll_from_lsn=roll_from,
            )
            plan.estimated_s = _estimate_seconds(store, plan)
            candidates.append(plan)
    if not candidates:
        raise ArchiveError(
            f"no archived backup chain of {db_name!r} can reach "
            f"{format_lsn(split)} (target {target_wall:.3f}s); take a "
            f"BACKUP DATABASE before the times you need to restore to"
        )
    return min(
        candidates,
        key=lambda p: (p.estimated_s, -len(p.chain), -p.roll_from_lsn),
    )


def _estimate_seconds(store, plan: RestorePlan) -> float:
    """Media-time estimate: read the chain from archive media, write the
    pages to data media, stream-read the replay span from the archive."""
    archive = store.device.profile
    data = store.env.data_device.profile
    seconds = 0.0
    for backup in plan.chain:
        seconds += archive.seq_read_time(backup.size_bytes)
        seconds += data.seq_write_time(backup.size_bytes)
    if plan.replay_bytes:
        seconds += archive.seq_read_time(plan.replay_bytes)
    return seconds


def restore_from_archive(
    engine,
    store,
    db_name: str,
    target_wall: float,
    new_name: str,
    *,
    register: bool = True,
    plan: RestorePlan | None = None,
) -> Database:
    """Materialize ``db_name`` as of ``target_wall`` from the archive.

    Runs the cheapest :func:`plan_restore` plan: lay the chain's pages
    down oldest-first, roll the archived log forward to the SplitLSN,
    undo transactions in flight there. The result is a read-only database
    (registered with the engine under ``new_name`` unless ``register`` is
    false — the engine's archive-backed ``query_as_of`` fallback keeps
    its copies private). A caller that already planned (for the split, or
    to inspect the chain) passes ``plan`` to skip re-planning.
    """
    if plan is None:
        plan = plan_restore(store, db_name, target_wall)
    view = store.log_view(db_name)
    restored = _recover(
        engine, new_name, plan.chain[0].config, store.read_backup_pages(plan.chain),
        view.log, view, plan.roll_from_lsn, plan.split_lsn,
    )
    return _seal(engine, restored, register)
