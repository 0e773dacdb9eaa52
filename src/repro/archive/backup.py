"""Page backups: full, or incremental since the chain's previous member.

A :class:`Backup` is a checkpoint-consistent copy of a database's pages,
stamped with the checkpoint LSN a restore's roll-forward starts from. A
*full* backup copies every allocated page (boot and allocation maps
included). An *incremental* copies every allocated page whose
``page_lsn`` is above the previous backup's LSN — LSNs order all
modifications totally, so "changed since the chain's last member" is a
single header comparison per page. The chain full → inc → inc is what the
restore planner lays down before rolling the archived log forward.

Reading the pages is priced as sequential I/O on the data device and
writing the backup as sequential I/O too — the paper's point that "the
process of generating backups of large databases can impact the user
workload" falls straight out of the device-time accounting. Finding an
incremental's changed pages still scans the whole allocated set (this
engine keeps no differential map), so its *read* cost tracks database
size while its *write* cost tracks churn — the asymmetry
``benchmarks/bench_archive.py`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import DatabaseConfig
from repro.storage.page import Page


@dataclass
class Backup:
    """A checkpoint-consistent page-level copy of one database."""

    source_name: str
    #: Checkpoint LSN the backup is consistent with; roll-forward replays
    #: the log from here.
    backup_lsn: int
    taken_wall: float
    #: Source database configuration, so an archive restore can rebuild
    #: the database even when the source no longer exists.
    config: DatabaseConfig
    pages: dict[int, bytes] = field(default_factory=dict)
    #: ``backup_lsn`` of the chain member an incremental diffs against;
    #: ``None`` for a full backup.
    base_lsn: int | None = None

    @property
    def size_bytes(self) -> int:
        return len(self.pages) * self.config.page_size

    def __repr__(self) -> str:
        kind = "full" if self.base_lsn is None else f"base={self.base_lsn:#x}"
        return (
            f"Backup({kind}, of={self.source_name!r}, "
            f"pages={len(self.pages)}, lsn={self.backup_lsn:#x})"
        )


def take_backup(db, base: Backup | None = None, *, charge_media: bool = True) -> Backup:
    """Back up ``db``: every allocated page, or with ``base`` only the
    pages modified since ``base`` was taken.

    Checkpoints first (making the on-disk state consistent with the new
    ``backup_lsn``), then streams every allocated page out and the kept
    ones into the backup. ``charge_media=False`` skips the backup-media
    write charge — used when the caller lands the backup on its own
    priced medium (the archive store), which would otherwise be billed
    twice.
    """
    backup_lsn = db.checkpoint()
    page_ids = db.alloc.allocated_page_ids()
    backup = Backup(
        source_name=db.name,
        backup_lsn=backup_lsn,
        taken_wall=db.env.clock.now(),
        config=db.config,
        base_lsn=None if base is None else base.backup_lsn,
    )
    pages = db.file_manager.read_sequential(page_ids)
    for page_id, data in zip(page_ids, pages, strict=True):
        if base is not None:
            page = Page(data)
            if page.is_formatted() and page.page_lsn <= base.backup_lsn:
                continue
        backup.pages[page_id] = bytes(data)
    # Writing the backup media is a sequential stream of the same volume.
    if charge_media:
        db.env.data_device.write_seq(backup.size_bytes)
        db.env.stats.backup_write_bytes += backup.size_bytes
    return backup
