"""Backup, restore and the archive tier: unbounded point-in-time recovery.

The paper's time travel ends at the retention horizon — past it, the
introduction's "restore a full backup, roll the log forward" workflow is
all that's left, and its cost scales with the whole database. This
package makes that workflow cheap, continuous and engine-owned:

* :class:`~repro.archive.store.ArchiveStore` — cold-tier store for
  archived log segments and backup chains, priced through its own sim
  device.
* :class:`~repro.archive.archiver.LogArchiver` — tails the primary via
  the log shipper's framed stream and archives record-aligned segments
  *before* retention truncates them (the subscription cursor doubles as a
  retention pin until each segment is durable).
* :class:`~repro.archive.backup.Backup` /
  :func:`~repro.archive.backup.take_backup` — page backups: full, or
  incremental (only pages modified since the chain's previous member).
* :mod:`~repro.archive.restore` — the one restore recipe (lay pages
  down, roll the log forward, undo in-flight transactions) behind both
  routes: :func:`~repro.archive.restore.restore_point_in_time` over the
  primary's retained log — the traditional baseline Figures 7/8 of the
  paper measure as-of queries against — and
  :func:`~repro.archive.restore.restore_from_archive` over the archived
  log, with a planner that picks the cheapest chain (full + incrementals
  + archived log replay) to materialize any archived time.

Reaching any archived time also lifts two other limits: ``query_as_of``
falls back to an archive-backed copy when the pool's split crosses the
horizon, and ``add_replica(seed_from_backup=True)`` seeds a standby from
the newest chain instead of requiring an untruncated primary log.
"""

from repro.archive.archiver import ArchiverStats, LogArchiver
from repro.archive.backup import Backup, take_backup
from repro.archive.restore import (
    RestorePlan,
    plan_restore,
    restore_from_archive,
    restore_point_in_time,
)
from repro.archive.store import ArchivedSegment, ArchiveStore

__all__ = [
    "ArchiveStore",
    "ArchivedSegment",
    "LogArchiver",
    "ArchiverStats",
    "Backup",
    "take_backup",
    "RestorePlan",
    "plan_restore",
    "restore_from_archive",
    "restore_point_in_time",
]
