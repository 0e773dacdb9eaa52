"""repro — Transaction Log Based Application Error Recovery and
Point-In-Time Query.

A from-scratch Python reproduction of Talius, Dhamankar, Dumitrache &
Kodavalla (VLDB 2012): a miniature ARIES storage engine extended with
page-oriented physical undo over the transaction log, as-of database
snapshots backed by sparse side files, retention-bounded time travel, and
the backup/restore baseline the paper compares against (``repro.archive``:
one backup type, one restore recipe over the retained or archived log).

Quickstart::

    from repro import Engine, TableSchema, Column, ColumnType

    engine = Engine()
    db = engine.create_database("shop")
    schema = TableSchema(
        "items",
        (Column("id", ColumnType.INT), Column("name", ColumnType.STR)),
        key=("id",),
    )
    db.create_table(schema)
    with db.transaction() as txn:
        db.insert(txn, "items", (1, "anvil"))
    before_oops = engine.env.clock.now()
    engine.env.clock.advance(60)
    db.drop_table("items")                       # the application error
    snap = engine.create_asof_snapshot("shop", "shop_past", before_oops)
    rows = list(snap.scan("items"))              # the table is back
"""

from repro.archive import ArchiveStore, Backup, LogArchiver
from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.chaos import (
    FailoverCoordinator,
    FailureDetector,
    FaultInjector,
    FaultRule,
    RetryPolicy,
)
from repro.config import CostModel, DatabaseConfig, LoggingExtensions, SimEnv
from repro.core.asof import AsOfSnapshot
from repro.core.page_undo import prepare_page_as_of, prepare_page_version
from repro.core.split_lsn import find_split_lsn
from repro.core.version_store import PageVersionStore
from repro.engine.database import Database, Table
from repro.engine.engine import Engine
from repro.errors import (
    ArchiveError,
    DatabaseUnavailableError,
    DeadlockError,
    DuplicateKeyError,
    FaultInjectedError,
    KeyNotFoundError,
    LogTruncatedError,
    MissingUndoInfoError,
    ReplicationError,
    ReplicationFaultError,
    ReproError,
    RetentionExceededError,
    SnapshotError,
    TransactionError,
)
from repro.replication import LogShipper, Replica
from repro.sim.clock import SimClock
from repro.sim.device import SAS_10K, SLC_SSD, DeviceProfile
from repro.snapshot.base import RegularSnapshot

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "Database",
    "Table",
    "AsOfSnapshot",
    "RegularSnapshot",
    "TableSchema",
    "Column",
    "ColumnType",
    "DatabaseConfig",
    "LoggingExtensions",
    "CostModel",
    "SimEnv",
    "SimClock",
    "DeviceProfile",
    "SAS_10K",
    "SLC_SSD",
    "prepare_page_as_of",
    "prepare_page_version",
    "PageVersionStore",
    "find_split_lsn",
    "Replica",
    "LogShipper",
    "ArchiveStore",
    "LogArchiver",
    "Backup",
    "FaultInjector",
    "FaultRule",
    "RetryPolicy",
    "FailureDetector",
    "FailoverCoordinator",
    "ReproError",
    "ReplicationError",
    "ReplicationFaultError",
    "FaultInjectedError",
    "DatabaseUnavailableError",
    "ArchiveError",
    "RetentionExceededError",
    "MissingUndoInfoError",
    "LogTruncatedError",
    "SnapshotError",
    "TransactionError",
    "DuplicateKeyError",
    "KeyNotFoundError",
    "DeadlockError",
    "__version__",
]
