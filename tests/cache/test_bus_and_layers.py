"""Unit tests for the invalidation bus's stamp."""

from repro.cache import bump_policy_epoch
from repro.db import Database, MemoryBackend
from repro.db.schema import ColumnType


def test_bus_stamp_grows_with_writes_schema_changes_and_epoch_bumps():
    db = Database(MemoryBackend())
    bus = db.invalidation
    stamps = [bus.stamp()]
    for change in (
        lambda: db.define_table("T", n=ColumnType.INTEGER),  # schema change
        lambda: db.insert("T", n=1),  # write
        lambda: db.drop_table("T"),  # schema change
        bump_policy_epoch,
    ):
        change()
        stamps.append(bus.stamp())
    assert stamps == sorted(stamps) and len(set(stamps)) == 5
