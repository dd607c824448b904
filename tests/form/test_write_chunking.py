"""Chunked batched-rewrite writes past SQLite's bound-variable limit.

SQLite rejects statements carrying more than SQLITE_MAX_VARIABLE_NUMBER
(32766 by default) parameters, so a batched facet rewrite matching more
records than that used to die with "too many SQL variables" on its
``jid IN (?, ...)`` fetch and replace.  The write paths now chunk at
``writes.MAX_BOUND_VARIABLES``; these tests pin both the raw SQLite
regression (>32766 jids) and the end-to-end semantics of every chunked
path (via a lowered chunk size, so the suite stays fast).
"""

import pytest

from repro.db import Database, SqliteBackend, StatementLog
from repro.form import (
    FORM,
    CharField,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
)
from repro.form import writes


class Note(JModel):
    body = CharField(max_length=64)
    rank = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_body(note):
        return "[redacted]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(note, ctxt):
        return ctxt is not None


def _sqlite_form():
    backend = SqliteBackend()
    form = FORM(Database(backend))
    form.register_all([Note])
    return form, backend


def test_chunked_splits_only_past_the_bound():
    assert writes.chunked([1, 2, 3]) == [[1, 2, 3]]
    assert writes.chunked(list(range(7)), size=3) == [[0, 1, 2], [3, 4, 5], [6]]


def test_rewrite_survives_more_jids_than_sqlite_allows_variables():
    # The raw regression: 33,000 records is past SQLITE_MAX_VARIABLE_NUMBER
    # (32766), so an unchunked IN (?, ...) fetch or replace raises
    # sqlite3.OperationalError("too many SQL variables").
    count = 33_000
    form, _backend = _sqlite_form()
    rows = [
        {"jid": jid, "jvars": "", "body": f"n{jid}", "rank": 0}
        for jid in range(1, count + 1)
    ]
    form.database.insert_many("Note", rows)
    jids = list(range(1, count + 1))

    fetched = writes.stored_rows(form, "Note", jids)
    assert len(fetched) == count

    for row in fetched:
        row["rank"] = 7
    with form._save_lock:
        writes.replace_records(form, "Note", jids, fetched)
    assert form.database.count("Note") == count
    assert all(row["rank"] == 7 for row in form.database.rows("Note"))


def test_update_fallback_chunks_and_stays_correct(monkeypatch):
    monkeypatch.setattr(writes, "MAX_BOUND_VARIABLES", 5)
    form, backend = _sqlite_form()
    with use_form(form):
        notes = Note.objects.bulk_create([Note(body=f"n{i}") for i in range(12)])
        with StatementLog(backend) as log:
            # "body" is policied: the batched facet rewrite runs, now split
            # into ceil(12 / 5) = 3 chunked fetches and 3 chunked replaces.
            changed = Note.objects.all().update(body="same")
            assert changed == 24  # 12 records x 2 facet rows
            selects = [s for s in log.statements if "jid IN (" in s]
            replaces = [e for e in log.events if e.kind == "REPLACE"]
            assert len(selects) == 3
            assert len(replaces) == 3
        rows = form.database.rows("Note")
        assert len(rows) == 24
        assert sorted(set(row["body"] for row in rows)) == ["[redacted]", "same"]
        assert {note.jid for note in notes} == {row["jid"] for row in rows}


def test_bulk_update_chunks_the_replace(monkeypatch):
    monkeypatch.setattr(writes, "MAX_BOUND_VARIABLES", 4)
    form, backend = _sqlite_form()
    with use_form(form):
        notes = Note.objects.bulk_create([Note(body=f"n{i}") for i in range(10)])
        for note in notes:
            note.rank = 3
        with StatementLog(backend) as log:
            Note.objects.bulk_update(notes)
            replaces = [e for e in log.events if e.kind == "REPLACE"]
            assert len(replaces) == 3  # ceil(10 / 4)
        assert all(row["rank"] == 3 for row in form.database.rows("Note"))
        assert form.database.count("Note") == 20


def test_chunked_update_matches_unchunked_result(monkeypatch):
    results = {}
    for label, bound in (("unchunked", 30_000), ("chunked", 3)):
        monkeypatch.setattr(writes, "MAX_BOUND_VARIABLES", bound)
        form, _backend = _sqlite_form()
        with use_form(form):
            Note.objects.bulk_create(
                [Note(body=f"n{i}", rank=i) for i in range(9)]
            )
            Note.objects.filter().update(body="x")
            results[label] = sorted(
                (row["jid"], row["jvars"], row["body"], row["rank"])
                for row in form.database.rows("Note")
            )
    assert results["chunked"] == results["unchunked"]
