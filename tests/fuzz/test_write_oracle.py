"""A per-world oracle for FORM writes.

Every other write test reads back rows that the FORM's own encoding wrote.
This one keeps a plain Python model of the same writes instead: for each
record, its field values in each *world*.  A world fixes the path-condition
label ``wpc`` and the value-facet label ``wval``; a write under the path
condition applies in the worlds where ``wpc`` is True and leaves the
others as they were (the guarded update of the paper's Section 2.2).

After every write the stored rows are decoded world by world, without the
FORM's decoder: for each record, world and polarity of the record's own
policy label (``WriteDoc.<jid>.title``), exactly one row must match, and
its values must be the model's, with the public title on the False side.
Where the model has no record, no row may match.

Each seeded program -- creates, edits and ``score``-filtered deletes,
about half of them under the path condition, some records carrying a
value-faceted ``tag`` -- runs twice on each backend:

* ``"record"`` -- one record at a time: ``save()`` and ``delete()``;
* ``"batched"`` -- ``bulk_create``, ``bulk_update`` and
  ``QuerySet.filter(score=...).delete()``.

On failure the program is greedily shrunk and emitted as a paste-able test
case calling :func:`_assert_writes`.

``FUZZ_ITERATIONS`` (default 20 per backend; CI runs 200) and
``FUZZ_SEED`` tune the sweep from the environment.
"""

import contextlib
import os
import random

import pytest

from repro.core.facets import Facet
from repro.core.labels import Label
from repro.db import Database, SqliteBackend
from repro.form import (
    FORM,
    CharField,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
)

#: The path-condition label and the value-facet label, named so that the
#: stored ``jvars`` read the same in every run.
PC = Label(hint="wpc", name="wpc")
VALUE = Label(hint="wval", name="wval")

#: Every world: (``wpc``, ``wval``).
WORLDS = [(pc, value) for pc in (True, False) for value in (True, False)]


class WriteDoc(JModel):
    """One policy group (``title``) whose public facet reads ``score``."""

    title = CharField(max_length=64)
    score = IntegerField(default=0)
    tag = CharField(max_length=32, default="")

    @staticmethod
    def jacqueline_get_public_title(doc):
        return f"anon-{doc.score}"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(doc, ctxt):
        return ctxt is not None


# -- programs -------------------------------------------------------------------------


def _gen_values(rng):
    """(title, score, tag) with the tag either plain or value-faceted."""
    tag = ("facet", rng.randrange(10)) if rng.random() < 0.3 else ("plain", rng.randrange(10))
    return (f"t{rng.randrange(100)}", rng.randrange(4), tag)


def _gen_program(rng):
    """A list of ``(op, guarded, args)`` writes."""
    program = []
    for _ in range(rng.randrange(8, 16)):
        guarded = rng.random() < 0.5
        roll = rng.random()
        if roll < 0.3 or not program:
            args = [_gen_values(rng) for _ in range(rng.randrange(1, 4))]
            program.append(("create", guarded, args))
        elif roll < 0.7:
            args = [
                (rng.randrange(50),) + _gen_values(rng) for _ in range(rng.randrange(1, 4))
            ]
            program.append(("edit", guarded, args))
        else:
            program.append(("delete", guarded, rng.randrange(4)))
    return program


def _tag_value(tag):
    kind, number = tag
    if kind == "facet":
        return Facet(VALUE, f"hi{number}", f"lo{number}")
    return f"plain{number}"


def _tag_in(tag, world):
    kind, number = tag
    if kind == "facet":
        return f"hi{number}" if world[1] else f"lo{number}"
    return f"plain{number}"


# -- the model --------------------------------------------------------------------------


def _model_write(model, jid, values, guarded):
    """Record ``values`` for ``jid`` in every world the write applies to."""
    title, score, tag = values
    worlds = model.setdefault(jid, {})
    for world in WORLDS:
        if world[0] or not guarded:
            worlds[world] = {"title": title, "score": score, "tag": _tag_in(tag, world)}


def _model_matches(model, score):
    """The records a ``score`` filter matches: any world holding it."""
    return [
        jid for jid, worlds in model.items()
        if any(values["score"] == score for values in worlds.values())
    ]


def _model_delete(model, jid, guarded):
    worlds = model[jid]
    for world in WORLDS:
        if world[0] or not guarded:
            worlds.pop(world, None)
    if not worlds:
        del model[jid]


# -- the check --------------------------------------------------------------------------


def _branches(jvars):
    """The ``(label, polarity)`` pairs of a stored ``jvars`` string."""
    if not jvars:
        return []
    pairs = []
    for part in jvars.split(","):
        name, _, polarity = part.rpartition("=")
        if polarity not in ("True", "False"):
            raise ValueError(f"unreadable jvars {jvars!r}")
        pairs.append((name, polarity == "True"))
    return pairs


def _check(rows, model):
    """The first disagreement between the stored rows and the model, or None."""
    by_jid = {}
    for row in rows:
        by_jid.setdefault(row["jid"], []).append(row)
    for jid in sorted(set(by_jid) | set(model)):
        own = f"WriteDoc.{jid}.title"
        decoded = []
        for row in by_jid.get(jid, []):
            branches = _branches(row["jvars"])
            unknown = {name for name, _ in branches} - {PC.name, VALUE.name, own}
            if unknown:
                return f"record {jid}: row {row} carries unknown labels {sorted(unknown)}"
            decoded.append((branches, row))
        for world in WORLDS:
            expected = model.get(jid, {}).get(world)
            for polarity in (True, False):
                assignment = {PC.name: world[0], VALUE.name: world[1], own: polarity}
                matches = [
                    row for branches, row in decoded
                    if all(assignment[name] == value for name, value in branches)
                ]
                where = f"record {jid}, world {world}, {own}={polarity}"
                if expected is None:
                    if matches:
                        return f"{where}: expected no row, found {matches}"
                    continue
                if len(matches) != 1:
                    return f"{where}: expected one row, found {matches}"
                want = dict(expected)
                if not polarity:
                    want["title"] = f"anon-{expected['score']}"
                got = {name: matches[0][name] for name in want}
                if got != want:
                    return f"{where}: stored {got}, expected {want}"
    return None


# -- running a program ------------------------------------------------------------------


def _new_doc(values):
    title, score, tag = values
    return WriteDoc(title=title, score=score, tag=_tag_value(tag))


def _edit(doc, values):
    title, score, tag = values
    doc.title = title
    doc.score = score
    doc.tag = _tag_value(tag)


def _apply(op, guarded, args, spelling, docs, model):
    """Run one write in ``spelling`` and apply it to the model; returns a
    failure of the write's own contract, or None."""
    if op == "create":
        created = [_new_doc(values) for values in args]
        if spelling == "record":
            for doc in created:
                doc.save()
        else:
            WriteDoc.objects.bulk_create(created)
        for doc, values in zip(created, args):
            _model_write(model, doc.jid, values, guarded)
        docs.extend(created)
    elif op == "edit":
        live = [doc for doc in docs if doc.jid in model]
        if not live:
            return None
        chosen = {}
        for pick, *values in args:
            chosen.setdefault(pick % len(live), tuple(values))
        edited = []
        for index, values in chosen.items():
            _edit(live[index], values)
            edited.append(live[index])
        if spelling == "record":
            for doc in edited:
                doc.save()
        else:
            WriteDoc.objects.bulk_update(edited)
        for index, values in chosen.items():
            _model_write(model, live[index].jid, values, guarded)
    else:
        matched = _model_matches(model, args)
        if spelling == "record":
            by_jid = {doc.jid: doc for doc in docs if doc.jid is not None}
            for jid in matched:
                by_jid[jid].delete()
        else:
            WriteDoc.objects.filter(score=args).delete()
        for jid in matched:
            _model_delete(model, jid, guarded)
        if spelling == "record":
            for jid in matched:
                cleared = by_jid[jid].jid is None
                if cleared != (jid not in model):
                    return (
                        f"delete of record {jid}: jid cleared={cleared}, but the "
                        f"record {'is gone' if jid not in model else 'survives'}"
                    )
    return None


def _failure(kind, spelling, program):
    """The first failure of ``program`` in ``spelling``, or None."""
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = FORM(database)
    form.register_all([WriteDoc])
    docs, model = [], {}
    try:
        with use_form(form):
            for step, (op, guarded, args) in enumerate(program):
                branch = (
                    form.runtime.under_branch(PC, True) if guarded
                    else contextlib.nullcontext()
                )
                with branch:
                    failure = _apply(op, guarded, args, spelling, docs, model)
                failure = failure or _check(database.rows("WriteDoc"), model)
                if failure is not None:
                    return f"step {step} {(op, guarded, args)!r}: {failure}"
    finally:
        database.close()
    return None


def _shrink(kind, spelling, program):
    """Greedily drop ops while the failure persists (1-minimal repro)."""
    changed = True
    while changed:
        changed = False
        for index in range(len(program)):
            candidate = program[:index] + program[index + 1:]
            if candidate and _failure(kind, spelling, candidate) is not None:
                program = candidate
                changed = True
                break
    return program


def _assert_writes(kind, spelling, program):
    """Entry point for paste-able repros emitted on fuzz failures."""
    failure = _failure(kind, spelling, program)
    assert failure is None, failure


def test_the_oracle_rejects_a_missing_pc_branch():
    """A guarded create stored without the pc branch shows in the worlds
    outside the branch, where the model has no record."""
    model = {}
    _model_write(model, 1, ("t", 2, ("plain", 0)), guarded=True)
    rows = [
        {"jid": 1, "jvars": f"WriteDoc.1.title={polarity}",
         "title": "t" if polarity else "anon-2", "score": 2, "tag": "plain0"}
        for polarity in (True, False)
    ]
    assert "expected no row" in _check(rows, model)
    for row in rows:
        row["jvars"] = f"wpc=True,{row['jvars']}"
    assert _check(rows, model) is None


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_writes_match_the_per_world_model(kind):
    iterations = int(os.environ.get("FUZZ_ITERATIONS", "20"))
    base_seed = int(os.environ.get("FUZZ_SEED", "20160613"))
    for index in range(iterations):
        seed = base_seed + index
        program = _gen_program(random.Random(seed))
        for spelling in ("record", "batched"):
            failure = _failure(kind, spelling, program)
            if failure is not None:
                shrunk = _shrink(kind, spelling, program)
                failure = _failure(kind, spelling, shrunk) or failure
                pytest.fail(
                    f"writes disagree with the model (seed={seed}, backend={kind}, "
                    f"spelling={spelling}):\n"
                    f"  {failure}\n"
                    "paste-able repro:\n"
                    f"def test_repro_seed_{seed}():\n"
                    f"    _assert_writes({kind!r}, {spelling!r}, {shrunk!r})"
                )
