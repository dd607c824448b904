"""Batched loading vs the per-record path: a seeded differential property test.

Inside ``viewer_context`` a fetched list of two or more records shares one
batch state.  The first foreign-key dereference on a member
(``paper.author``), or the first ``get()`` keyed by a member (the Figure 7
policy's ``PaperPCConflict.objects.get(paper=paper, pc=ctxt)``), loads the
answer for every member with one ``IN (...)`` statement.  Every such call
must equal the same call made on a single-record re-fetch of that member --
same jid and field values, or both ``None``.  The re-fetched record has no
siblings, so it takes the per-record path: it is the oracle.

Each seeded world mixes in the cases where a batch must *not* answer:

* a key with two visible matches (``get()`` picks one in engine order);
* hidden facets (authors, reviewers, review bodies, emails);
* conflict rows written under a path condition and looked up from inside
  the Figure 7 policy while its label is being resolved;
* a write between two lookups, a ``ConferencePhase.set`` between two
  lookups, a lookup under a different ``viewer_context`` and a lookup from
  another thread.

Both backends run the same seeds; the counters naming each batch and each
fallback reason must all fire.
"""

from __future__ import annotations

import gc
import random
import threading
import weakref

import pytest

from repro import obs
from repro.apps.conf.models import (
    ConferencePhase,
    ConfUser,
    Paper,
    PaperPCConflict,
    Review,
    ReviewAssignment,
)
from repro.apps.conf.views import setup_conf
from repro.core.labels import Label
from repro.db import Database, SqliteBackend
from repro.form import use_form, viewer_context, writes

BACKENDS = ("memory", "sqlite")
SEEDS = range(12)
PHASES = (ConferencePhase.SUBMISSION, ConferencePhase.REVIEW, ConferencePhase.FINAL)
#: How a lookup is interleaved with the rest of the run.
MODES = ("plain", "write", "phase", "other_viewer", "thread")
COUNTERS = (
    "plan.batched_load",
    "plan.batched_load.fallback.multiple_matches",
    "plan.batched_load.fallback.resolving",
    "plan.batched_load.fallback.stale",
)


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    ConferencePhase.reset()


def _database(backend: str) -> Database:
    return Database(SqliteBackend()) if backend == "sqlite" else Database()


def _snapshot(instance):
    """What a lookup answered: ``None``, or the record's jid and fields."""
    if instance is None:
        return None
    fields = type(instance)._meta.fields.values()
    return (
        type(instance).__name__,
        instance.jid,
        {field.column_name: instance.__dict__.get(field.column_name) for field in fields},
    )


def _world(backend: str, seed: int, rng: random.Random):
    """A seeded conference; returns ``(form, viewers, papers, pcs)``."""
    form = setup_conf(_database(backend))
    with use_form(form):
        chair = ConfUser.objects.create(name="chair", email="chair@conf", level="chair")
        pcs = [
            ConfUser.objects.create(name=f"pc{i}", email=f"pc{i}@conf", level="pc")
            for i in range(3)
        ]
        authors = [
            ConfUser.objects.create(name=f"author{i}", email=f"a{i}@conf")
            for i in range(rng.randint(2, 4))
        ]
        papers = [
            Paper.objects.create(title=f"paper{i}", author=rng.choice(authors))
            for i in range(rng.randint(3, 7))
        ]
        for paper in papers:
            for pc in rng.sample(pcs, rng.randint(0, 2)):
                PaperPCConflict.objects.create(paper=paper, pc=pc)
            for _ in range(rng.randint(0, 2)):
                Review.objects.create(
                    paper=paper, reviewer=rng.choice(pcs),
                    contents=f"review of {paper.title}", score=rng.randint(1, 5),
                )
        # A key with two matches: one paper assigned twice to the same PC
        # member, and conflicted twice with them.
        twice, pc = rng.choice(papers), rng.choice(pcs)
        for _ in range(2):
            ReviewAssignment.objects.create(paper=twice, pc=pc)
            PaperPCConflict.objects.create(paper=twice, pc=pc)
        if seed % 2 == 0:
            # A conflict written under a path condition: the Figure 7
            # policy looks it up while the paper's label is being resolved.
            label = Label(hint="branch")
            form.runtime.policy_env.declare(label)
            form.runtime.policy_env.restrict(
                label, lambda viewer: getattr(viewer, "level", None) == "pc"
            )
            with form.runtime.under_branch(label, True):
                PaperPCConflict.objects.create(paper=rng.choice(papers), pc=rng.choice(pcs))
    ConferencePhase.set(PHASES[seed % 3])
    return form, [chair, *pcs, *authors], papers, pcs


def _calls(record, viewer):
    """The per-record lookups under test, each answering a snapshot.

    ``author`` is a foreign-key dereference and is cached on the instance
    after the first call, so each record makes it once.
    """
    return {
        "author": lambda: _snapshot(record.author),
        "conflict": lambda: _snapshot(PaperPCConflict.objects.get(paper=record, pc=viewer)),
        "review": lambda: _snapshot(Review.objects.get(paper=record)),
        "assignment": lambda: _snapshot(ReviewAssignment.objects.get(paper=record)),
    }


def _in_thread(form, viewer, call):
    box = {}

    def run():
        with use_form(form), viewer_context(viewer):
            box["value"] = call()

    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    return box["value"]


def _run_seed(backend: str, seed: int) -> None:
    rng = random.Random(seed)
    form, viewers, papers, pcs = _world(backend, seed, rng)
    viewer = viewers[seed % len(viewers)]
    with use_form(form), viewer_context(viewer):
        members = Paper.objects.all().fetch()
        assert len(members) >= 2
        # The single-record re-fetches happen in the same state as the list
        # fetch, so both prune with the same policies and data; equal field
        # values also prove the policy lookups batched during pruning.
        singles = {member.jid: Paper.objects.get(jid=member.jid) for member in members}
        for member in members:
            assert _snapshot(member) == _snapshot(singles[member.jid]), (seed, member.jid)
        modes = list(MODES) + [rng.choice(MODES) for _ in range(len(members))]
        rng.shuffle(modes)
        order = list(members)
        rng.shuffle(order)
        for step, member in enumerate(order):
            mode = modes[step % len(modes)]
            batched = _calls(member, viewer)
            oracle = _calls(singles[member.jid], viewer)
            names = list(batched)
            rng.shuffle(names)
            for name in names:
                if mode == "write":
                    # One write between the lookups: an unrelated table for
                    # most of them, the looked-up one for some.
                    if rng.random() < 0.5:
                        ReviewAssignment.objects.create(paper=rng.choice(papers), pc=rng.choice(pcs))
                    else:
                        PaperPCConflict.objects.create(paper=member, pc=viewer)
                elif mode == "phase":
                    ConferencePhase.set(rng.choice(PHASES))
                if mode == "other_viewer":
                    # The chair sees every email and review; anyone else
                    # sees fewer, so a memo crossing viewers would show.
                    other = viewers[0] if viewer is not viewers[0] else rng.choice(viewers)
                    with viewer_context(other):
                        got, want = batched[name](), oracle[name]()
                elif mode == "thread":
                    got = _in_thread(form, viewer, batched[name])
                    want = _in_thread(form, viewer, oracle[name])
                else:
                    got, want = batched[name](), oracle[name]()
                assert got == want, (backend, seed, mode, name, member.jid)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_lookups_equal_the_per_record_path(backend):
    with obs.tracing():
        for seed in SEEDS:
            try:
                _run_seed(backend, seed)
            finally:
                ConferencePhase.reset()
    fired = {name: obs.totals.get(name) for name in COUNTERS}
    assert all(fired.values()), fired


def _conference(backend="memory"):
    form = setup_conf(_database(backend))
    with use_form(form):
        pc = ConfUser.objects.create(name="pc", email="pc@conf", level="pc")
        author = ConfUser.objects.create(name="ada", email="ada@conf")
        papers = [Paper.objects.create(title=f"p{i}", author=author) for i in range(5)]
        PaperPCConflict.objects.create(paper=papers[0], pc=pc)
    return form, pc, papers


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_statement_answers_every_member(backend):
    form, pc, _papers = _conference(backend)
    with use_form(form), viewer_context(pc):
        members = Paper.objects.all().fetch()
        with form.database.observe_statements() as log:
            authors = [member.author for member in members]
            conflicts = [PaperPCConflict.objects.get(paper=m, pc=pc) for m in members]
    # One batched load each for the authors and the conflicts: the pushed
    # Paper read ran no policy, so nothing was loaded while pruning.
    # ConfUser's facet state is known from its creation, so no probe runs.
    assert [sql.split(" WHERE ")[0] for sql in log.statements] == [
        'SELECT * FROM "ConfUser"', 'SELECT * FROM "PaperPCConflict"',
    ], log.statements
    assert [conflict is not None for conflict in conflicts] == [True] + [False] * 4
    # Siblings never share an instance, even when they share a target.
    visible = [author for author in authors if author is not None]
    assert len({id(author) for author in visible}) == len(visible) == 4


def test_in_lists_are_chunked_at_the_bound_variable_limit(monkeypatch):
    form, pc, _papers = _conference()
    monkeypatch.setattr(writes, "MAX_BOUND_VARIABLES", 2)
    with use_form(form), viewer_context(pc):
        with form.database.observe_statements() as log:
            members = Paper.objects.all().fetch()
            conflicts = [PaperPCConflict.objects.get(paper=m, pc=pc) for m in members]
    assert [conflict is not None for conflict in conflicts] == [True] + [False] * 4
    lookups = [
        sql for sql in log.statements if sql.startswith('SELECT * FROM "PaperPCConflict"')
    ]
    assert len(lookups) == 3, lookups  # five jids, two per statement


def test_other_threads_and_viewers_take_the_per_record_path():
    form, pc, _papers = _conference()
    with use_form(form):
        author = ConfUser.objects.get(name="ada")
    with use_form(form), viewer_context(pc):
        members = Paper.objects.all().fetch()
        # Paper 0 conflicts with the PC member, who cannot see its author.
        assert members[0].author is None
        members[1].author  # the batch: every visible member's author
        with form.database.observe_statements() as log:
            _in_thread(form, pc, lambda: members[2].author)
            with viewer_context(author):
                members[3].author
            members[4].author
    # One per-record load each for the thread and the other viewer; the
    # last dereference is answered from the batch.
    assert len(log.statements) == 2, log.statements


def test_a_collected_viewer_never_answers_outside_a_viewer_context():
    form, pc, _papers = _conference()
    with use_form(form):
        with viewer_context(pc):
            viewer = ConfUser.objects.get(name="pc")
        with viewer_context(viewer):
            members = Paper.objects.all().fetch()
            assert members[1].author is not None  # the batch
        del viewer
        gc.collect()
        # No viewer now: the batch, pruned for the PC member, must not answer.
        oracle = ConfUser.objects.get_by_jid(members[2].author_id)
        assert repr(members[2].author) == repr(oracle)


def test_faceted_results_never_batch():
    form, _pc, _papers = _conference()
    with use_form(form):
        members = Paper.objects.all()
        with obs.tracing():
            assert not isinstance(members.fetch(), list)
    assert obs.totals.get("plan.batched_load") == 0


def test_an_undereferenced_list_issues_no_extra_statement():
    form, pc, _papers = _conference()
    with use_form(form), viewer_context(pc):
        ConfUser.objects.all().fetch()  # warm the pushdown's facet probe
        with form.database.observe_statements() as log:
            members = ConfUser.objects.all().fetch()
    assert len(members) == 2
    assert len(log.statements) == 1


def test_batch_state_forms_no_reference_cycle():
    form, pc, _papers = _conference()
    gc.disable()
    try:
        with use_form(form), viewer_context(pc):
            members = Paper.objects.all().fetch()
            for member in members:
                member.author
                PaperPCConflict.objects.get(paper=member, pc=pc)
            refs = [weakref.ref(member) for member in members]
        del members, member
        # Freed by reference counting alone: nothing links a member back
        # to itself through the shared batch state.
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
