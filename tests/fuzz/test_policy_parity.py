"""Differential fuzzing: policy pushdown vs the Python pruning oracle.

Each iteration draws a random *program* -- creates, set-oriented updates
(an owner reassignment among them, which changes who may see a doc) and
deletes, guarded (pc) creates, and viewer-context reads: filtered and
unfiltered fetches, ``first()``, bounded ``limited(n)`` fetches and counts,
counts, ``exists()`` and aggregates -- from a seeded stdlib
``random.Random``, then runs it once per configuration on the same
backend:

* ``"off"`` -- the Python Early Pruning path, caches off (the oracle);
* ``"on"`` -- inline predicates render into the SQL statement;
* ``"cached"`` -- pushdown on, with the default ``CacheConfig()``: the
  query cache.  The programs interleave writes with reads, so an entry
  served after a write it depends on shows up as a divergence from the
  oracle.

Every configuration must produce the oracle's observables, and none may
ever leak a secret to the wrong viewer -- checked against the fetched
rows' own unpolicied columns (``owner_id``, ``path``), independent of any
path.  ``FuzzDoc`` renders inline with an equality on the viewer's jid,
``FuzzOrgDoc`` with a prefix range (``path.startswith(viewer.path)``),
and ``FuzzAudit`` exercises the Python path (its policy queries another
model), for fetches, counts, ``exists()`` and aggregates alike.
``FuzzNote`` is unpolicied, with a foreign key to ``FuzzDoc``: its reads
filtered on ``doc__title`` carry the joined doc's labels.
``FuzzSubmission`` has the conference ``Paper``'s shapes and renders
inline: two policy groups, an early-return ``if`` on the module-level
``FuzzStage`` (a setter the programs call changes it and bumps the policy
epoch), a ``FuzzBlock.objects.get(...) is not None`` lookup over an
unpolicied model whose rows the programs write plainly and under a path
condition, and a read of the column its own group guards.  Its reads
fetch and count all rows, the viewer's own (positive facet rows) and the
ownerless ones (negative facet rows).  Their Projection check runs after
a block written under a path condition too: concretisation resolves each
FORM label inside the viewer's context, so the lookup's ``get()`` sees
the viewer's world, as during Early Pruning.

In the ``"off"`` configuration every fetch, count, ``exists()`` and
aggregate (not ``first()``) also checks the Projection Theorem (the
paper's Theorem 1) at the ORM level: the same read outside any viewer
context, concretised with ``form.runtime.concretize(result, owner)``,
must equal the read inside ``viewer_context(owner)``, for every owner of
the program.  A no-viewer read of N records holding facet rows builds up
to 2 ** N leaves, so the check is skipped once more than
:data:`MAX_FACETED_RECORDS` such records exist.

In the ``"on"`` configuration (not ``"cached"``, where a cache hit runs
no statement) every read is first explained, inside the traced region:
``explain()`` must run no statement and bump no counter, its ``sql`` must
be among the statements the read runs, and the pushdown counters the read
bumps must be exactly the one the report names -- one
``plan.policy_pushdown`` for ``"policy-pushdown"``, the reported
``fallback`` (or nothing, when it reports none) for ``"pruned"``.

On failure the seed is printed, the failing program is greedily shrunk,
and the repro is emitted as a paste-able test case calling
:func:`_assert_parity`.

``FUZZ_ITERATIONS`` (default 20 per backend) and ``FUZZ_SEED`` tune the
sweep from the environment.  CI's fuzz job runs 500 programs per backend
through ``benchmarks/bench_policy_pushdown.py --fuzz-iterations=500``.
"""

import os
import random

import pytest

from repro import obs
from repro.cache import bump_policy_epoch
from repro.cache.config import CacheConfig
from repro.core.labels import Label
from repro.db import Database, SqliteBackend
from repro.form import (
    FORM,
    QuerySet,
    BooleanField,
    CharField,
    ForeignKey,
    IntegerField,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)


class FuzzOwner(JModel):
    name = CharField(max_length=64)
    #: org-tree position; the prefix source of FuzzOrgDoc's policy
    path = CharField(max_length=32, nullable=False, default="/")


class FuzzDoc(JModel):
    """A policy reading only its own row and the viewer: renders inline."""

    owner = ForeignKey(FuzzOwner)
    title = CharField(max_length=128)
    score = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_title(doc):
        return "[secret]"

    @staticmethod
    @label_for("title")
    @jacqueline
    def jacqueline_restrict_title(doc, ctxt):
        return ctxt is not None and doc.owner_id == ctxt.jid


class FuzzOrgDoc(JModel):
    """Prefix-on-viewer policy over a non-nullable column, rendered inline
    as a range (org-tree visibility -- a doc is visible to viewers whose
    subtree contains it)."""

    path = CharField(max_length=32, nullable=False, default="/")
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(doc):
        return "[hidden]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(doc, ctxt):
        return ctxt is not None and doc.path.startswith(ctxt.path)


class FuzzAudit(JModel):
    """Opaque: the policy queries another model's rows."""

    owner = ForeignKey(FuzzOwner)
    body = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_body(audit):
        return "[redacted]"

    @staticmethod
    @label_for("body")
    @jacqueline
    def jacqueline_restrict_body(audit, ctxt):
        owner = FuzzOwner.objects.get(jid=audit.owner_id)
        return owner is not None and ctxt is not None and owner.jid == ctxt.jid


class FuzzNote(JModel):
    """Unpolicied, with a foreign key to a policied model: a joined read
    carries the doc's labels only."""

    doc = ForeignKey(FuzzDoc)
    body = CharField(max_length=64)


class FuzzStage:
    """Module-level state the submission policies read, as the conference
    phase is; setting it bumps the policy epoch."""

    OPEN = "open"
    CLOSED = "closed"
    current = OPEN

    @classmethod
    def set(cls, stage):
        cls.current = stage
        bump_policy_epoch()


class FuzzSubmission(JModel):
    """The conference paper's shapes: renders inline, one branch pair per
    group, its owner group's negative rows tested on the secret row."""

    owner = ForeignKey(FuzzOwner)
    title = CharField(max_length=64)
    flagged = BooleanField(default=False)

    @staticmethod
    def jacqueline_get_public_owner(submission):
        return None

    @staticmethod
    @label_for("owner")
    @jacqueline
    def jacqueline_restrict_owner(submission, ctxt):
        if FuzzStage.current == FuzzStage.CLOSED:
            return True
        if FuzzBlock.objects.get(submission=submission, owner=ctxt) is not None:
            return False
        return ctxt is not None and submission.owner_id == ctxt.jid

    @staticmethod
    def jacqueline_get_public_flagged(submission):
        return False

    @staticmethod
    @label_for("flagged")
    @jacqueline
    def jacqueline_restrict_flagged(submission, ctxt):
        return FuzzStage.current == FuzzStage.CLOSED or getattr(ctxt, "path", None) == "/"


class FuzzBlock(JModel):
    """Unpolicied: hides a submission's owner from one owner."""

    submission = ForeignKey(FuzzSubmission)
    owner = ForeignKey(FuzzOwner)


MODELS = [
    FuzzOwner, FuzzDoc, FuzzOrgDoc, FuzzAudit, FuzzNote, FuzzSubmission, FuzzBlock,
]
AGG_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
#: the projection check's limit on records holding facet rows: a no-viewer
#: read of N such records builds up to 2 ** N leaves
MAX_FACETED_RECORDS = 8
ORG_PATHS = ("/", "/eng", "/eng/db", "/ops")
#: configurations compared against the "off" oracle
CONFIGS = ("off", "on", "cached")
#: the counter a pushed read bumps, then the counters a read that falls
#: back to the Python path bumps, one per reason
PUSHDOWN_COUNTERS = (
    "plan.policy_pushdown",
    "plan.policy_pushdown.opaque_fallback",
    "plan.policy_pushdown.fallback.bind",
    "plan.policy_pushdown.fallback.facet_rows",
)


# -- program generation --------------------------------------------------------------


def _gen_filter(rng):
    """No filter, an unpolicied ``score`` filter, or a filter on the guarded
    ``title`` (matching a secret facet or the public one)."""
    roll = rng.random()
    if roll < 0.5:
        return ()
    if roll < 0.8:
        return ("score", rng.randrange(10))
    return ("title", "[secret]" if roll < 0.85 else f"d{rng.randrange(100)}")


def _gen_note_filter(rng, titles):
    """No filter, or a join filter on the doc's guarded ``title``: the
    public facet, or the secret title of a doc the program created."""
    roll = rng.random()
    if roll < 0.2:
        return ()
    if roll < 0.35 or not titles:
        return ("doc__title", "[secret]")
    return ("doc__title", titles[rng.randrange(len(titles))])


def _gen_program(rng, length=16):
    """A random op list.  Every program opens with two owners so viewer
    and ownership choices are always well-defined."""
    program = [
        ("create_owner", "ada", "/eng"),
        ("create_owner", "bob", "/ops"),
    ]
    titles = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.11:
            titles.append(f"d{rng.randrange(100)}")
            program.append(
                ("create_doc", rng.randrange(4), titles[-1], rng.randrange(10))
            )
        elif roll < 0.16:
            program.append(
                ("create_audit", rng.randrange(4), f"a{rng.randrange(100)}")
            )
        elif roll < 0.21:
            program.append(
                ("create_owner", f"o{rng.randrange(100)}",
                 ORG_PATHS[rng.randrange(len(ORG_PATHS))])
            )
        elif roll < 0.25:
            program.append(
                ("update_score", rng.randrange(10), rng.randrange(10))
            )
        elif roll < 0.27:
            # A write that changes who may see a doc's title: outcomes of
            # the title labels computed before it are stale after it.
            program.append(("reassign_docs", rng.randrange(4), rng.randrange(10)))
        elif roll < 0.32:
            program.append(("delete_docs", rng.randrange(10)))
        elif roll < 0.37:
            program.append(
                ("guarded_create", rng.randrange(4), f"g{rng.randrange(100)}")
            )
        elif roll < 0.42:
            program.append(
                ("create_orgdoc",
                 ORG_PATHS[rng.randrange(len(ORG_PATHS))],
                 f"b{rng.randrange(100)}")
            )
        elif roll < 0.50:
            program.append(("create_note", rng.randrange(8), f"n{rng.randrange(100)}"))
        elif roll < 0.55:
            program.append(("fetch_orgdocs", rng.randrange(4)))
        elif roll < 0.61:
            program.append(("fetch_docs", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.66:
            program.append(("count_docs", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.71:
            program.append(
                ("agg_docs", rng.randrange(4),
                 AGG_FUNCTIONS[rng.randrange(len(AGG_FUNCTIONS))])
            )
        elif roll < 0.75:
            program.append(("exists_docs", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.78:
            program.append(("first_doc", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.82:
            program.append(
                ("limited_docs", rng.randrange(4), 1 + rng.randrange(3),
                 ("fetch", "count")[rng.randrange(2)])
            )
        elif roll < 0.88:
            program.append(
                ("read_notes", rng.randrange(4),
                 ("fetch", "count", "exists")[rng.randrange(3)],
                 _gen_note_filter(rng, titles))
            )
        elif roll < 0.91:
            program.append(
                ("read_audits", rng.randrange(4),
                 ("fetch", "count", "exists", "aggregate")[rng.randrange(4)])
            )
        else:
            program.extend(_gen_submission_ops(rng))
    return program


def _gen_submission_ops(rng):
    """A submission create (rarely flagged: a flagged one holds facet rows
    of both groups, which keeps the table on the Python path), a block
    written plainly or under a path condition, or a stage change; then a
    read."""
    roll = rng.random()
    if roll < 0.5:
        write = ("create_submission", rng.randrange(4), f"s{rng.randrange(100)}",
                 rng.random() < 0.1)
    elif roll < 0.8:
        write = ("block", rng.randrange(4), rng.randrange(4), rng.random() < 0.3)
    else:
        write = ("set_stage", (FuzzStage.OPEN, FuzzStage.CLOSED)[rng.randrange(2)])
    read = ("read_submissions", rng.randrange(4), ("fetch", "count")[rng.randrange(2)],
            ("all", "own", "ownerless")[rng.randrange(3)])
    return [write, read]


# -- program execution ---------------------------------------------------------------


def _query(model, filters):
    """``model``'s query set under the drawn ``(field, value)`` filter, if any."""
    if not filters:
        return model.objects.all()
    field, value = filters
    return model.objects.filter(**{field: value})


def _scalar(value):
    """A count, existence or aggregate, as an observable."""
    return round(value, 9) if isinstance(value, float) else value


def _rows(*fields):
    """An observable of a fetched list: its instances' ``fields``, sorted."""
    return lambda items: sorted(
        tuple(getattr(item, field) for field in fields) for item in items
    )


def _faceted_records(form):
    """How many records hold facet rows, over every fuzzed table."""
    return sum(
        len({row["jid"] for row in form.database.find(model._meta.table_name) if row["jvars"]})
        for model in MODELS
    )


def _run_program(kind, program, config):
    """Execute ``program`` under a configuration, returning
    ``(observables, leaks, faults)``; ``faults`` lists every read whose
    ``explain()`` disagreed with what it ran.  Ops that need an owner are
    skipped while none exists (shrunk programs may drop the opening
    creates) -- identically in every configuration, so parity is
    unaffected."""
    database = Database() if kind == "memory" else Database(SqliteBackend())
    cache_config = CacheConfig() if config == "cached" else CacheConfig.disabled()
    form = FORM(database, cache_config=cache_config)
    form.register_all(MODELS)
    form.policy_pushdown_enabled = config != "off"
    observables = []
    leaks = []
    faults = []
    owners = []

    def read(
        op, viewer, query_set, run, operation="fetch", exact=True, observe=None,
        **values,
    ):
        """``run(query_set)`` inside ``viewer``'s context.

        In the "on" configuration ``query_set.explain(operation, **values)``
        comes first, traced like the read: it must run no statement and
        bump no counter, its ``sql`` must run, and the pushdown counters
        the read bumps must be the one its report names (``exact=False``
        skips the counters, for ``first()``, whose unbounded fallback makes
        a second plan).

        In the "off" configuration a read with an ``observe`` function also
        checks the Projection Theorem for every owner of the program: the
        same read outside any viewer context, concretised for the owner,
        must be observed as the read inside the owner's context -- while at
        most :data:`MAX_FACETED_RECORDS` records hold facet rows.
        """
        if config != "on":
            with viewer_context(viewer):
                value = run(query_set)
            if (
                config == "off"
                and observe is not None
                and _faceted_records(form) <= MAX_FACETED_RECORDS
            ):
                faceted = run(query_set)
                for owner in owners:
                    seen = value
                    if owner is not viewer:
                        with viewer_context(owner):
                            seen = run(query_set)
                    concrete = form.runtime.concretize(faceted, owner)
                    if observe(concrete) != observe(seen):
                        faults.append(
                            (op, "projection", owner.name, observe(concrete), observe(seen))
                        )
            return value
        with viewer_context(viewer):
            with obs.tracing(), form.database.observe_statements() as log:
                before = obs.totals.snapshot()
                report = query_set.explain(operation, **values)
                explained = obs.totals.snapshot()
                explain_statements = list(log.statements)
                value = run(query_set)
                after = obs.totals.snapshot()
        counted = {
            name: total - before.get(name, 0)
            for name, total in explained.items()
            if total != before.get(name, 0)
        }
        if counted or explain_statements:
            faults.append((op, "explain() ran or counted", explain_statements, counted))
        if report["sql"] not in log.statements:
            faults.append((op, "explained SQL did not run", report["sql"]))
        bumped = {
            name: after.get(name, 0) - explained.get(name, 0)
            for name in PUSHDOWN_COUNTERS
            if after.get(name, 0) != explained.get(name, 0)
        }
        if report["mode"] == "policy-pushdown":
            expected = {"plan.policy_pushdown": 1}
        else:
            expected = {report["fallback"]: 1} if "fallback" in report else {}
        if exact and bumped != expected:
            faults.append((op, report["mode"], bumped))
        return value

    doc_rows = _rows("jid", "title", "score")

    def check_docs(op, viewer, fetched):
        for doc in fetched:
            if doc.title != "[secret]" and doc.owner_id != viewer.jid:
                leaks.append((op, doc.jid, doc.title))
        return doc_rows(fetched)

    docs = []
    submissions = []
    #: doc jid -> its owner's jid, for the note reads' leak check
    doc_owners = {}
    submission_rows = _rows("jid", "title", "owner_id", "flagged")
    FuzzStage.current = FuzzStage.OPEN
    with use_form(form):
        for op in program:
            name, args = op[0], op[1:]
            if not owners and name not in ("create_owner", "create_orgdoc"):
                continue
            if not docs and name == "create_note":
                continue
            # The owner (and viewer) an op's leading index picks, if any.
            viewer = (
                owners[args[0] % len(owners)]
                if owners and isinstance(args[0], int) else None
            )
            if name == "create_owner":
                path = args[1] if len(args) > 1 else "/"
                owners.append(FuzzOwner.objects.create(name=args[0], path=path))
            elif name == "create_doc":
                docs.append(
                    FuzzDoc.objects.create(owner=viewer, title=args[1], score=args[2])
                )
                doc_owners[docs[-1].jid] = viewer.jid
            elif name == "create_audit":
                FuzzAudit.objects.create(owner=viewer, body=args[1])
            elif name == "update_score":
                observables.append(
                    FuzzDoc.objects.filter(score=args[0]).update(score=args[1])
                )
            elif name == "reassign_docs":
                observables.append(
                    FuzzDoc.objects.filter(score=args[1]).update(owner=viewer)
                )
                doc_owners.update(
                    (row["jid"], row["owner_id"]) for row in form.database.find("FuzzDoc")
                )
            elif name == "delete_docs":
                observables.append(FuzzDoc.objects.filter(score=args[0]).delete())
            elif name == "guarded_create":
                label = Label(hint="fuzzbranch")
                form.runtime.policy_env.declare(label)
                form.runtime.policy_env.restrict(
                    label,
                    lambda seen, name=viewer.name: (
                        getattr(seen, "name", None) == name
                    ),
                )
                with form.runtime.under_branch(label, True):
                    docs.append(FuzzDoc.objects.create(owner=viewer, title=args[1], score=0))
                doc_owners[docs[-1].jid] = viewer.jid
            elif name == "create_note":
                FuzzNote.objects.create(doc=docs[args[0] % len(docs)], body=args[1])
            elif name == "fetch_docs":
                fetched = read(
                    op, viewer, _query(FuzzDoc, args[1]), QuerySet.fetch, observe=doc_rows
                )
                observables.append(check_docs(op, viewer, fetched))
            elif name == "count_docs":
                observables.append(read(
                    op, viewer, _query(FuzzDoc, args[1]), QuerySet.count, "count",
                    observe=_scalar,
                ))
            elif name == "exists_docs":
                observables.append(read(
                    op, viewer, _query(FuzzDoc, args[1]), QuerySet.exists, "count",
                    observe=_scalar,
                ))
            elif name == "agg_docs":
                observables.append(_scalar(read(
                    op, viewer, FuzzDoc.objects.all(),
                    lambda qs: qs.aggregate("score", args[1]),
                    "aggregate", field="score", function=args[1], observe=_scalar,
                )))
            elif name == "first_doc":
                query_set = _query(FuzzDoc, args[1]).order_by("score", "jid")
                # first() opens with the bounded LIMIT 1 fetch.
                doc = read(
                    op, viewer, query_set.limited(1),
                    lambda _bounded: query_set.first(), exact=False,
                )
                observables.append(check_docs(op, viewer, [doc] if doc else []))
            elif name == "limited_docs":
                query_set = FuzzDoc.objects.all().order_by("score", "jid").limited(args[1])
                if args[2] == "fetch":
                    fetched = read(op, viewer, query_set, QuerySet.fetch, observe=doc_rows)
                    observables.append(check_docs(op, viewer, fetched))
                else:
                    observables.append(read(
                        op, viewer, query_set, QuerySet.count, "count", observe=_scalar
                    ))
            elif name == "create_orgdoc":
                FuzzOrgDoc.objects.create(path=args[0], body=args[1])
            elif name == "fetch_orgdocs":
                orgdoc_rows = _rows("jid", "path", "body")
                fetched = read(
                    op, viewer, FuzzOrgDoc.objects.all(), QuerySet.fetch,
                    observe=orgdoc_rows,
                )
                for doc in fetched:
                    if doc.body != "[hidden]" and not doc.path.startswith(
                        viewer.path
                    ):
                        leaks.append((op, doc.jid, doc.body))
                observables.append(orgdoc_rows(fetched))
            elif name == "read_audits":
                audits = FuzzAudit.objects.all()
                if args[1] == "fetch":
                    audit_rows = _rows("jid", "body")
                    fetched = read(op, viewer, audits, QuerySet.fetch, observe=audit_rows)
                    for audit in fetched:
                        if audit.body != "[redacted]" and audit.owner_id != viewer.jid:
                            leaks.append((op, audit.jid, audit.body))
                    observables.append(audit_rows(fetched))
                elif args[1] == "aggregate":
                    observables.append(read(
                        op, viewer, audits, lambda qs: qs.aggregate("body", "MAX"),
                        "aggregate", field="body", function="MAX", observe=_scalar,
                    ))
                else:
                    verb = getattr(QuerySet, args[1])
                    observables.append(
                        read(op, viewer, audits, verb, "count", observe=_scalar)
                    )
            elif name == "read_notes":
                notes = _query(FuzzNote, args[2])
                if args[1] == "fetch":
                    note_rows = _rows("jid", "doc_id", "body")
                    fetched = read(op, viewer, notes, QuerySet.fetch, observe=note_rows)
                    if args[2] and args[2][1] != "[secret]":
                        # Matching a secret title shows the viewer's own docs only.
                        for note in fetched:
                            if doc_owners.get(note.doc_id) != viewer.jid:
                                leaks.append((op, note.jid, note.doc_id))
                    observables.append(note_rows(fetched))
                else:
                    verb = getattr(QuerySet, args[1])
                    observables.append(
                        read(op, viewer, notes, verb, "count", observe=_scalar)
                    )
            elif name == "create_submission":
                submissions.append(FuzzSubmission.objects.create(
                    owner=viewer, title=args[1], flagged=args[2]
                ))
            elif name == "block":
                if not submissions:
                    continue
                submission = submissions[args[1] % len(submissions)]
                if args[2]:
                    label = Label(hint="fuzzblock")
                    form.runtime.policy_env.declare(label)
                    form.runtime.policy_env.restrict(
                        label,
                        lambda seen, name=viewer.name: getattr(seen, "name", None) != name,
                    )
                    with form.runtime.under_branch(label, True):
                        FuzzBlock.objects.create(submission=submission, owner=viewer)
                else:
                    FuzzBlock.objects.create(submission=submission, owner=viewer)
            elif name == "set_stage":
                FuzzStage.set(args[0])
            elif name == "read_submissions":
                query_set = {
                    "all": FuzzSubmission.objects.all(),
                    "own": FuzzSubmission.objects.filter(owner=viewer),
                    "ownerless": FuzzSubmission.objects.filter(owner=None),
                }[args[2]]
                if args[1] == "fetch":
                    fetched = read(
                        op, viewer, query_set, QuerySet.fetch, observe=submission_rows
                    )
                    for submission in fetched:
                        if (
                            FuzzStage.current == FuzzStage.OPEN
                            and submission.owner_id not in (None, viewer.jid)
                        ):
                            leaks.append((op, submission.jid, submission.owner_id))
                    observables.append(submission_rows(fetched))
                else:
                    observables.append(read(
                        op, viewer, query_set, QuerySet.count, "count", observe=_scalar
                    ))
            else:  # pragma: no cover - generator and runner must agree
                raise ValueError(f"unknown op {name!r}")
    FuzzStage.current = FuzzStage.OPEN
    database.close()
    return observables, leaks, faults


def _failure(kind, program):
    """The parity/leak/explain violation this program exposes, or ``None``."""
    runs = {}
    for config in CONFIGS:
        observables, run_leaks, faults = _run_program(kind, program, config)
        if run_leaks:
            return f"cross-viewer leak on the {config!r} path: {run_leaks!r}"
        if faults:
            return f"a read's explain() or projection check failed under {config!r}: {faults!r}"
        runs[config] = observables
    oracle = runs["off"]
    for config in CONFIGS[1:]:
        observed = runs[config]
        if observed == oracle:
            continue
        for index, (left, right) in enumerate(zip(observed, oracle)):
            if left != right:
                return (
                    f"observable #{index} diverges under {config!r}: "
                    f"{config}={left!r} oracle={right!r}"
                )
        return (
            f"observable counts diverge under {config!r}: "
            f"{len(observed)} vs {len(oracle)}"
        )
    return None


def _shrink(kind, program):
    """Greedily drop ops while the failure persists (1-minimal repro)."""
    changed = True
    while changed:
        changed = False
        for index in range(len(program)):
            candidate = program[:index] + program[index + 1:]
            if candidate and _failure(kind, candidate) is not None:
                program = candidate
                changed = True
                break
    return program


def _assert_parity(kind, program):
    """Entry point for paste-able repros emitted on fuzz failures."""
    failure = _failure(kind, program)
    assert failure is None, failure


# -- the harness ---------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_differential_fuzz_policy_parity(kind):
    iterations = int(os.environ.get("FUZZ_ITERATIONS", "20"))
    base_seed = int(os.environ.get("FUZZ_SEED", "20160613"))
    for index in range(iterations):
        seed = base_seed + index
        program = _gen_program(random.Random(seed))
        failure = _failure(kind, program)
        if failure is not None:
            shrunk = _shrink(kind, program)
            failure = _failure(kind, shrunk) or failure
            pytest.fail(
                f"policy parity violated (seed={seed}, backend={kind}):\n"
                f"  {failure}\n"
                "paste-able repro:\n"
                f"def test_repro_seed_{seed}():\n"
                f"    _assert_parity({kind!r}, {shrunk!r})"
            )
