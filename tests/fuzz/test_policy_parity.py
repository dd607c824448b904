"""Differential fuzzing: policy pushdown vs the Python pruning oracle.

Each iteration draws a random *program* -- creates, set-oriented updates
and deletes, guarded (pc) creates, and viewer-context reads: filtered and
unfiltered fetches, ``first()``, bounded ``limited(n)`` fetches and counts,
counts, ``exists()`` and aggregates -- from a seeded stdlib
``random.Random``, then runs it once per pushdown configuration on the
same backend:

* ``"off"`` -- the Python Early Pruning path (the oracle);
* ``"on"`` -- inline predicates render into the SQL statement.

Both configurations must produce identical observables, and neither may
ever leak a secret to the wrong viewer -- checked against the fetched
rows' own unpolicied columns (``owner_id``, ``path``), independent of any
path.  ``FuzzDoc`` renders inline with an equality on the viewer's jid,
``FuzzOrgDoc`` with a prefix range (``path.startswith(viewer.path)``),
and ``FuzzAudit`` exercises the Python path (its policy queries another
model), for fetches, counts, ``exists()`` and aggregates alike.

In the ``"on"`` configuration every read is first explained:
``explain()``'s ``sql`` must be among the statements the read runs, and
its ``mode`` must match the counters the read bumps -- one
``plan.policy_pushdown`` and no fallback for ``"policy-pushdown"``, no
push and at most one fallback reason for ``"pruned"``.

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
from repro.cache.config import CacheConfig
from repro.core.labels import Label
from repro.db import Database, SqliteBackend
from repro.form import (
    FORM,
    QuerySet,
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


MODELS = [FuzzOwner, FuzzDoc, FuzzOrgDoc, FuzzAudit]
AGG_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")
ORG_PATHS = ("/", "/eng", "/eng/db", "/ops")
#: pushdown configurations compared against the "off" oracle
CONFIGS = ("off", "on")
#: the counters a read that falls back to the Python path bumps, one per reason
FALLBACK_COUNTERS = (
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


def _gen_program(rng, length=16):
    """A random op list.  Every program opens with two owners so viewer
    and ownership choices are always well-defined."""
    program = [
        ("create_owner", "ada", "/eng"),
        ("create_owner", "bob", "/ops"),
    ]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.14:
            program.append(
                ("create_doc", rng.randrange(4), f"d{rng.randrange(100)}",
                 rng.randrange(10))
            )
        elif roll < 0.22:
            program.append(
                ("create_audit", rng.randrange(4), f"a{rng.randrange(100)}")
            )
        elif roll < 0.28:
            program.append(
                ("create_owner", f"o{rng.randrange(100)}",
                 ORG_PATHS[rng.randrange(len(ORG_PATHS))])
            )
        elif roll < 0.36:
            program.append(
                ("update_score", rng.randrange(10), rng.randrange(10))
            )
        elif roll < 0.42:
            program.append(("delete_docs", rng.randrange(10)))
        elif roll < 0.48:
            program.append(
                ("guarded_create", rng.randrange(4), f"g{rng.randrange(100)}")
            )
        elif roll < 0.56:
            program.append(
                ("create_orgdoc",
                 ORG_PATHS[rng.randrange(len(ORG_PATHS))],
                 f"b{rng.randrange(100)}")
            )
        elif roll < 0.62:
            program.append(("fetch_orgdocs", rng.randrange(4)))
        elif roll < 0.70:
            program.append(("fetch_docs", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.76:
            program.append(("count_docs", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.82:
            program.append(
                ("agg_docs", rng.randrange(4),
                 AGG_FUNCTIONS[rng.randrange(len(AGG_FUNCTIONS))])
            )
        elif roll < 0.86:
            program.append(("exists_docs", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.89:
            program.append(("first_doc", rng.randrange(4), _gen_filter(rng)))
        elif roll < 0.93:
            program.append(
                ("limited_docs", rng.randrange(4), 1 + rng.randrange(3),
                 ("fetch", "count")[rng.randrange(2)])
            )
        else:
            program.append(
                ("read_audits", rng.randrange(4),
                 ("fetch", "count", "exists", "aggregate")[rng.randrange(4)])
            )
    return program


# -- program execution ---------------------------------------------------------------


def _plan_counters():
    """``(policy pushdowns, pushdown fallbacks)`` counted so far."""
    return (
        obs.totals.get("plan.policy_pushdown"),
        sum(obs.totals.get(name) for name in FALLBACK_COUNTERS),
    )


def _doc_query(filters):
    """``FuzzDoc``'s query set under the drawn ``(field, value)`` filter, if any."""
    if not filters:
        return FuzzDoc.objects.all()
    field, value = filters
    return FuzzDoc.objects.filter(**{field: value})


def _run_program(kind, program, config):
    """Execute ``program`` under a pushdown ``config``, returning
    ``(observables, leaks, faults)``; ``faults`` lists every read whose
    ``explain()`` disagreed with what it ran.  Ops that need an owner are
    skipped while none exists (shrunk programs may drop the opening
    creates) -- identically in every configuration, so parity is
    unaffected."""
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all(MODELS)
    form.policy_pushdown_enabled = config != "off"
    observables = []
    leaks = []
    faults = []

    def read(op, viewer, query_set, run, operation="fetch", exact=True, **values):
        """``run(query_set)`` inside ``viewer``'s context.  In the "on"
        configuration ``query_set.explain(operation, **values)`` comes
        first: its ``sql`` must run, and its ``mode`` must match the
        counters the read bumps (``exact=False`` skips the counters, for
        ``first()``, whose unbounded fallback makes a second plan)."""
        with viewer_context(viewer):
            if config != "on":
                return run(query_set)
            report = query_set.explain(operation, **values)
            with obs.tracing(), form.database.observe_statements() as log:
                before = _plan_counters()
                value = run(query_set)
                after = _plan_counters()
        pushed, fallbacks = after[0] - before[0], after[1] - before[1]
        if report["sql"] not in log.statements:
            faults.append((op, "explained SQL did not run", report["sql"]))
        if report["mode"] == "policy-pushdown":
            counted = (pushed, fallbacks) == (1, 0)
        else:
            counted = pushed == 0 and fallbacks <= 1
        if exact and not counted:
            faults.append((op, report["mode"], {"pushed": pushed, "fallbacks": fallbacks}))
        return value

    def check_docs(op, viewer, docs):
        for doc in docs:
            if doc.title != "[secret]" and doc.owner_id != viewer.jid:
                leaks.append((op, doc.jid, doc.title))
        return sorted((doc.jid, doc.title, doc.score) for doc in docs)

    owners = []
    with use_form(form):
        for op in program:
            name, args = op[0], op[1:]
            if not owners and name not in ("create_owner", "create_orgdoc"):
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
                FuzzDoc.objects.create(owner=viewer, title=args[1], score=args[2])
            elif name == "create_audit":
                FuzzAudit.objects.create(owner=viewer, body=args[1])
            elif name == "update_score":
                observables.append(
                    FuzzDoc.objects.filter(score=args[0]).update(score=args[1])
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
                    FuzzDoc.objects.create(owner=viewer, title=args[1], score=0)
            elif name == "fetch_docs":
                docs = read(op, viewer, _doc_query(args[1]), QuerySet.fetch)
                observables.append(check_docs(op, viewer, docs))
            elif name == "count_docs":
                observables.append(
                    read(op, viewer, _doc_query(args[1]), QuerySet.count, "count")
                )
            elif name == "exists_docs":
                observables.append(
                    read(op, viewer, _doc_query(args[1]), QuerySet.exists, "count")
                )
            elif name == "agg_docs":
                value = read(
                    op, viewer, FuzzDoc.objects.all(),
                    lambda qs: qs.aggregate("score", args[1]),
                    "aggregate", field="score", function=args[1],
                )
                observables.append(
                    round(value, 9) if isinstance(value, float) else value
                )
            elif name == "first_doc":
                query_set = _doc_query(args[1]).order_by("score", "jid")
                # first() opens with the bounded LIMIT 1 fetch.
                doc = read(
                    op, viewer, query_set.limited(1),
                    lambda _bounded: query_set.first(), exact=False,
                )
                observables.append(check_docs(op, viewer, [doc] if doc else []))
            elif name == "limited_docs":
                query_set = FuzzDoc.objects.all().order_by("score", "jid").limited(args[1])
                if args[2] == "fetch":
                    docs = read(op, viewer, query_set, QuerySet.fetch)
                    observables.append(check_docs(op, viewer, docs))
                else:
                    observables.append(read(op, viewer, query_set, QuerySet.count, "count"))
            elif name == "create_orgdoc":
                FuzzOrgDoc.objects.create(path=args[0], body=args[1])
            elif name == "fetch_orgdocs":
                docs = read(op, viewer, FuzzOrgDoc.objects.all(), QuerySet.fetch)
                for doc in docs:
                    if doc.body != "[hidden]" and not doc.path.startswith(
                        viewer.path
                    ):
                        leaks.append((op, doc.jid, doc.body))
                observables.append(
                    sorted((doc.jid, doc.path, doc.body) for doc in docs)
                )
            elif name == "read_audits":
                audits = FuzzAudit.objects.all()
                if args[1] == "fetch":
                    fetched = read(op, viewer, audits, QuerySet.fetch)
                    for audit in fetched:
                        if audit.body != "[redacted]" and audit.owner_id != viewer.jid:
                            leaks.append((op, audit.jid, audit.body))
                    observables.append(sorted((a.jid, a.body) for a in fetched))
                elif args[1] == "aggregate":
                    observables.append(read(
                        op, viewer, audits, lambda qs: qs.aggregate("body", "MAX"),
                        "aggregate", field="body", function="MAX",
                    ))
                else:
                    verb = getattr(QuerySet, args[1])
                    observables.append(read(op, viewer, audits, verb, "count"))
            else:  # pragma: no cover - generator and runner must agree
                raise ValueError(f"unknown op {name!r}")
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
            return f"explain() disagrees with the read under {config!r}: {faults!r}"
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
                    f"pushdown={left!r} oracle={right!r}"
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
