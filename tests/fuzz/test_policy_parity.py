"""Differential fuzzing: policy pushdown vs the Python pruning oracle.

Each iteration draws a random *program* -- creates, set-oriented updates
and deletes, guarded (pc) creates, viewer-context fetches, counts and
aggregates -- from a seeded stdlib ``random.Random``, then runs it once
per pushdown configuration on the same backend:

* ``"off"`` -- the Python Early Pruning path (the oracle);
* ``"on"`` -- inline predicates render into the SQL statement.

Both configurations must produce identical observables, and neither may
ever leak a secret to the wrong viewer -- checked against the fetched
rows' own unpolicied columns (``owner_id``, ``path``), independent of any
path.  ``FuzzDoc`` renders inline with an equality on the viewer's jid,
``FuzzOrgDoc`` with a prefix range (``path.startswith(viewer.path)``),
and ``FuzzAudit`` exercises the Python path (its policy queries another
model).

On failure the seed is printed, the failing program is greedily shrunk,
and the repro is emitted as a paste-able test case calling
:func:`_assert_parity`.

``FUZZ_ITERATIONS`` (default 20 per backend; CI's nightly job runs 500)
and ``FUZZ_SEED`` tune the sweep from the environment.
"""

import os
import random

import pytest

from repro.cache.config import CacheConfig
from repro.core.labels import Label
from repro.db import Database, SqliteBackend
from repro.form import (
    FORM,
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
    """Equality-on-viewer, own-row-only policy: rendered inline."""

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


# -- program generation --------------------------------------------------------------


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
        elif roll < 0.64:
            program.append(("fetch_orgdocs", rng.randrange(4)))
        elif roll < 0.76:
            program.append(("fetch_docs", rng.randrange(4)))
        elif roll < 0.84:
            program.append(("count_docs", rng.randrange(4)))
        elif roll < 0.94:
            program.append(
                ("agg_docs", rng.randrange(4),
                 AGG_FUNCTIONS[rng.randrange(len(AGG_FUNCTIONS))])
            )
        else:
            program.append(("fetch_audits", rng.randrange(4)))
    return program


# -- program execution ---------------------------------------------------------------


def _run_program(kind, program, config):
    """Execute ``program`` under a pushdown ``config``, returning
    ``(observables, leaks)``.  Ops that need an owner are skipped while
    none exists (shrunk programs may drop the opening creates) --
    identically in every configuration, so parity is unaffected."""
    database = Database() if kind == "memory" else Database(SqliteBackend())
    form = FORM(database, cache_config=CacheConfig.disabled())
    form.register_all(MODELS)
    form.policy_pushdown_enabled = config != "off"
    observables = []
    leaks = []
    owners = []
    with use_form(form):
        for op in program:
            name, args = op[0], op[1:]
            if not owners and name not in ("create_owner", "create_orgdoc"):
                continue
            if name == "create_owner":
                path = args[1] if len(args) > 1 else "/"
                owners.append(FuzzOwner.objects.create(name=args[0], path=path))
            elif name == "create_doc":
                owner = owners[args[0] % len(owners)]
                FuzzDoc.objects.create(owner=owner, title=args[1], score=args[2])
            elif name == "create_audit":
                owner = owners[args[0] % len(owners)]
                FuzzAudit.objects.create(owner=owner, body=args[1])
            elif name == "update_score":
                observables.append(
                    FuzzDoc.objects.filter(score=args[0]).update(score=args[1])
                )
            elif name == "delete_docs":
                observables.append(FuzzDoc.objects.filter(score=args[0]).delete())
            elif name == "guarded_create":
                owner = owners[args[0] % len(owners)]
                label = Label(hint="fuzzbranch")
                form.runtime.policy_env.declare(label)
                form.runtime.policy_env.restrict(
                    label,
                    lambda viewer, name=owner.name: (
                        getattr(viewer, "name", None) == name
                    ),
                )
                with form.runtime.under_branch(label, True):
                    FuzzDoc.objects.create(owner=owner, title=args[1], score=0)
            elif name == "fetch_docs":
                viewer = owners[args[0] % len(owners)]
                with viewer_context(viewer):
                    docs = FuzzDoc.objects.all().fetch()
                for doc in docs:
                    if doc.title != "[secret]" and doc.owner_id != viewer.jid:
                        leaks.append((op, doc.jid, doc.title))
                observables.append(
                    sorted((doc.jid, doc.title, doc.score) for doc in docs)
                )
            elif name == "count_docs":
                viewer = owners[args[0] % len(owners)]
                with viewer_context(viewer):
                    observables.append(FuzzDoc.objects.all().count())
            elif name == "agg_docs":
                viewer = owners[args[0] % len(owners)]
                with viewer_context(viewer):
                    value = FuzzDoc.objects.all().aggregate("score", args[1])
                observables.append(
                    round(value, 9) if isinstance(value, float) else value
                )
            elif name == "create_orgdoc":
                FuzzOrgDoc.objects.create(path=args[0], body=args[1])
            elif name == "fetch_orgdocs":
                viewer = owners[args[0] % len(owners)]
                with viewer_context(viewer):
                    docs = FuzzOrgDoc.objects.all().fetch()
                for doc in docs:
                    if doc.body != "[hidden]" and not doc.path.startswith(
                        viewer.path
                    ):
                        leaks.append((op, doc.jid, doc.body))
                observables.append(
                    sorted((doc.jid, doc.path, doc.body) for doc in docs)
                )
            elif name == "fetch_audits":
                viewer = owners[args[0] % len(owners)]
                with viewer_context(viewer):
                    audits = FuzzAudit.objects.all().fetch()
                for audit in audits:
                    if audit.body != "[redacted]" and audit.owner_id != viewer.jid:
                        leaks.append((op, audit.jid, audit.body))
                observables.append(sorted((a.jid, a.body) for a in audits))
            else:  # pragma: no cover - generator and runner must agree
                raise ValueError(f"unknown op {name!r}")
    database.close()
    return observables, leaks


def _failure(kind, program):
    """The parity/leak violation this program exposes, or ``None``."""
    runs = {}
    for config in CONFIGS:
        observables, run_leaks = _run_program(kind, program, config)
        if run_leaks:
            return f"cross-viewer leak on the {config!r} path: {run_leaks!r}"
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
