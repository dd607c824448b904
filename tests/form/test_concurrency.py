"""Multi-threaded FORM semantics: jid allocation, get_or_create, contexts.

These are the invariants the WSGI serving layer relies on; the concurrent
load benchmark stress-tests the same properties at request granularity.
"""

import sys
import threading

import pytest

from repro.db import Database, MemoryBackend, SqliteBackend
from repro.form import (
    CharField,
    FORM,
    JModel,
    jacqueline,
    label_for,
    use_form,
    viewer_context,
)
from repro.form.context import current_form, set_default_form, _get_default_form


class ConcUser(JModel):
    name = CharField(max_length=64)
    tag = CharField(max_length=64)


@pytest.fixture(params=["memory", "sqlite"])
def conc_form(request):
    if request.param == "memory":
        database = Database(MemoryBackend())
    else:
        database = Database(SqliteBackend())
    form = FORM(database)
    form.register(ConcUser)
    yield form
    database.close()


def _run_threads(count, target):
    barrier = threading.Barrier(count)
    errors = []

    def wrapped(index):
        try:
            barrier.wait()
            target(index)
        except Exception as exc:  # pragma: no cover - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


def test_concurrent_creates_allocate_unique_jids(conc_form):
    per_thread = 25

    def create_records(index):
        with use_form(conc_form):
            for j in range(per_thread):
                ConcUser.objects.create(name=f"user-{index}-{j}", tag=str(index))

    _run_threads(8, create_records)

    with use_form(conc_form):
        rows = conc_form.database.find("ConcUser")
    jids_by_name = {}
    for row in rows:
        jids_by_name.setdefault(row["name"], set()).add(row["jid"])
    # Every record got exactly one jid, and no jid is shared by two records.
    assert len(jids_by_name) == 8 * per_thread
    all_jids = [jid for jids in jids_by_name.values() for jid in jids]
    assert all(len(jids) == 1 for jids in jids_by_name.values())
    assert len(set(all_jids)) == len(all_jids)


def test_concurrent_get_or_create_yields_single_record(conc_form):
    winners = []

    def race(index):
        with use_form(conc_form):
            user, created = ConcUser.objects.get_or_create(
                name="highlander", defaults={"tag": str(index)}
            )
            if created:
                winners.append(index)

    _run_threads(8, race)

    assert len(winners) == 1
    with use_form(conc_form):
        rows = conc_form.database.find("ConcUser", name="highlander")
    assert len({row["jid"] for row in rows}) == 1


def test_new_threads_inherit_the_default_form():
    database = Database(MemoryBackend())
    form = FORM(database)
    form.register(ConcUser)
    previous = _get_default_form()
    set_default_form(form)
    try:
        seen = []

        def observe():
            # A fresh worker thread must resolve the installed default, not a
            # silently minted empty FORM hiding the app's database.
            seen.append(current_form())
            with use_form(current_form()):
                ConcUser.objects.create(name="from-worker", tag="t")

        thread = threading.Thread(target=observe)
        thread.start()
        thread.join()
        assert seen == [form]
        with use_form(form):
            assert ConcUser.objects.get(name="from-worker") is not None
    finally:
        set_default_form(previous)


def test_register_resumes_jid_counter_on_persistent_database(tmp_path):
    # A fresh process reopening a persistent database must not re-mint jids
    # that already exist on disk.
    path = str(tmp_path / "persist.db")
    first = FORM(Database(SqliteBackend(path)))
    first.register(ConcUser)
    with use_form(first):
        existing = [ConcUser.objects.create(name=f"old{i}", tag="x") for i in range(3)]
    first.database.close()

    reopened = FORM(Database(SqliteBackend(path)))
    reopened.register(ConcUser)
    with use_form(reopened):
        fresh = ConcUser.objects.create(name="new", tag="y")
        rows = reopened.database.find("ConcUser")
    assert fresh.jid > max(record.jid for record in existing)
    jids = {}
    for row in rows:
        jids.setdefault(row["jid"], set()).add(row["name"])
    assert all(len(names) == 1 for names in jids.values())
    reopened.database.close()


def test_use_form_stays_thread_local():
    form_a = FORM(Database(MemoryBackend()))
    observed = []

    with use_form(form_a):
        def observe():
            observed.append(current_form())

        thread = threading.Thread(target=observe)
        thread.start()
        thread.join()
        # The worker sees the process default, not this thread's binding.
        assert observed[0] is not form_a
        assert current_form() is form_a


def test_set_form_binds_only_the_calling_thread():
    from repro.form import set_form

    form_a = FORM(Database(MemoryBackend()))
    main_before = current_form()
    observed = []

    def worker():
        set_form(form_a)
        observed.append(current_form())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert observed == [form_a]
    # The worker's unscoped binding never leaks into other threads.
    assert current_form() is main_before


def test_readers_never_observe_a_record_mid_update(conc_form):
    # save() on an existing record rewrites its whole facet-row set; the
    # swap is atomic (Backend.replace_rows), so a concurrent reader sees the
    # record before or after the update -- never gone.
    with use_form(conc_form):
        record = ConcUser.objects.create(name="steady", tag="t0")

    stop = threading.Event()
    vanished = []

    def reader(_index):
        with use_form(conc_form):
            while not stop.is_set():
                if ConcUser.objects.get(jid=record.jid) is None:
                    vanished.append(1)

    def writer():
        with use_form(conc_form):
            for i in range(150):
                mine = ConcUser.objects.get(jid=record.jid)
                mine.tag = f"t{i}"
                mine.save()
        stop.set()

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
    writer_thread = threading.Thread(target=writer)
    for thread in readers + [writer_thread]:
        thread.start()
    for thread in readers + [writer_thread]:
        thread.join()
    assert vanished == []


class GuardedDoc(JModel):
    secret = CharField(max_length=64)

    @staticmethod
    def jacqueline_get_public_secret(doc):
        return "[public]"

    @staticmethod
    @label_for("secret")
    @jacqueline
    def jacqueline_restrict_secret(doc, viewer):
        if getattr(viewer, "slow", False):
            _GATE_ENTERED.set()
            _GATE_RELEASE.wait(timeout=5)
        return False  # nobody may ever see the secret


_GATE_ENTERED = threading.Event()
_GATE_RELEASE = threading.Event()


def test_policy_reentrancy_guard_is_per_thread():
    # The "optimistically visible while resolving" answer must stay inside
    # the thread doing the resolving: while thread A is mid-resolution,
    # thread B asking about the same label must evaluate the (denying)
    # policy for real, not inherit A's optimistic True.
    _GATE_ENTERED.clear()
    _GATE_RELEASE.clear()
    form = FORM(Database(MemoryBackend()))
    form.register(GuardedDoc)
    with use_form(form):
        GuardedDoc.objects.create(secret="TOPSECRET")

    class Viewer:
        def __init__(self, slow=False):
            self.slow = slow

    leaks = []

    def slow_reader():
        with use_form(form), viewer_context(Viewer(slow=True)):
            docs = GuardedDoc.objects.all().fetch()
            if any(doc.secret == "TOPSECRET" for doc in docs):
                leaks.append("slow")

    def fast_reader():
        assert _GATE_ENTERED.wait(timeout=5)  # A is mid-resolution now
        try:
            with use_form(form), viewer_context(Viewer()):
                docs = GuardedDoc.objects.all().fetch()
                if any(doc.secret == "TOPSECRET" for doc in docs):
                    leaks.append("fast")
        finally:
            _GATE_RELEASE.set()

    threads = [threading.Thread(target=slow_reader), threading.Thread(target=fast_reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert leaks == []


def test_concurrent_saves_of_one_record_leave_consistent_rows(conc_form):
    with use_form(conc_form):
        record = ConcUser.objects.create(name="shared", tag="start")

    def update(index):
        with use_form(conc_form):
            mine = ConcUser.objects.get(jid=record.jid)
            mine.tag = f"tag-{index}"
            mine.save()

    _run_threads(6, update)

    with use_form(conc_form):
        rows = conc_form.database.find("ConcUser", jid=record.jid)
    # One facet row (no policies on ConcUser) with one of the written tags.
    assert len(rows) == 1
    assert rows[0]["tag"] in {f"tag-{i}" for i in range(6)}


def test_the_shape_cache_gives_each_thread_its_own_viewers_rows(monkeypatch):
    """8 threads evaluate the inline ``ConfUser`` predicates of 8 viewers
    over one memory table: one shape bound to different jids, interleaved
    with compiles of other shapes.  The process-wide shape cache starts
    empty and is cut to 4 entries, so the threads race on the first
    generation, and shapes are evicted and generated again while others
    read them."""
    from repro.apps.conf.models import ConfUser
    from repro.apps.conf.seed import seed_conference
    from repro.apps.conf.views import setup_conf
    from repro.cache.config import CacheConfig
    from repro.db import expr
    from repro.db.query import Query
    from repro.form.pushdown import pruning_conjuncts

    monkeypatch.setattr(expr, "_FACTORIES", {})
    monkeypatch.setattr(expr, "SHAPE_CACHE_SIZE", 4)
    form = setup_conf(cache_config=CacheConfig.disabled())
    viewers = seed_conference(form, papers=16)["users"][:8]
    with use_form(form):
        rows = form.database.execute(Query(table="ConfUser"))
        conjuncts = []
        for viewer in viewers:
            with viewer_context(viewer):
                (conjunct,), _fallback = pruning_conjuncts(form, [ConfUser], viewer)
            conjuncts.append(conjunct)
    # A row is visible when it is unfaceted, or it is the branch of its
    # record that the viewer's own-email policy selects.
    expected = [
        sorted(
            (row["jid"], row["jvars"])
            for row in rows
            if row["jvars"] in ("", f"ConfUser.{row['jid']}.email={row['jid'] == viewer.jid}")
        )
        for viewer in viewers
    ]
    assert len({tuple(rows) for rows in expected}) == len(viewers)
    failures = []

    def evaluate(index):
        try:
            for round_ in range(40):
                predicate = conjuncts[index].compile()
                seen = sorted((row["jid"], row["jvars"]) for row in rows if predicate(row))
                if seen != expected[index]:
                    failures.append((index, round_))
                expr.eq(f"other_{index}", round_).compile()  # another shape
        except Exception as exc:  # pragma: no cover - surfaced via assert
            failures.append((index, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(expr._FACTORIES) <= 4
