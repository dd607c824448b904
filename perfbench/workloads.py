"""The three benchmark workloads.

Each workload turns its seed into an operation schedule before any timing
starts, builds the program's stacks on demand (``build``), and runs one
operation at a time: :meth:`request` performs and times the operation,
:meth:`check` applies the policy-compliance oracle to its result.  Every
workload is a closed loop with one client and one request outstanding.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.apps.conf import (
    CONF_MODELS,
    ConfUser,
    build_baseline_conf_app,
    build_conf_app,
    seed_baseline_conference,
    seed_conference,
    setup_baseline_conf,
    setup_conf,
)
from repro.cache import CacheConfig
from repro.db.engine import Database
from repro.db.sqlite_backend import SqliteBackend
from repro.form import use_form, viewer_context
from repro.web import TestClient

import oracle
from oracle import Seed, Viewer


class Op(NamedTuple):
    kind: str
    viewer: int
    target: int
    serial: int


class Failure(Exception):
    """An operation whose result broke the status contract or the oracle.

    ``leak`` marks a policy-compliance failure (the oracle saw a value the
    viewer may not see, or missed one it may see)."""

    def __init__(self, problems: Sequence[str], leak: bool = True) -> None:
        super().__init__("; ".join(problems))
        self.leak = leak


def _block_schedule(
    rng: random.Random,
    block: Sequence[tuple],
    blocks: int,
    viewers_for: Dict[str, List[int]],
    target_for: Dict[str, Any],
) -> List[Op]:
    """Shuffled fixed-proportion blocks of operations.

    Each block holds exactly the workload's mix, so every prefix of the
    schedule keeps the mix to within one block; per kind, viewers rotate
    through a seed-shuffled order so each viewer class gets its share.
    """
    rotations = {}
    for kind, _count in block:
        order = list(viewers_for[kind])
        rng.shuffle(order)
        rotations[kind] = itertools.cycle(order)
    schedule: List[Op] = []
    for _ in range(blocks):
        kinds = [kind for kind, count in block for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            schedule.append(Op(kind, next(rotations[kind]), target_for[kind](rng), len(schedule)))
    return schedule


def _zipf_sampler(rng: random.Random, size: int, exponent: float):
    """Zipf-skewed record indices over ``size`` records, hot ranks shuffled."""
    ranks = list(range(size))
    rng.shuffle(ranks)
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(size)))
    population = range(size)
    return lambda r: ranks[r.choices(population, cum_weights=weights)[0]]


def _clear_compiled_policies() -> None:
    """Drop the per-model pushdown profiles so each set-up compiles them."""
    for model in CONF_MODELS:
        vars(model._meta).pop("_pushdown_profile", None)


class _ConfWorkload:
    """Shared structure of the two conference-page workloads."""

    name = ""
    papers = 0
    pc_members = 4
    authors = 8
    cache_config: Optional[CacheConfig] = None
    #: operations of a traced run (a fixed count, so counts repeat exactly).
    trace_ops = 0
    #: set-ups per untraced run; ``setup_s`` is their median.
    setups = 9
    #: when set, the timed loop sets the workload up again before each
    #: window of this many operations (whole blocks, dividing the schedule).
    window_ops = 0
    #: operation kind -> the latency series it is reported under.
    METRIC_KIND: Dict[str, str] = {}

    def __init__(self, seed: int, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.seed = Seed(self.papers, self.papers, self.pc_members)
        authors = sorted(self.rng.sample(range(self.papers), self.authors))
        self.viewers = (
            [Viewer(f"pc{p}", "pc", p) for p in range(self.pc_members)]
            + [Viewer(f"author{a}", "normal", a) for a in authors]
            + [Viewer("chair", "chair")]
        )
        #: user-table order of the seed: chair, PC members, authors.
        self.user_names = (
            ["chair"]
            + [f"pc{p}" for p in range(self.pc_members)]
            + [f"author{a}" for a in range(self.papers)]
        )
        self.schedule: List[Op] = []
        self.form = None
        self._tempdir: Optional[str] = None

    def metric_kind(self, op: Op) -> str:
        return self.METRIC_KIND.get(op.kind, op.kind)

    # -- set-up ----------------------------------------------------------------------

    def _database(self, filename: str) -> Database:
        return Database()

    def build(self) -> None:
        _clear_compiled_policies()
        self.form = setup_conf(self._database("jacqueline.db"), cache_config=self.cache_config)
        created = seed_conference(
            self.form, papers=self.papers, users=self.papers, pc_members=self.pc_members
        )
        self.app = build_conf_app(self.form)
        users = created["chair"] + created["pc"] + created["users"]
        self.paper_jids = [paper.jid for paper in created["papers"]]
        self.user_jids = [user.jid for user in users]
        self.clients = [self._client(self.app, self._user(created, v).jid, v) for v in self.viewers]
        self.review_counts = [1] * self.papers

    @staticmethod
    def _user(created: Dict[str, list], viewer: Viewer) -> Any:
        if viewer.level == "chair":
            return created["chair"][0]
        if viewer.level == "pc":
            return created["pc"][viewer.index]
        return created["users"][viewer.index]

    @staticmethod
    def _client(app: Any, user_id: Any, viewer: Viewer) -> TestClient:
        client = TestClient(app)
        client.force_login(user_id, viewer.name)
        return client

    def backends(self) -> List[Any]:
        """The Jacqueline stack's backends (traced runs observe these)."""
        return [self.form.database.backend]

    def apps(self) -> List[Any]:
        return [self.app]

    def cache_stats(self) -> Dict[str, Dict[str, Any]]:
        return self.form.caches.stats()

    def close(self) -> None:
        if self.form is not None:
            self.form.database.close()
        self.form = self.app = self.clients = None
        if self._tempdir is not None:
            shutil.rmtree(self._tempdir, ignore_errors=True)
            self._tempdir = None

    # -- operations ----------------------------------------------------------------------

    def request(self, op: Op) -> tuple:
        """Perform one operation; returns ``(seconds, response)``."""
        client = self.clients[op.viewer]
        if op.kind == "review":
            method, path = "POST", "/review"
            data = {
                "paper": self.paper_jids[op.target],
                "contents": f"Churn review {op.serial}",
                "score": op.serial % 5 + 1,
            }
        elif op.kind == "submit":
            method, path, data = "POST", "/submit", {"title": f"Submitted {op.serial}"}
        else:
            method, path, data = "GET", self._page_path(op), None
        started = time.perf_counter()
        response = client.request(method, path, data=data)
        return time.perf_counter() - started, response

    def _page_path(self, op: Op) -> str:
        if op.kind == "papers_page":
            return "/papers"
        if op.kind == "users_page":
            return "/users"
        if op.kind == "paper_page":
            return f"/paper/{self.paper_jids[op.target]}"
        return f"/user/{self.user_jids[op.target]}"

    def check(self, op: Op, response: Any) -> None:
        if not 200 <= response.status < 400:
            raise Failure([f"{op.kind} returned status {response.status}"], leak=False)
        viewer = self.viewers[op.viewer]
        body = response.body
        if op.kind == "papers_page":
            problems = oracle.check_papers_page(body, self.seed, viewer)
        elif op.kind == "users_page":
            problems = oracle.check_users_page(body, self.seed, viewer)
        elif op.kind == "paper_page":
            problems = oracle.check_paper_page(
                body, self.seed, viewer, op.target, self.review_counts[op.target]
            )
        elif op.kind == "user_page":
            problems = oracle.check_user_page(body, viewer, self.user_names[op.target])
        else:
            problems = []
            if op.kind == "review":
                self.review_counts[op.target] += 1
        if problems:
            raise Failure(problems)

    def pair(self, op: Op) -> Optional[float]:
        """The paired baseline request's seconds, where the workload has one."""
        return None

    def warm_up(self) -> None:
        """One read of each page kind per viewer class, on every stack, and
        one paper page per viewer (it fills that viewer's slice of the
        label-assignment store)."""
        classes = {viewer.level: index for index, viewer in enumerate(self.viewers)}
        warm = [Op(kind, viewer, 0, -1)
                for kind in ("papers_page", "users_page", "paper_page", "user_page")
                for viewer in classes.values()]
        warm += [Op("paper_page", viewer, 0, -1) for viewer in range(len(self.viewers))]
        for op in warm:
            self.check(op, self.request(op)[1])
            self.pair(op)


class ConfPages(_ConfWorkload):
    """The paper's Table 3/4 pages, uncached, on SQLite, paired with Django."""

    name = "conf-pages"
    papers = 256
    cache_config = CacheConfig.disabled()
    trace_ops = 100
    BLOCK = (("papers_page", 3), ("users_page", 3), ("paper_page", 7), ("user_page", 7))

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        everyone = list(range(len(self.viewers)))
        users = len(self.user_names)
        self.schedule = _block_schedule(
            self.rng, self.BLOCK, 300,
            {kind: everyone for kind, _count in self.BLOCK},
            {
                "papers_page": lambda r: 0,
                "users_page": lambda r: 0,
                "paper_page": lambda r: r.randrange(self.papers),
                "user_page": lambda r: r.randrange(users),
            },
        )
        self.baseline_db = None

    def _database(self, filename: str) -> Database:
        if self._tempdir is None:
            self._tempdir = tempfile.mkdtemp(prefix="conf-pages-", dir=self.workdir)
        return Database(SqliteBackend(os.path.join(self._tempdir, filename)))

    def build(self) -> None:
        super().build()
        self.baseline_db = setup_baseline_conf(self._database("baseline.db"))
        created = seed_baseline_conference(
            self.baseline_db, papers=self.papers, users=self.papers,
            pc_members=self.pc_members,
        )
        self.baseline_app = build_baseline_conf_app(self.baseline_db)
        users = created["chair"] + created["pc"] + created["users"]
        self.baseline_paper_pks = [paper.pk for paper in created["papers"]]
        self.baseline_user_pks = [user.pk for user in users]
        self.baseline_clients = [
            self._client(self.baseline_app, self._user(created, v).pk, v) for v in self.viewers
        ]

    def close(self) -> None:
        if self.baseline_db is not None:
            self.baseline_db.database.close()
        self.baseline_db = self.baseline_app = self.baseline_clients = None
        super().close()

    def pair(self, op: Op) -> Optional[float]:
        if op.kind == "paper_page":
            path = f"/paper/{self.baseline_paper_pks[op.target]}"
        elif op.kind == "user_page":
            path = f"/user/{self.baseline_user_pks[op.target]}"
        else:
            path = self._page_path(op)
        client = self.baseline_clients[op.viewer]
        started = time.perf_counter()
        response = client.get(path)
        seconds = time.perf_counter() - started
        if response.status != 200:
            raise Failure([f"baseline {path} returned status {response.status}"], leak=False)
        return seconds


class ConfChurn(_ConfWorkload):
    """Detail pages beside review and paper writes, with the caches on."""

    name = "conf-churn"
    papers = 128
    cache_config = CacheConfig()
    trace_ops = 250
    #: each window replays the next 250 operations from the seeded state,
    #: so reviews do not pile up on the hot papers as a run goes on.
    window_ops = 250
    setups = 3
    ZIPF = 1.2
    BLOCK = (("paper_page", 14), ("user_page", 6), ("review", 4), ("submit", 1))
    METRIC_KIND = {"review": "write", "submit": "write"}

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        pc = [i for i, v in enumerate(self.viewers) if v.level == "pc"]
        authors = [i for i, v in enumerate(self.viewers) if v.level == "normal"]
        everyone = list(range(len(self.viewers)))
        paper = _zipf_sampler(self.rng, self.papers, self.ZIPF)
        user = _zipf_sampler(self.rng, len(self.user_names), self.ZIPF)
        self.schedule = _block_schedule(
            self.rng, self.BLOCK, 200,
            {"paper_page": everyone, "user_page": everyone, "review": pc, "submit": authors},
            {"paper_page": paper, "user_page": user, "review": paper, "submit": lambda r: 0},
        )


class FormBulk:
    """FORM calls over 10k users on the memory engine, no web layer."""

    name = "form-bulk"
    records = 10000
    trace_ops = 30
    setups = 3
    window_ops = 0
    KINDS = ("bulk_fetch", "bulk_count", "bulk_update")

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.seed_value = seed
        author = rng.randrange(self.records)
        member = rng.randrange(4)
        self.viewers = [
            Viewer(f"author{author}", "normal", author),
            Viewer(f"pc{member}", "pc", member),
            Viewer("chair", "chair"),
        ]
        rotation = list(range(3))
        rng.shuffle(rotation)
        self.schedule = [
            Op(kind, rotation[iteration % 3], iteration, len(self.KINDS) * iteration + k)
            for iteration in range(1000)
            for k, kind in enumerate(self.KINDS)
        ]
        self.form = None
        self.affiliation: Optional[str] = None

    def metric_kind(self, op: Op) -> str:
        return op.kind

    def build(self) -> None:
        _clear_compiled_policies()
        self.form = setup_conf(cache_config=CacheConfig.disabled())
        created = seed_conference(self.form, papers=self.records, users=self.records)
        self.total_users = 1 + 4 + self.records
        self.viewer_users = [_ConfWorkload._user(created, v) for v in self.viewers]
        self.affiliation = None

    def backends(self) -> List[Any]:
        return [self.form.database.backend]

    def apps(self) -> List[Any]:
        return []

    def cache_stats(self) -> Dict[str, Dict[str, Any]]:
        return self.form.caches.stats()

    def close(self) -> None:
        if self.form is not None:
            self.form.database.close()
        self.form = None
        self.viewer_users = []

    def request(self, op: Op) -> tuple:
        """Perform one FORM call; a fetch is checked here, inside its viewer
        context, and returns the oracle's problems instead of the rows."""
        with use_form(self.form), viewer_context(self.viewer_users[op.viewer]):
            if op.kind == "bulk_fetch":
                started = time.perf_counter()
                result = ConfUser.objects.all().fetch()
                seconds = time.perf_counter() - started
                result = oracle.check_bulk_fetch(
                    result, self.viewers[op.viewer], self.total_users, self.affiliation
                )
            elif op.kind == "bulk_count":
                started = time.perf_counter()
                result = ConfUser.objects.all().count()
                seconds = time.perf_counter() - started
            else:
                value = f"Affiliation {self.seed_value}-{op.target}"
                started = time.perf_counter()
                result = ConfUser.objects.filter(level="normal").update(affiliation=value)
                seconds = time.perf_counter() - started
                self.affiliation = value
        return seconds, result

    def check(self, op: Op, result: Any) -> None:
        if op.kind == "bulk_fetch":
            problems = result
        elif op.kind == "bulk_count":
            problems = [] if result == self.total_users else [
                f"count() returned {result!r}, expected {self.total_users}"
            ]
        else:
            problems = [] if isinstance(result, int) and result > 0 else [
                f"update() returned {result!r}"
            ]
        if problems:
            raise Failure(problems, leak=op.kind == "bulk_fetch")

    def pair(self, op: Op) -> Optional[float]:
        return None

    def warm_up(self) -> None:
        """One iteration per viewer; its update sets the affiliation checked next."""
        for viewer in range(3):
            for kind in self.KINDS:
                op = Op(kind, viewer, -1 - viewer, -1)
                self.check(op, self.request(op)[1])


WORKLOADS = {cls.name: cls for cls in (ConfPages, ConfChurn, FormBulk)}
