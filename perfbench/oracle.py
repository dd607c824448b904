"""Policy-compliance oracle for the conference pages.

Every check derives what a viewer may see from the known seed structure of
:func:`repro.apps.conf.seed.seed_conference` -- never from FORM code paths:

* ``author{i}`` wrote ``Paper {i}``; paper ``i`` conflicts with PC member
  ``(i + 1) mod pc_members``;
* during the submission phase a paper's author is visible to the author
  themselves and to unconflicted PC members and the chair;
* an email is visible to its owner and to the chair;
* reviewer identities and review bodies are visible to the committee only.

Each check returns a list of problems; an empty list means the response
complied.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

ANONYMOUS = "[anonymous]"
HIDDEN_EMAIL = "[hidden email]"

_PAPER_LINE = re.compile(r"<li>Paper (\d+) — author: (.*?)</li>")
_USER_LINE = re.compile(r"<li>(\w+) \(.*?\) — (.*?)</li>")
_TITLE = re.compile(r"<h1>(.*?)</h1>")
_AUTHOR = re.compile(r"<p>Author: (.*?)</p>")
_EMAIL = re.compile(r"<p>Email: (.*?)</p>")


@dataclass(frozen=True)
class Viewer:
    """A logged-in viewer: ``level`` is normal, pc or chair."""

    name: str
    level: str
    index: int = 0

    @property
    def committee(self) -> bool:
        return self.level in ("pc", "chair")


@dataclass(frozen=True)
class Seed:
    papers: int
    users: int
    pc_members: int

    def author_visible(self, paper: int, viewer: Viewer) -> bool:
        if viewer.level == "chair":
            return True
        if viewer.level == "pc":
            return (paper + 1) % self.pc_members != viewer.index
        return paper % self.users == viewer.index

    def author_text(self, paper: int, viewer: Viewer) -> str:
        if self.author_visible(paper, viewer):
            return f"author{paper % self.users}"
        return ANONYMOUS


def email_text(owner: str, viewer: Viewer) -> str:
    if viewer.level == "chair" or owner == viewer.name:
        return f"{owner}@conf.org"
    return HIDDEN_EMAIL


def check_papers_page(body: str, seed: Seed, viewer: Viewer) -> List[str]:
    lines = _PAPER_LINE.findall(body)
    problems = []
    if len(lines) != seed.papers:
        problems.append(f"/papers lists {len(lines)} papers, expected {seed.papers}")
    for index_text, shown in lines:
        expected = seed.author_text(int(index_text), viewer)
        if shown != expected:
            problems.append(
                f"/papers shows author {shown!r} of Paper {index_text} to "
                f"{viewer.name}, expected {expected!r}"
            )
    return problems


def check_users_page(body: str, seed: Seed, viewer: Viewer) -> List[str]:
    lines = _USER_LINE.findall(body)
    problems = []
    expected_count = 1 + seed.pc_members + seed.users
    if len(lines) != expected_count:
        problems.append(f"/users lists {len(lines)} users, expected {expected_count}")
    for owner, shown in lines:
        expected = email_text(owner, viewer)
        if shown != expected:
            problems.append(
                f"/users shows email {shown!r} of {owner} to {viewer.name}, "
                f"expected {expected!r}"
            )
    return problems


def check_paper_page(
    body: str, seed: Seed, viewer: Viewer, paper: int, reviews: int
) -> List[str]:
    """A single-paper page listing exactly ``reviews`` reviews."""
    problems = []
    title = _TITLE.search(body)
    if title is None or title.group(1) != f"Paper {paper}":
        problems.append(f"/paper page of Paper {paper} has title {title and title.group(1)!r}")
    author = _AUTHOR.search(body)
    expected = seed.author_text(paper, viewer)
    if author is None or author.group(1) != expected:
        problems.append(
            f"/paper page of Paper {paper} shows author "
            f"{author and author.group(1)!r} to {viewer.name}, expected {expected!r}"
        )
    listed = body.count("<li>score ")
    if listed != reviews:
        problems.append(f"/paper page of Paper {paper} lists {listed} reviews, expected {reviews}")
    if viewer.committee:
        if "(by [anonymous reviewer])" in body:
            problems.append(f"reviewer hidden from committee member {viewer.name}")
    elif "(by pc" in body or "(by chair" in body or listed != body.count(
        "[review not yet available]"
    ):
        problems.append(f"review leaked to {viewer.name} on Paper {paper}")
    return problems


def check_user_page(body: str, viewer: Viewer, owner: str) -> List[str]:
    title = _TITLE.search(body)
    email = _EMAIL.search(body)
    problems = []
    if title is None or title.group(1) != owner:
        problems.append(f"/user page of {owner} has title {title and title.group(1)!r}")
    expected = email_text(owner, viewer)
    if email is None or email.group(1) != expected:
        problems.append(
            f"/user page of {owner} shows email {email and email.group(1)!r} "
            f"to {viewer.name}, expected {expected!r}"
        )
    return problems


def check_bulk_fetch(
    users: list, viewer: Viewer, expected_count: int, affiliation: Optional[str]
) -> List[str]:
    """A viewer-context ``ConfUser`` fetch of the whole table.

    Emails follow the email policy and every author carries the affiliation
    the latest bulk ``update()`` wrote (``None``: no update ran yet).
    """
    problems = []
    if len(users) != expected_count:
        problems.append(f"fetch returned {len(users)} users, expected {expected_count}")
    for user in users:
        if user.email != email_text(user.name, viewer):
            problems.append(f"fetch shows email {user.email!r} of {user.name} to {viewer.name}")
            break
        if affiliation is not None and user.level == "normal" and user.affiliation != affiliation:
            problems.append(
                f"fetch shows affiliation {user.affiliation!r} of {user.name}, "
                f"expected {affiliation!r}"
            )
            break
    return problems
