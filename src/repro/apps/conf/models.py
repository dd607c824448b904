"""Jacqueline models for the conference management system.

Policies (all declared here, next to the data they protect):

* a paper's **author** is visible after the final decision, to the author
  themselves, and to PC members / the chair unless they are conflicted with
  the paper (Figure 7 of the paper);
* a paper's **accepted** bit is visible to the chair at any time and to
  everyone once the conference enters the ``final`` phase;
* a review's **reviewer** identity is visible to PC members and the chair
  only (never to the paper's author);
* a review's **contents and score** are visible to PC members/chair and, once
  the decision is out, to the paper's author;
* a user's **email** is visible to the user themselves and to the chair.

Permissions depend on the conference phase (``submission``, ``review``,
``final``), held in :class:`ConferencePhase`.
"""

from __future__ import annotations

from repro.cache import bump_policy_epoch
from repro.form import (
    BooleanField,
    CharField,
    ForeignKey,
    IntegerField,
    JModel,
    TextField,
    jacqueline,
    label_for,
)


class ConferencePhase:
    """The global stage of the conference; policies consult it at output time."""

    SUBMISSION = "submission"
    REVIEW = "review"
    FINAL = "final"

    current = SUBMISSION

    @classmethod
    def set(cls, phase: str) -> None:
        if phase not in (cls.SUBMISSION, cls.REVIEW, cls.FINAL):
            raise ValueError(f"unknown conference phase {phase!r}")
        cls.current = phase
        # The phase is policy-relevant state living outside the database, so
        # the invalidation bus cannot see it change; bumping the policy
        # epoch makes every batched foreign-key load taken before it stale.
        bump_policy_epoch()

    @classmethod
    def reset(cls) -> None:
        cls.current = cls.SUBMISSION
        bump_policy_epoch()


def _is_committee(user) -> bool:
    """PC members and the chair."""
    return user is not None and getattr(user, "level", None) in ("pc", "chair")


def _is_chair(user) -> bool:
    return user is not None and getattr(user, "level", None) == "chair"


class ConfUser(JModel):
    """A conference user: author, PC member or chair."""

    name = CharField(max_length=128)
    affiliation = CharField(max_length=256)
    email = CharField(max_length=128)
    level = CharField(max_length=16, default="normal")  # normal | pc | chair

    @staticmethod
    def jacqueline_get_public_email(user):
        return "[hidden email]"

    @staticmethod
    @label_for("email")
    @jacqueline
    def jacqueline_restrict_email(user, ctxt):
        """Emails are visible to the user themselves and to the chair."""
        return (ctxt is not None and ctxt == user) or _is_chair(ctxt)


class Paper(JModel):
    """A submitted paper."""

    title = CharField(max_length=256)
    author = ForeignKey(ConfUser)
    accepted = BooleanField(default=False)

    @staticmethod
    def jacqueline_get_public_author(paper):
        return None

    @staticmethod
    @label_for("author")
    @jacqueline
    def jacqueline_restrict_author(paper, ctxt):
        """The Figure 7 policy: anonymous during review, except to the author
        and unconflicted committee members."""
        if ConferencePhase.current == ConferencePhase.FINAL:
            return True
        if paper is None:
            return False
        if PaperPCConflict.objects.get(paper=paper, pc=ctxt) is not None:
            return False
        return (paper.author_id is not None and ctxt is not None and paper.author_id == ctxt.jid) or _is_committee(ctxt)

    @staticmethod
    def jacqueline_get_public_accepted(paper):
        return False

    @staticmethod
    @label_for("accepted")
    @jacqueline
    def jacqueline_restrict_accepted(paper, ctxt):
        """Decisions are visible to the chair, and to everyone once final."""
        return ConferencePhase.current == ConferencePhase.FINAL or _is_chair(ctxt)


class PaperPCConflict(JModel):
    """A conflict of interest between a paper and a PC member."""

    paper = ForeignKey(Paper)
    pc = ForeignKey(ConfUser)


class ReviewAssignment(JModel):
    """An assignment of a paper to a PC member for review."""

    paper = ForeignKey(Paper)
    pc = ForeignKey(ConfUser)


class Review(JModel):
    """A review of a paper."""

    paper = ForeignKey(Paper)
    reviewer = ForeignKey(ConfUser)
    contents = TextField()
    score = IntegerField(default=0)

    @staticmethod
    def jacqueline_get_public_reviewer(review):
        return None

    @staticmethod
    @label_for("reviewer")
    @jacqueline
    def jacqueline_restrict_reviewer(review, ctxt):
        """Reviewer identities stay within the committee."""
        return _is_committee(ctxt)

    @staticmethod
    def jacqueline_get_public_contents(review):
        return "[review not yet available]"

    @staticmethod
    def jacqueline_get_public_score(review):
        return 0

    @staticmethod
    @label_for("contents", "score")
    @jacqueline
    def jacqueline_restrict_contents(review, ctxt):
        """Review bodies are visible to the committee, and to the paper's
        author once the decision is final."""
        if _is_committee(ctxt):
            return True
        if ConferencePhase.current != ConferencePhase.FINAL:
            return False
        paper = Paper.objects.get(jid=review.paper_id)
        return paper is not None and ctxt is not None and paper.author_id == ctxt.jid


CONF_MODELS = [ConfUser, Paper, PaperPCConflict, ReviewAssignment, Review]
