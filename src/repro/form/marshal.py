"""Marshalling between faceted values and jid/jvars-augmented rows.

One logical record maps to several database rows sharing a ``jid``; the
``jvars`` column records which label assignment each row belongs to
(``"k1=True,k2=False"``; the empty string means "all assignments").  These
helpers parse and format ``jvars`` and rebuild faceted values from groups of
annotated rows -- the unmarshalling step that makes plain relational queries
faceted-correct (Section 3.1.1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.facets import UNASSIGNED, mk_facet

#: A branch assignment as stored in jvars: (label name, polarity).
JvarBranch = Tuple[str, bool]


def format_jvars(branches: Iterable[JvarBranch]) -> str:
    """Render branches as the canonical jvars string (sorted by label name)."""
    parts = [f"{name}={'True' if polarity else 'False'}" for name, polarity in sorted(branches)]
    return ",".join(parts)


def parse_jvars(text: Optional[str]) -> Tuple[JvarBranch, ...]:
    """Parse a jvars string back into branches (empty string → no branches)."""
    if not text:
        return ()
    branches: List[JvarBranch] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed jvars entry {part!r}")
        name, _, value = part.partition("=")
        branches.append((name.strip(), value.strip() == "True"))
    return tuple(branches)


def label_name_for(table: str, jid: int, group_key: str) -> str:
    """The deterministic label name guarding one policy group of one record.

    Determinism lets the FORM re-create the same label every time the
    record is unmarshalled, regardless of which query produced it, and find
    its policy again from the name alone
    (:func:`repro.form.manager.form_label`).
    """
    return f"{table}.{jid}.{group_key}"


def branches_consistent_with(
    branches: Sequence[JvarBranch], fixed: Dict[str, bool]
) -> bool:
    """True if no branch contradicts the partial assignment ``fixed``."""
    for name, polarity in branches:
        if name in fixed and fixed[name] != polarity:
            return False
    return True


def build_faceted_record(entries: Sequence[Tuple[Tuple[JvarBranch, ...], Any]]) -> Any:
    """Rebuild one logical record from its facet rows.

    ``entries`` holds ``(branches, payload)`` pairs for a single jid.  The
    result is a faceted value selecting the payload whose branches match the
    viewer's label assignment; assignments not covered by any row resolve to
    :data:`UNASSIGNED`.
    """
    return _build(list(entries), {}, collection=False)


def build_faceted_collection(entries: Sequence[Tuple[Tuple[JvarBranch, ...], Any]]) -> Any:
    """Rebuild a query result list from facet rows of many records.

    The result is a faceted value whose leaves are plain lists: each label
    assignment sees exactly the payloads whose branches it satisfies.  This
    is the faceted list ``<m ? [carolParty] : []>`` of Section 2.2.
    """
    return _build(list(entries), {}, collection=True)


def _build(
    entries: List[Tuple[Tuple[JvarBranch, ...], Any]],
    fixed: Dict[str, bool],
    collection: bool,
) -> Any:
    live = [
        (branches, payload)
        for branches, payload in entries
        if branches_consistent_with(branches, fixed)
    ]
    remaining = sorted(
        {name for branches, _ in live for name, _pol in branches if name not in fixed}
    )
    if not remaining:
        payloads = [payload for _branches, payload in live]
        if collection:
            return payloads
        if not payloads:
            return UNASSIGNED
        return payloads[0]
    label_name = remaining[0]
    from repro.core.facets import Facet
    from repro.core.labels import Label  # local import to avoid cycles

    label = Label(hint=label_name, name=label_name)
    high = _build(live, {**fixed, label_name: True}, collection)
    low = _build(live, {**fixed, label_name: False}, collection)
    # Build the facet node explicitly rather than through mk_facet: model
    # instances compare equal by jid across facets, which would wrongly
    # collapse the secret and public sides.
    return Facet(label, high, low)


def expand_value_facets(
    values: Dict[str, Any]
) -> List[Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]]:
    """Expand a dict whose values may be faceted into concrete facet rows.

    Returns ``(branches, concrete_values)`` pairs covering every label
    assignment mentioned by the faceted values.  Used when saving an instance
    whose fields were themselves derived from sensitive data.
    """
    from repro.core.facets import Facet

    label_names: List[str] = []
    seen = set()

    def collect(value: Any) -> None:
        if isinstance(value, Facet):
            if value.label.name not in seen:
                seen.add(value.label.name)
                label_names.append(value.label.name)
            collect(value.high)
            collect(value.low)

    for value in values.values():
        collect(value)

    if not label_names:
        return [((), dict(values))]

    results: List[Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]] = []

    def assign(index: int, fixed: Dict[str, bool]) -> None:
        if index == len(label_names):
            concrete = {name: _project(value, fixed) for name, value in values.items()}
            branches = tuple((name, fixed[name]) for name in label_names)
            results.append((branches, concrete))
            return
        name = label_names[index]
        assign(index + 1, {**fixed, name: True})
        assign(index + 1, {**fixed, name: False})

    assign(0, {})
    return merge_rows(results)


def _project(value: Any, fixed: Dict[str, bool]) -> Any:
    from repro.core.facets import Facet

    if isinstance(value, Facet):
        chosen = value.high if fixed.get(value.label.name, False) else value.low
        return _project(chosen, fixed)
    return value


def freeze_values(values: Dict[str, Any]) -> Tuple:
    """A hashable identity for one row's values (dedupe key)."""
    return tuple(sorted((name, repr(value)) for name, value in values.items()))


def merge_rows(
    rows: List[Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]]
) -> List[Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]]:
    """Collapse facet rows whose values do not depend on some label (sharing).

    If flipping a label never changes the projected row, the label is removed
    from the branch annotations, keeping the number of stored rows small --
    the row-sharing optimisation described alongside the faceted-table join.
    """
    if not rows:
        return rows
    label_names = sorted({name for branches, _ in rows for name, _pol in branches})
    significant: List[str] = []
    for name in label_names:
        groups: Dict[Tuple, set] = {}
        for branches, values in rows:
            mapping = dict(branches)
            if name not in mapping:
                continue
            other = tuple(sorted((n, p) for n, p in branches if n != name))
            groups.setdefault(other, set()).add((mapping[name], freeze_values(values)))
        if any(len({frozen for _p, frozen in group}) > 1 for group in groups.values()):
            significant.append(name)
    merged: Dict[Tuple, Tuple[Tuple[JvarBranch, ...], Dict[str, Any]]] = {}
    for branches, values in rows:
        kept = tuple(sorted((n, p) for n, p in branches if n in significant))
        merged.setdefault((kept, freeze_values(values)), (kept, values))
    return list(merged.values())
