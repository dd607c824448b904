"""The Faceted Object-Relational Mapping (FORM).

The FORM stores faceted values in ordinary relational tables by augmenting
every model's table with two meta-data columns (Section 3.1):

* ``jid``   -- a facet identifier shared by all database rows that encode the
  facets of one logical record;
* ``jvars`` -- a comma-separated description of which facet a row belongs to,
  e.g. ``"k1=True,k2=False"`` (the empty string means the row is visible in
  every context).

Programmers declare models exactly as with Django, plus:

* ``@label_for("field", ...)`` marks a static method as the policy guarding
  one or more fields;
* ``jacqueline_get_public_<field>`` static methods compute the public facet
  of a sensitive field.

Queries issue ordinary relational operations over the augmented tables and
reconstruct facets from the meta-data on the way out; foreign keys reference
the target's ``jid``.  The Early Pruning optimisation keeps only the facet
rows visible to a known viewer (Section 3.2).

Writes are set-oriented too: each one is a single faceted-aware SQL
statement where the facet encoding allows it (creates included, under a
path condition too) and one batched facet rewrite where it does not -- the
decision, the rewrite and the pc-guard algebra live in
:mod:`repro.form.writes`.
"""

from repro.cache import CacheConfig
from repro.form.aggregates import (
    ColumnStats,
    merge_stats,
    visible_value,
)
from repro.form.fields import (
    BooleanField,
    CharField,
    DateTimeField,
    Field,
    FloatField,
    ForeignKey,
    IntegerField,
    TextField,
)
from repro.form.policies import jacqueline, label_for
from repro.form.model import JModel, ModelOptions
from repro.form.manager import DoesNotExist, Manager, QuerySet
from repro.form.context import (
    FORM,
    current_form,
    current_viewer,
    set_default_form,
    set_form,
    use_form,
    viewer_context,
)
from repro.form.marshal import format_jvars, parse_jvars
from repro.form.migrations import add_metadata_columns, migrate_legacy_rows

__all__ = [
    "CacheConfig",
    "ColumnStats",
    "merge_stats",
    "visible_value",
    "Field",
    "CharField",
    "TextField",
    "IntegerField",
    "FloatField",
    "BooleanField",
    "DateTimeField",
    "ForeignKey",
    "label_for",
    "jacqueline",
    "JModel",
    "ModelOptions",
    "Manager",
    "QuerySet",
    "DoesNotExist",
    "FORM",
    "use_form",
    "set_form",
    "set_default_form",
    "current_form",
    "viewer_context",
    "current_viewer",
    "parse_jvars",
    "format_jvars",
    "add_metadata_columns",
    "migrate_legacy_rows",
]
