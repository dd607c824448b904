"""Unit tests for read-set inference (repro.analysis.readsets)."""

from repro import obs
from repro.analysis.facts import facts_for_model, facts_for_source
from repro.analysis.readsets import (
    infer_method_reads,
    model_read_sets,
    public_read_columns,
    public_read_columns_for_model,
)


def _model(source):
    return facts_for_source(source, "m.py").models[0]


def _reads(source, method):
    model = _model(source)
    return infer_method_reads(model.methods[method], model)


DOC = '''
class Doc(JModel):
    title = CharField()
    priority = IntegerField()
    author = ForeignKey("User")

    def constant(self):
        return "[redacted]"

    def direct(self):
        return self.title

    def fk(self):
        return self.author_id

    def fk_attr(self):
        return self.author

    def fk_chain(self):
        return self.author.level

    def via_getattr(self):
        return getattr(self, "priority")

    def dynamic_getattr(self, name):
        return getattr(self, name)

    def identity(self, other):
        return self == other

    def membership(self, seen):
        return self in seen

    def query(self):
        return Doc.objects.get(author=self)

    def helper_call(self):
        return prefix(self)

    def method_call(self):
        return self.direct()

    def aliased(self):
        row = self
        return row.priority

    def escapes(self):
        return len(str(self))

    def bare(self):
        return self

    def loops(self):
        return self.loops_back()

    def loops_back(self):
        return self.loops()


def prefix(doc):
    return "doc: " + doc.title
'''


def test_constant_method_reads_nothing():
    assert _reads(DOC, "constant").report() == []


def test_direct_attribute_reads_its_column():
    assert _reads(DOC, "direct").report() == ["title"]


def test_foreign_key_reads_the_id_column():
    assert _reads(DOC, "fk").report() == ["author_id"]
    assert _reads(DOC, "fk_attr").report() == ["author_id"]


def test_foreign_key_chain_is_cross_record():
    reads = _reads(DOC, "fk_chain")
    assert reads.report() == ["author_id"]
    assert reads.cross_record


def test_constant_getattr_resolves():
    assert _reads(DOC, "via_getattr").report() == ["priority"]


def test_dynamic_getattr_is_top():
    reads = _reads(DOC, "dynamic_getattr")
    assert reads.top
    assert "getattr" in reads.top_reason


def test_identity_comparisons_read_jid():
    assert _reads(DOC, "identity").report() == ["jid"]
    assert _reads(DOC, "membership").report() == ["jid"]


def test_row_as_orm_filter_value_reads_jid_cross_record():
    reads = _reads(DOC, "query")
    assert reads.report() == ["jid"]
    assert reads.cross_record


def test_module_helper_is_inlined():
    assert _reads(DOC, "helper_call").report() == ["title"]


def test_same_class_method_call_is_inlined():
    assert _reads(DOC, "method_call").report() == ["title"]


def test_simple_aliases_are_tracked():
    assert _reads(DOC, "aliased").report() == ["priority"]


def test_row_escaping_into_unknown_call_is_top():
    reads = _reads(DOC, "escapes")
    assert reads.top
    assert "escapes" in reads.top_reason


def test_bare_row_use_is_top():
    assert _reads(DOC, "bare").top


def test_mutual_recursion_terminates():
    # Recursive helpers stop at the cycle; the result is the sound empty
    # set (the cycle body reads nothing but itself).
    assert not _reads(DOC, "loops").top


def test_model_read_sets_cover_public_methods_and_policies():
    model = _model('''
class Memo(JModel):
    title = CharField()
    priority = IntegerField()

    @staticmethod
    def jacqueline_get_public_title(memo):
        return str(memo.priority)

    @staticmethod
    @label_for("title")
    def restrict_title(memo, viewer):
        return viewer == memo
''')
    sets = model_read_sets(model)
    assert sets["jacqueline_get_public_title"].report() == ["priority"]
    # Policies re-evaluate on every read, so nothing consumes their reads.
    assert "restrict_title" not in sets
    assert public_read_columns(model) == frozenset({"priority"})


def test_public_read_columns_top_is_none():
    model = _model('''
class Blob(JModel):
    data = CharField()

    @staticmethod
    def jacqueline_get_public_data(blob):
        return mystery(blob)
''')
    assert public_read_columns(model) is None


def test_live_model_entry_point_matches_static_inference():
    from repro.form import CharField, IntegerField, JModel

    class Ticket(JModel):
        subject = CharField(max_length=64)
        severity = IntegerField(default=0)

        @staticmethod
        def jacqueline_get_public_subject(ticket):
            return f"sev-{ticket.severity} ticket"

    assert public_read_columns_for_model(Ticket) == frozenset({"severity"})


def test_live_entry_point_never_raises():
    # A class with no _meta at all: inference fails, TOP (None) comes back,
    # counted under its reason.
    class NotAModel:
        pass

    before = obs.totals.get("analysis.read_set.failed")
    with obs.tracing():
        assert public_read_columns_for_model(NotAModel) is None
    assert obs.totals.get("analysis.read_set.failed") == before + 1


def test_unresolvable_foreign_key_target_is_counted():
    from repro.form import ForeignKey, JModel

    class Pin(JModel):
        board = ForeignKey("NoSuchBoard")

    before = obs.totals.get("analysis.facts.fk_target_unresolved")
    with obs.tracing():
        facts = facts_for_model(Pin)
    assert facts.fields["board"].fk_target is None
    assert facts.fields["board"].column == "board_id"
    assert obs.totals.get("analysis.facts.fk_target_unresolved") == before + 1
