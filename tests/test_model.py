import copy
import datetime
import math
import pickle
import random

import pytest

from qrakit.errors import EmptyGroup, UnknownMeasurand, UnknownObject
from qrakit.io import bundled_paper_dataset
from qrakit.model import (
    ConditionSchema,
    ConditionValue,
    Measurand,
    Measurement,
    ObjectRef,
    QraDataset,
    UNKNOWN,
    default_condition_schema,
    group,
    known,
    make_measurement,
)


@pytest.fixture(scope="module")
def fixture_dataset():
    return bundled_paper_dataset()


class TestDefaultConditionSchema:
    def test_seven_conditions_in_order(self):
        schema = default_condition_schema()
        assert schema.names == (
            "system_code",
            "compile_training_info",
            "method_specification",
            "implementation",
            "procedure",
            "test_set",
            "performed_by",
        )

    def test_category_counts(self):
        schema = default_condition_schema()
        categories = [c for _, c in schema.conditions]
        assert categories.count("object_condition") == 2
        assert categories.count("measurement_method") == 2
        assert categories.count("measurement_procedure") == 3

    def test_first_entry_is_system_code(self):
        schema = default_condition_schema()
        assert schema.conditions[0] == ("system_code", "object_condition")

    def test_deterministic(self):
        assert default_condition_schema() == default_condition_schema()

    def test_names_are_built_once(self):
        schema = default_condition_schema()
        assert schema.names is schema.names
        assert make_measurement("A", "M", 1.0, schema=schema).names is schema.names
        assert ConditionSchema._fields == ("conditions",)
        assert schema == (schema.conditions,)

    def test_names_cannot_be_set(self):
        schema = default_condition_schema()
        with pytest.raises(AttributeError):
            schema.names = ("a",)
        with pytest.raises(AttributeError):
            del schema.names
        assert schema.names == tuple(name for name, _ in schema.conditions)

    def test_a_list_is_frozen_to_a_tuple_of_pairs(self):
        built = ConditionSchema([["a", "object_condition"], ("b", "measurement_method")])
        conditions = (("a", "object_condition"), ("b", "measurement_method"))
        assert built.conditions == conditions and type(built.conditions) is tuple
        assert all(type(pair) is tuple for pair in built.conditions)
        schema = ConditionSchema(conditions)
        assert built == schema and hash(built) == hash(schema)
        assert hash(QraDataset(built, (), ())) == hash(QraDataset(schema, (), ()))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ConditionSchema(conditions=(
                ("a", "object_condition"), ("a", "measurement_method"),
            ))

    @pytest.mark.parametrize("name, error, message", [
        (5, TypeError, "condition name must be a string, not int"),
        (["a"], TypeError, "condition name must be a string, not list"),
        (None, TypeError, "condition name must be a string, not NoneType"),
        ("", ValueError, "condition name must be non-empty"),
    ])
    def test_name_must_be_a_non_empty_string(self, name, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            ConditionSchema(conditions=(("ok", "object_condition"),
                                        (name, "measurement_method")))

    @pytest.mark.parametrize("name, error", [(5, TypeError), (None, TypeError),
                                             ("", ValueError)])
    def test_schemaless_measurement_names_must_be_non_empty_strings(self, name, error):
        with pytest.raises(error, match="^condition name must be "):
            make_measurement("A", "m", 1.0, conditions={"ok": "x", name: "y"})


class TestConditionValue:
    def test_known_matches_equal_label(self):
        assert known("x").matches(known("x"))
        assert not known("x").matches(known("y"))

    def test_unknown_matches_nothing(self):
        assert not UNKNOWN.matches(UNKNOWN)
        assert not UNKNOWN.matches(known("x"))
        assert not known("x").matches(UNKNOWN)

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            ConditionValue("")

    def test_a_value_wraps_as_itself(self):
        wrapped = ConditionValue(known("x"))
        assert wrapped == known("x") and repr(wrapped) == "ConditionValue(label='x')"
        assert wrapped.matches(known("x"))
        assert ConditionValue(UNKNOWN) == UNKNOWN
        m = make_measurement("A", "M", 1.0, {"a": wrapped})
        assert m.labels == ("x",)

    def test_label_is_interned(self):
        assert ConditionValue("".join(["w", "mt"])).label is known("wmt").label

    def test_non_string_label_rejected(self):
        with pytest.raises(TypeError, match="^condition label must be a string or null, "
                                            "not int$"):
            ConditionValue(5)


class TestSharedCells:
    def test_equal_labels_share_one_value(self):
        schema = default_condition_schema()
        a = make_measurement("a", "x", 1.0, {"test_set": "wmt", "procedure": "p"},
                             schema=schema)
        b = make_measurement("b", "y", 2.0, {"test_set": "".join(["w", "mt"]),
                                             "procedure": ""}, schema=schema)
        assert a.names is b.names is schema.names
        assert a.label("test_set") is b.label("test_set")
        assert a.labels[5] is b.labels[5]
        assert b.label("procedure") is None and b.condition("procedure") is UNKNOWN
        assert a.condition("system_code") is UNKNOWN

    def test_passed_in_value_is_used_as_is(self):
        mine = ConditionValue("wmt")
        m = make_measurement("a", "x", 1.0, {"test_set": mine, "procedure": UNKNOWN},
                             schema=default_condition_schema())
        assert m.condition("test_set") == mine and m.label("test_set") == "wmt"
        assert m.label("procedure") is None

    def test_label_agrees_with_condition(self):
        m = Measurement("a", "x", 1.0, ("b", "a", "b"), ("first", None, "second"))
        assert (m.label("a"), m.label("b"), m.label("c")) == (None, "first", None)
        assert m.labels_in(("c", "b", "a")) == (None, "first", None)
        assert m.labels_in(("b", "a", "b")) is m.labels
        assert [m.condition(name) for name in "abc"] == [UNKNOWN, known("first"), UNKNOWN]


class TestIds:
    def test_object_id_must_be_a_string(self):
        with pytest.raises(TypeError, match="object id must be a string"):
            ObjectRef(id=5, display_name="five")
        with pytest.raises(ValueError, match="object id must be non-empty"):
            ObjectRef(id="", display_name="none")

    def test_measurand_id_must_be_a_string(self):
        with pytest.raises(TypeError, match="measurand id must be a string"):
            Measurand(id=["x"], display_name="x", unit="")

    def test_measurement_ids_must_be_strings(self):
        with pytest.raises(TypeError, match="object id must be a string"):
            make_measurement(["A"], "m", 1.0)
        with pytest.raises(TypeError, match="measurand id must be a string"):
            make_measurement("A", 7, 1.0)
        with pytest.raises(ValueError, match="object id must be non-empty"):
            make_measurement("", "m", 1.0)


class TestRowRule:
    @pytest.mark.parametrize("value", ["5", True, False])
    def test_value_must_be_a_number(self, value):
        with pytest.raises(TypeError, match=f"^value must be a number, not "
                                            f"{type(value).__name__}$"):
            make_measurement("A", "M", value)

    def test_numpy_numbers_load_as_floats(self):
        np = pytest.importorskip("numpy")
        for value in (np.int64(5), np.float32(2.5), 7):
            m = make_measurement("A", "M", value)
            assert type(m.value) is float and m.value == float(value)

    def test_source_is_a_string_or_none(self):
        assert make_measurement("A", "M", 1.0, source=None).source == ""
        with pytest.raises(TypeError, match="^source must be a string or null, not int$"):
            make_measurement("A", "M", 1.0, source=5)

    def test_timestamp_is_a_date_or_none(self):
        day = datetime.date(2022, 5, 1)
        assert make_measurement("A", "M", 1.0, timestamp=day).timestamp == day
        with pytest.raises(TypeError, match="^timestamp must be a date or None, not str$"):
            make_measurement("A", "M", 1.0, timestamp="2022-05-01")

    def test_timestamp_is_not_a_datetime(self):
        moment = datetime.datetime(2020, 1, 1, 12)
        row = make_measurement("A", "M", 1.0)
        for build in (lambda: Measurement("A", "M", 1.0, (), (), "", moment),
                      lambda: Measurement._make((*row[:6], moment)),
                      lambda: row._replace(timestamp=moment),
                      lambda: make_measurement("A", "M", 1.0, timestamp=moment)):
            with pytest.raises(TypeError,
                               match="^timestamp must be a date or None, not datetime$"):
                build()


class TestDeclarationFields:
    @pytest.mark.parametrize("fields, message", [
        ({"unit": 5}, "unit must be a string, not int"),
        ({"display_name": None}, "display_name must be a string, not NoneType"),
        ({"scale_min": True}, "scale_min must be a number, not bool"),
        ({"scale_min": "0"}, "scale_min must be a number, not str"),
        ({"scale_max": "10"}, "scale_max must be a number, not str"),
    ])
    def test_measurand_fields(self, fields, message):
        with pytest.raises(TypeError, match=f"^measurand 'M': {message}$"):
            Measurand(**{"id": "M", "display_name": "M", "unit": "", **fields})

    def test_integer_bounds_become_floats(self):
        m = Measurand("M", "M", "", scale_min=1, scale_max=7)
        assert (type(m.scale_min), type(m.scale_max)) == (float, float)
        assert m._replace(scale_max=None).scale_max is None

    @pytest.mark.parametrize("fields, message", [
        ({"display_name": [1]}, "display_name must be a string, not list"),
        ({"description": 5}, "description must be a string or null, not int"),
    ])
    def test_object_fields(self, fields, message):
        with pytest.raises(TypeError, match=f"^object 'A': {message}$"):
            ObjectRef(**{"id": "A", "display_name": "A", **fields})

    def test_object_description_may_be_none_or_text(self):
        assert ObjectRef("A", "A").description is None
        assert ObjectRef("A", "", "a system").description == "a system"


class TestMeasurand:
    def test_scale_max_must_exceed_min(self):
        with pytest.raises(ValueError):
            Measurand("m", "m", "score", scale_min=5.0, scale_max=5.0)

    def test_scale_min_defaults_to_zero(self):
        assert Measurand("m", "m", "score").scale_min == 0.0

    @pytest.mark.parametrize("bounds, message", [
        ({"scale_min": -math.inf}, "scale_min must be finite, not -inf"),
        ({"scale_min": math.nan, "scale_max": 1.0}, "scale_min must be finite, not nan"),
        ({"scale_max": math.inf}, "scale_max must be finite, not inf"),
        ({"scale_max": math.nan}, "scale_max must be finite, not nan"),
    ])
    def test_bounds_must_be_finite(self, bounds, message):
        with pytest.raises(ValueError, match=f"^measurand 'm': {message}$"):
            Measurand("m", "m", "score", **bounds)


class TestGroup:
    def test_pass_clarity_pair(self, fixture_dataset):
        members = group(fixture_dataset, "PASS", "Clarity")
        assert [m.value for m in members] == [5.64, 6.30]

    def test_nts_def_bleu_size(self, fixture_dataset):
        assert len(group(fixture_dataset, "NTS_def", "BLEU")) == 7

    def test_missing_pairing_raises(self, fixture_dataset):
        with pytest.raises(EmptyGroup):
            group(fixture_dataset, "PASS", "BLEU")

    def test_undeclared_ids_raise(self, fixture_dataset):
        with pytest.raises(UnknownObject):
            group(fixture_dataset, "nope", "BLEU")
        with pytest.raises(UnknownMeasurand):
            group(fixture_dataset, "PASS", "nope")


class TestFixtureShape:
    def test_totals(self, fixture_dataset):
        assert len(fixture_dataset.measurements) == 116
        assert len(fixture_dataset.pairs()) == 18
        total = sum(len(group(fixture_dataset, o, m))
                    for o, m in fixture_dataset.pairs())
        assert total == 116

    def test_every_condition_present(self, fixture_dataset):
        names = set(fixture_dataset.schema.names)
        for m in fixture_dataset.measurements:
            assert m.names is fixture_dataset.schema.names
            assert len(m.labels) == len(names)


def rows(*specs):
    """Measurements from (object, measurand, value) triples."""
    schema = default_condition_schema()
    return tuple(make_measurement(o, m, v, schema=schema) for o, m, v in specs)


def dataset(measurements, objects=("a", "b"), measurands=("x", "y")):
    return QraDataset(
        schema=default_condition_schema(),
        objects=tuple(ObjectRef(o, o) for o in objects),
        measurands=tuple(Measurand(m, m, "score") for m in measurands),
        measurements=measurements,
    )


class TestIndex:
    def test_pairs_keep_first_appearance_order_on_shuffled_rows(self, fixture_dataset):
        members = list(fixture_dataset.measurements)
        random.Random(3).shuffle(members)
        shuffled = fixture_dataset._replace(measurements=tuple(members))
        expected = list(dict.fromkeys((m.object, m.measurand) for m in members))
        assert shuffled.pairs() == expected
        assert sorted(shuffled.pairs()) == sorted(fixture_dataset.pairs())

    def test_group_keeps_dataset_order(self):
        ds = dataset(rows(("a", "x", 3.0), ("b", "x", 9.0), ("a", "x", 1.0),
                          ("a", "y", 5.0), ("a", "x", 2.0)))
        assert [m.value for m in group(ds, "a", "x")] == [3.0, 1.0, 2.0]
        assert ds.pairs() == [("a", "x"), ("b", "x"), ("a", "y")]

    def test_group_result_does_not_alias_the_index(self):
        ds = dataset(rows(("a", "x", 1.0), ("a", "x", 2.0)))
        group(ds, "a", "x").clear()
        assert len(group(ds, "a", "x")) == 2

    def test_first_declaration_wins_on_duplicate_id(self):
        ds = QraDataset(
            schema=default_condition_schema(),
            objects=(ObjectRef("a", "first"), ObjectRef("a", "second")),
            measurands=(Measurand("x", "first", "score"),
                        Measurand("x", "second", "score")),
        )
        assert ds.object_by_id("a").display_name == "first"
        assert ds.measurand_by_id("x").display_name == "first"

    def test_replace_sees_new_groups(self):
        ds = dataset(rows(("a", "x", 1.0), ("a", "x", 2.0)))
        assert ds.pairs() == [("a", "x")]  # builds the index
        other = ds._replace(measurements=rows(("b", "y", 4.0)))
        assert other.pairs() == [("b", "y")]
        assert [m.value for m in group(other, "b", "y")] == [4.0]
        with pytest.raises(EmptyGroup):
            group(other, "a", "x")

    def test_equality_hash_and_repr_ignore_the_index(self):
        built = dataset(rows(("a", "x", 1.0), ("a", "x", 2.0)))
        fresh = dataset(rows(("a", "x", 1.0), ("a", "x", 2.0)))
        before = (hash(built), repr(built))
        built.pairs()
        assert "index" in vars(built) and "index" not in vars(fresh)
        assert built == fresh and built == tuple(built)
        assert (hash(built), repr(built)) == before == (hash(fresh), repr(fresh))
        assert repr(built).startswith("QraDataset(schema=ConditionSchema(")
        assert "index" not in repr(built)

    def test_lists_are_stored_as_tuples(self):
        members = list(rows(("a", "x", 1.0), ("a", "x", 2.0)))
        built = QraDataset(default_condition_schema(), [ObjectRef("a", "a")],
                           [Measurand("x", "x", "score")], members)
        frozen = dataset(tuple(members), objects=("a",), measurands=("x",))
        assert built == frozen and hash(built) == hash(frozen)
        assert all(type(getattr(built, name)) is tuple
                   for name in ("objects", "measurands", "measurements"))
        members.append(rows(("a", "y", 3.0))[0])
        assert len(built.measurements) == 2 and built.pairs() == [("a", "x")]

    def test_replace_builds_a_fresh_index(self):
        ds = dataset(rows(("a", "x", 1.0), ("a", "x", 2.0)))
        ds.pairs()
        other = ds._replace()
        assert other == ds and other is not ds
        assert "index" not in vars(other)
        assert other.index is not ds.index and other.index == ds.index
        with pytest.raises(ValueError):
            ds._replace(index=None)

    @pytest.mark.parametrize("name", ["schema", "measurements", "index", "other"])
    def test_fields_cannot_be_set_or_deleted(self, name):
        ds = dataset(rows(("a", "x", 1.0), ("a", "x", 2.0)))
        ds.pairs()
        with pytest.raises(AttributeError):
            setattr(ds, name, ())
        with pytest.raises(AttributeError):
            delattr(ds, name)
        assert ds.pairs() == [("a", "x")]

    @pytest.mark.parametrize("copier", [lambda ds: pickle.loads(pickle.dumps(ds)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_are_equal(self, fixture_dataset, copier):
        fixture_dataset.pairs()  # builds the index, which a copy does not carry
        copied = copier(fixture_dataset)
        assert copied == fixture_dataset and copied is not fixture_dataset
        assert "index" not in vars(copied)
        assert hash(copied) == hash(fixture_dataset)
        assert copied.pairs() == fixture_dataset.pairs()
        # measurements still share the schema's names, which validation relies on
        assert all(m.names is copied.schema.names for m in copied.measurements)

    def test_match_args(self):
        ds = dataset(rows(("a", "x", 1.0)))
        match ds:
            case QraDataset(schema, objects, measurands, measurements):
                assert (schema, objects, measurands, measurements) == (
                    ds.schema, ds.objects, ds.measurands, ds.measurements)
            case _:
                pytest.fail("a dataset matches by its four fields")
