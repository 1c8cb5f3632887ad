"""The contract of the exported value types: equality, hash and repr over
their fields, immutability, copying and pickling through the constructor,
keyword construction, and the checks their constructors make."""

import copy
import hashlib
import pickle
from fractions import Fraction as F

import pytest

import dioph6
from dioph6 import (
    INFINITY,
    BadPrimesReport,
    CatalogEntry,
    Curve,
    FamilyPoint,
    PairWitness,
    Point,
    ReductionReport,
    SextupleRecord,
    TripleABC,
    ValuationRow,
    VerificationReport,
    bad_primes_epp,
    catalog_entry,
    classify,
    extend_to_sextuple,
    family_point,
    family_triple,
    mod3_sign_table,
    verify_tuple,
)
from dioph6.exactnum import _Value
from dioph6.identities import StdQuantities, curve_E, curve_Epp, std_quantities

#: Every exported value type with its fields, in constructor order, and
#: the check-only identities.StdQuantities.
FIELDS = {
    Point: ("x", "y"),
    StdQuantities: ("b2", "b4", "b6", "b8", "c4", "delta"),
    Curve: ("a2", "a4", "a6"),
    TripleABC: ("a", "b", "c", "rho_ab", "rho_ac", "rho_bc", "t", "m"),
    PairWitness: ("i", "j", "product_plus_one", "square_root"),
    VerificationReport: ("rows", "nonzero", "distinct"),
    SextupleRecord: ("t", "m", "n", "triple", "d", "e", "f", "report"),
    FamilyPoint: ("t", "a", "b", "c", "d", "e", "f", "negatives", "report"),
    CatalogEntry: ("name", "elements", "source"),
    ReductionReport: ("p", "type", "v_delta", "v_c4", "scaling_exponent"),
    ValuationRow: ("m", "predicted", "observed", "lemma_part"),
    BadPrimesReport: (
        "t", "x", "y", "rows", "candidates", "additive", "prop_applicable", "prop_holds",
    ),
}

#: One instance of each type, built lazily so that collection stays cheap.
EXAMPLES = {
    "Point": lambda: Point(1, F(-2, 3)),
    "INFINITY": lambda: INFINITY,
    "StdQuantities": lambda: std_quantities(curve_E(2)),
    "Curve": lambda: curve_E(2),
    "TripleABC": lambda: family_triple(6),
    "PairWitness": lambda: verify_tuple([1, 3]).pair_results[0],
    "VerificationReport": lambda: verify_tuple([1, 3, 8]),
    "SextupleRecord": lambda: extend_to_sextuple(family_triple(6), 1),
    "FamilyPoint": lambda: family_point(6),
    "CatalogEntry": lambda: catalog_entry("fermat"),
    "ReductionReport": lambda: classify(curve_Epp(31, F(-150072)), 5),
    "ValuationRow": lambda: mod3_sign_table(2, 2)[0],
    "BadPrimesReport": lambda: bad_primes_epp(31, Point(-150072, 682327360)),
}

#: The reprs of EXAMPLES: as the frozen dataclasses printed them, except
#: that the two reports print their rows; the two longest (about 1,800
#: characters each) by their sha256.
REPRS = {
    "Point": "Point(x=Fraction(1, 1), y=Fraction(-2, 3))",
    "INFINITY": "Point(x=None, y=None)",
    "StdQuantities": "StdQuantities(b2=Fraction(-132, 1), b4=Fraction(3750, 1), "
    "b6=Fraction(62500, 1), b8=Fraction(-5578125, 1), c4=Fraction(-72576, 1), "
    "delta=Fraction(-708588000000, 1))",
    "Curve": "Curve(a2=Fraction(-33, 1), a4=Fraction(1875, 1), a6=Fraction(15625, 1))",
    "TripleABC": "TripleABC(a=Fraction(3780, 73), b=Fraction(26645, 252), "
    "c=Fraction(7, 13140), rho_ab=Fraction(74, 1), rho_ac=Fraction(74, 73), "
    "rho_bc=Fraction(37, 36), t=Fraction(6, 1), m=2)",
    "PairWitness": "PairWitness(i=1, j=2, product_plus_one=Fraction(4, 1), "
    "square_root=Fraction(2, 1))",
    "VerificationReport": "VerificationReport(rows=("
    "(1, 2, 4, 1, 2, 1), (1, 3, 9, 1, 3, 1), (2, 3, 25, 1, 5, 1)), "
    "nonzero=True, distinct=True)",
    "SextupleRecord": "sha256:18a8a0488f6dba55092fc1591a18e9a8722b972d437201bfc6bed67f702a061f",
    "FamilyPoint": "sha256:6a3806cdf645751007b8c367609d6890ca824b2cc7f8f924f9083e56ddba1350",
    "CatalogEntry": "CatalogEntry(name='fermat', elements=(Fraction(1, 1), Fraction(3, 1), "
    "Fraction(8, 1), Fraction(120, 1)), source=\"Fermat's integer quadruple\")",
    "ReductionReport": "ReductionReport(p=5, type='mult', v_delta=2, v_c4=0, scaling_exponent=0)",
    "ValuationRow": "ValuationRow(m=1, predicted=-1, observed=-1, "
    "lemma_part='sign v3(x([m][3]R))')",
    "BadPrimesReport": "BadPrimesReport(t=31, x=Fraction(-150072, 1), y=Fraction(682327360, 1), "
    "rows=((3, 'mult', 6, 0, -1), (5, 'mult', 2, 0, 0), (11, 'mult', 2, 0, 0), "
    "(13, 'add', 4, 2, -1), (31, 'add', 8, 3, 0), (37, 'add', 8, 3, -1)), "
    "candidates=(13, 31, 37), additive=(13, 31, 37), prop_applicable=True, prop_holds=True)",
}

examples = pytest.mark.parametrize("name", EXAMPLES)


def _values(value) -> tuple:
    return tuple(getattr(value, field) for field in FIELDS[type(value)])


def test_every_exported_value_type_has_an_example():
    exported = {obj for obj in vars(dioph6).values() if isinstance(obj, type) and issubclass(obj, _Value)}
    assert exported == set(FIELDS) - {StdQuantities}
    assert {type(build()) for build in EXAMPLES.values()} == set(FIELDS)


@examples
def test_eq_hash_repr(name):
    value = EXAMPLES[name]()
    twin = EXAMPLES[name]()
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(_values(value))
    assert value.__eq__(_values(value)) is NotImplemented
    assert value != _values(value)
    text = repr(value)
    if REPRS[name].startswith("sha256:"):
        text = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    assert text == REPRS[name]


def test_equality_is_over_the_fields():
    assert Point(1, 2) == Point(F(1), F(2)) != Point(1, -2)
    assert Curve(1, 2, 3) != Curve(1, 2, 4)
    assert INFINITY == Point() != Point(0, 0)
    assert {Curve(1, 2, 3), Curve(F(1), F(2), F(3))} == {Curve(1, 2, 3)}


@examples
def test_fields_cannot_be_assigned_or_deleted(name):
    value = EXAMPLES[name]()
    for field in FIELDS[type(value)]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@examples
def test_copy_deepcopy_and_pickle_round_trip(name):
    value = EXAMPLES[name]()
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


def test_copies_of_a_curve_keep_working_after_its_invariants_are_cached():
    curve = curve_E(F(9, 8))
    sq = std_quantities(curve)
    for twin in (copy.copy(curve), copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
        assert twin == curve
        assert std_quantities(twin) == sq
        assert twin._cleared == curve._cleared and twin._coeffs == curve._coeffs
        assert twin.contains(Point(0, F(145, 64) ** 3))


@examples
def test_keyword_construction(name):
    value = EXAMPLES[name]()
    fields = FIELDS[type(value)]
    rebuilt = type(value)(**dict(zip(fields, _values(value))))
    assert rebuilt == value and repr(rebuilt) == repr(value)


def test_constructor_defaults_and_coercion():
    assert Point() == INFINITY and Point().is_infinity
    assert Point(x=1, y=F(1, 2)).x == F(1) and type(Point(1, 2).x) is F
    assert Curve(a2=1, a4=2, a6=3).a6 == F(3) and type(Curve(1, 2, 3).a2) is F
    t6 = family_triple(6)
    bare = TripleABC(t6.a, t6.b, t6.c, t6.rho_ab, t6.rho_ac, t6.rho_bc)
    assert (bare.t, bare.m) == (None, None)
    assert TripleABC(*_values(t6)[:6], t=6, m=2) == t6
    assert type(TripleABC(*_values(t6)[:6], t=6).t) is F


def test_constructors_keep_a_fraction_argument():
    """A Fraction argument is stored as the same object; int and str
    arguments become equal Fractions."""
    x, y = F(1, 3), F(-2, 3)
    point = Point(x, y)
    assert point.x is x and point.y is y
    assert Point(1, "-2/3") == Point(F(1), y) and type(Point("1", 2).x) is F

    coeffs = (F(-33), F(1875, 4), F(15625, 16))
    curve = Curve(*coeffs)
    assert all(got is given for got, given in zip(_values(curve), coeffs))
    assert Curve(-33, "1875/4", "15625/16") == curve and type(Curve(-33, 1, 1).a2) is F

    t6 = family_triple(6)
    rats = _values(t6)[:7]
    triple = TripleABC(*rats, m=2)
    assert all(got is given for got, given in zip(_values(triple), rats))
    as_text = [str(q) for q in rats[:6]]
    assert TripleABC(*as_text, t="6", m=2) == t6 == TripleABC(*rats[:6], t=6, m=2)
    assert all(type(q) is F for q in _values(TripleABC(*as_text, t="6"))[:7])


def test_verify_tuple_coerces_its_elements():
    rats = (F(11, 192), F(35, 192), F(155, 27), F(512, 27), F(1235, 48), F(180873, 16))
    report = verify_tuple(rats)
    assert verify_tuple([str(q) for q in rats]) == report and report.all_pass
    fermat = verify_tuple([1, 3, 8, 120])
    assert verify_tuple(["1", "3", "8", "120"]) == fermat == verify_tuple(map(F, (1, 3, 8, 120)))
    assert fermat.all_pass


def test_point_needs_both_coordinates_or_neither():
    for args in ({"x": 1}, {"y": 1}):
        with pytest.raises(ValueError, match="point needs both coordinates or neither"):
            Point(**args)


def test_singular_curve_is_rejected():
    with pytest.raises(ValueError, match="singular curve"):
        Curve(0, 0, 0)


def test_triple_rejects_a_bad_witness():
    t6 = family_triple(6)
    with pytest.raises(ValueError, match="witness 75 does not square"):
        TripleABC(t6.a, t6.b, t6.c, t6.rho_ab + 1, t6.rho_ac, t6.rho_bc, t=6, m=2)
    with pytest.raises(ValueError, match="nonzero"):
        TripleABC(0, t6.b, t6.c, t6.rho_ab, t6.rho_ac, t6.rho_bc)


def test_sextuple_record_rejects_a_failing_report():
    record = extend_to_sextuple(family_triple(6), 1)
    failing = verify_tuple([1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError, match="sextuple record requires a passing certificate"):
        SextupleRecord(*_values(record)[:7], report=failing)


#: The fields that a type's constructor has defaults for, so may go unset.
DEFAULTS = {Point: ("x", "y"), TripleABC: ("t", "m")}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_constructor_binds_each_field_once(cls):
    """A missing field, one positional argument too many, an unknown keyword
    and a field given both by position and by keyword raise TypeError;
    fields may be split between position and keyword."""
    value = EXAMPLES[cls.__name__]()
    fields, values = FIELDS[cls], _values(value)
    by_name = dict(zip(fields, values))
    for field in fields:
        if field not in DEFAULTS.get(cls, ()):
            with pytest.raises(TypeError):
                cls(**{name: v for name, v in by_name.items() if name != field})
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, bogus=values[0])
    with pytest.raises(TypeError):
        cls(values[0], **by_name)
    with pytest.raises(TypeError):
        cls(*values, **{fields[-1]: values[-1]})
    split = len(fields) // 2
    assert cls(*values[:split], **dict(zip(fields[split:], values[split:]))) == value


#: The value types with their own __init__, each with the reason; every
#: other type stores its fields as given through _Value.__init__.
OWN_INIT = {
    Point: "coerces its coordinates to Fraction and requires both or neither",
    Curve: "coerces its coefficients, rejects a singular curve and caches "
    "_cleared, _disc and _coeffs",
    TripleABC: "coerces its elements, witnesses and t, and checks the witnesses, "
    "distinctness and the order-3 condition",
    SextupleRecord: "requires a passing certificate",
}


def test_only_types_that_coerce_or_check_define_an_init():
    subclasses, todo = set(), [_Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            subclasses.add(cls)
            todo.append(cls)
    assert subclasses == set(FIELDS)
    assert {cls for cls in subclasses if "__init__" in vars(cls)} == set(OWN_INIT)
