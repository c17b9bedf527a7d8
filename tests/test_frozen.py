"""Value semantics of the frozen value classes: equality within one class,
the field-tuple hash, immutability, the ClassName(field=...) repr, Place's
order, pickle and deepcopy round trips, and the generated __init__."""

import copy
import inspect
import math
import operator
import pickle
from fractions import Fraction

import pytest

import subgeneral
from subgeneral import (
    INF,
    HomForm,
    LinearForm,
    LinearSubvariety,
    Place,
    ProjPoint,
    SampleResult,
    SubschemeSpec,
    check_subgeneral,
    local_weil,
    log_norm,
    product_formula_residual,
    projective_space,
    quang_combine,
    reorder_by_local_norm,
    sample_points,
    seshadri_constant,
    veronese_form,
)
from subgeneral._frozen import Frozen
from subgeneral.quang import chain_check

from oracles import sample_of_points

X0, X1 = LinearForm((1, 0)), LinearForm((0, 1))


def _cert():
    return quang_combine([X0, X1, LinearForm((1, 1))], projective_space(1), (INF, Place(2)))


def _samples():
    """(object, its fields, its repr): a class with no repr of its own prints
    as a dataclass does, ClassName(field=value, ...)."""
    cert = _cert()
    report = check_subgeneral(
        [LinearForm((1, 0, 0)), LinearForm((2, 0, 0)), LinearForm((0, 1, 0))],
        projective_space(2),
        2,
    )
    return [
        (Place(), ["p"], "inf"),
        (Place(7), ["p"], "p=7"),
        (
            log_norm(Fraction(3, 8), Place(2)),
            ["exact", "approx"],
            "LogNorm(exact=(2, -3), approx=2.0794415416798357)",
        ),
        (
            product_formula_residual(Fraction(-35, 4)),
            ["x", "finite", "arch_log"],
            "ProductFormulaLedger(x=Fraction(-35, 4), finite=((2, -2), (5, 1), (7, 1)),"
            " arch_log=2.169053700369523)",
        ),
        (ProjPoint((2, 4)), ["coords"], "[1:2]"),
        (LinearForm((1, -3)), ["coeffs"], "x0 - 3*x1"),
        (HomForm(1, 2, (1, 0, -1)), ["dim", "degree", "_terms"], "+1*x0^2 -1*x1^2"),
        (
            veronese_form(HomForm(1, 2, (2, 0, -4))),
            ["form", "scale"],
            "VeroneseLinearization(form=x0 - 2*x2, scale=Fraction(1, 1))",
        ),
        (
            LinearSubvariety(2, (LinearForm((0, 0, 1)),)),
            ["ambient_dim", "forms"],
            "LinearSubvariety(ambient_dim=2, forms=(x2,))",
        ),
        (
            SubschemeSpec((LinearForm((1, 0, 0)), LinearForm((0, 1, 0))), 'my "line"'),
            ["components", "label"],
            "SubschemeSpec(components=(x0, x1), label='my \"line\"')",
        ),
        (
            local_weil(ProjPoint((1, 4)), X0, Place(2)),
            ["value", "place", "subject", "point", "exact", "dropped"],
            "WeilValue(value=0.0, place=p=2, subject='x0', point='[1:4]', exact=(2, 0),"
            " dropped=())",
        ),
        (
            report.witnesses[0],
            ["subset", "dim", "allowed"],
            "Witness(subset=(1, 2), dim=1, allowed=0)",
        ),
        (
            report,
            ["verdict", "level", "q", "variety", "witnesses", "complete"],
            "PositionReport(verdict=False, level=2, q=3,"
            " variety=LinearSubvariety(ambient_dim=2, forms=()),"
            " witnesses=(Witness(subset=(1, 2), dim=1, allowed=0),"
            " Witness(subset=(1, 2, 3), dim=0, allowed=-1)), complete=True)",
        ),
        (
            cert,
            ["variety", "inputs", "outputs", "matrix", "position", "constants"],
            "CombinationCertificate(variety=LinearSubvariety(ambient_dim=1, forms=()),"
            " inputs=(x0, x1, x0 + x1), outputs=(x0, x1), matrix=((1, 0, 0), (0, 1, 0)),"
            " position=PositionReport(verdict=True, level=1, q=2,"
            " variety=LinearSubvariety(ambient_dim=1, forms=()), witnesses=(),"
            " complete=True), constants=(('inf', '1'), ('p=2', '1')))",
        ),
        (
            reorder_by_local_norm(ProjPoint((3, 1)), INF, [X0, X1]),
            ["place", "perm"],
            "Ordering(place=inf, perm=(2, 1))",
        ),
        (
            chain_check(ProjPoint((3, 1)), INF, cert),
            ["point", "place", "perm", "lhs", "rhs", "constant_k", "chain_c", "slack",
             "passed"],
            "ChainCheckRecord(point='[3:1]', place=inf, perm=(2, 1, 3),"
            " lhs=0.810930216216329, rhs=2.8903717578961645,"
            " constant_k=0.6931471805599453, chain_c='1', slack=2.0794415416798357,"
            " passed=True)",
        ),
        (
            seshadri_constant(X0),
            ["value", "subject_class", "justification"],
            "SeshadriValue(value=Fraction(1, 1), subject_class='hypersurface(1)',"
            " justification='hyperplane: epsilon = 1')",
        ),
        (
            sample_points(projective_space(1), 0.0, math.log(2), None, 0, excluded=(X0,)),
            ["points", "partial", "attempts"],
            "SampleResult(points=([1:-1], [1:0], [1:1], [1:-2], [1:2], [2:-1], [2:1]),"
            " partial=False, attempts=8)",
        ),
    ]


def test_every_value_class_has_a_sample():
    def subclasses(cls):
        return {c for s in cls.__subclasses__() for c in (s, *subclasses(s))}

    assert {type(obj) for obj, _, _ in _samples()} == subclasses(Frozen)


def test_repr_equality_and_hash_are_those_of_the_field_tuple():
    for (obj, fields, text), (twin, _, _) in zip(_samples(), _samples()):
        assert repr(obj) == text
        values = tuple(getattr(obj, name) for name in fields)
        assert hash(obj) == hash(values)
        assert obj == twin and hash(obj) == hash(twin) and obj is not twin
        assert not obj != twin


def test_equality_holds_only_within_a_class():
    assert ProjPoint((1, 2)) != LinearForm((1, 2))
    assert ProjPoint((1, 2)).__eq__(LinearForm((1, 2))) is NotImplemented
    assert LinearForm((1, 2)) != (1, 2)
    assert ProjPoint((1, 2)) != ProjPoint((1, 3))
    assert len({ProjPoint((1, 2)), LinearForm((1, 2)), ProjPoint((2, 4))}) == 2
    # a sample's kept support columns are no field
    assert sample_of_points((), False, 0, {X0: [[]]}) == sample_of_points((), False, 0)


def test_fields_cannot_be_assigned_or_deleted():
    for (obj, fields, _), (twin, _, _) in zip(_samples(), _samples()):
        for name in fields + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert obj == twin and not hasattr(obj, "not_a_field")


def test_places_order_by_their_prime():
    two, three = Place(2), Place(3)
    assert two < three and two <= three and three > two and three >= two
    assert not three < two and not three <= two and not two > three and not two >= three
    assert two <= Place(2) and two >= Place(2) and not two < Place(2)
    assert INF <= Place() and INF >= Place() and not INF < Place() and not INF > Place()
    assert sorted([Place(7), two, Place(5)]) == [two, Place(5), Place(7)]
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        # inf against a prime compares None with an int
        for left, right in ((INF, two), (two, INF), (two, 3)):
            with pytest.raises(TypeError):
                compare(left, right)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(two, name)(3) is NotImplemented


def test_pickle_and_deepcopy_round_trip_with_cached_properties_filled():
    form = LinearForm((3, -7, 2))
    assert form._max_coeff == 7
    cert = _cert()
    chain_check(ProjPoint((3, 1)), INF, cert)
    assert cert._chain_table
    objects = [obj for obj, _, _ in _samples()] + [form, cert]
    for obj in objects:
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj)
            assert vars(twin).keys() == vars(obj).keys()
    for twin in (pickle.loads(pickle.dumps(form)), copy.deepcopy(form)):
        assert vars(twin)["_max_coeff"] == 7
    for twin in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
        assert vars(twin)["_chain_table"] == cert._chain_table
        assert chain_check(ProjPoint((3, 1)), INF, twin) == chain_check(
            ProjPoint((3, 1)), INF, cert
        )


# the signatures of the hand-written __init__s that the generated ones
# replaced: callers construct with these names, in this order, by keyword
STORING_SIGNATURES = {
    "LogNorm": "(exact, approx)",
    "ProductFormulaLedger": "(x, finite, arch_log)",
    "Witness": "(subset, dim, allowed)",
    "PositionReport": "(verdict, level, q, variety, witnesses=(), complete=True)",
    "VeroneseLinearization": "(form, scale)",
    "CombinationCertificate": "(variety, inputs, outputs, matrix, position, constants)",
    "Ordering": "(place, perm)",
    "ChainCheckRecord": "(point, place, perm, lhs, rhs, constant_k, chain_c, slack, passed)",
    "SeshadriValue": "(value, subject_class, justification)",
    "WeilValue": "(value, place, subject, point, exact=None, dropped=())",
}
NORMALIZING = (
    Place, ProjPoint, LinearForm, HomForm, LinearSubvariety, SubschemeSpec, SampleResult
)


def test_generated_init_keeps_the_hand_written_signature():
    generated = {
        type(obj).__name__ for obj, _, _ in _samples()
        if type(obj).__init__.__code__.co_filename == "<string>"
    }
    assert generated == set(STORING_SIGNATURES)
    for name, text in STORING_SIGNATURES.items():
        cls = getattr(subgeneral, name)
        assert str(inspect.signature(cls)) == text
        assert cls.__init__.__qualname__ == name + ".__init__"


def test_generated_init_stores_positional_and_keyword_arguments():
    for name in STORING_SIGNATURES:
        cls = getattr(subgeneral, name)
        args = [object() for _ in cls._fields]
        for obj in (cls(*args), cls(**dict(zip(cls._fields, args)))):
            assert vars(obj) == dict(zip(cls._fields, args))
            assert all(getattr(obj, f) is a for f, a in zip(cls._fields, args))
        with pytest.raises(TypeError):
            cls(*args, object())
    # an omitted argument takes the class attribute of its name
    place, variety = Place(5), projective_space(1)
    assert vars(subgeneral.WeilValue(0.5, place, "x0", "[1:2]")) == {
        "value": 0.5, "place": place, "subject": "x0", "point": "[1:2]", "exact": None,
        "dropped": (),
    }
    report = subgeneral.PositionReport(True, 1, 2, variety, complete=False)
    assert (report.witnesses, report.complete) == ((), False)
    with pytest.raises(TypeError):
        subgeneral.PositionReport(True, 1, 2)


def test_a_class_with_its_own_init_keeps_it():
    for cls in NORMALIZING:
        assert cls.__init__ is vars(cls)["__init__"]
        assert cls.__init__.__code__.co_filename == inspect.getsourcefile(cls)
    assert ProjPoint((2, -4)).coords == ProjPoint((-1, 2)).coords
    assert LinearForm((2, -4)).coeffs == LinearForm((-1, 2)).coeffs
