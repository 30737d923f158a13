"""The value classes behave as the frozen dataclasses they replace: equal
and hashed by their fields within one class, read-only, shown by their
fields, and still able to cache a property."""

import pytest

from weylmds.coeffs import HTable
from weylmds.gauss import ArithContext, GaussValue
from weylmds.patterns import GTPattern
from weylmds.record import Record
from weylmds.roots import LambdaTwist, RootSystemC, WeylElement
from weylmds.tableaux import ShiftedTableau, TableauStats

# (build a fresh record, its field values, its repr)
CASES = [
    (lambda: LambdaTwist((1, 0)), ((1, 0),), "LambdaTwist(l=(1, 0))"),
    (lambda: WeylElement((2, 1), (1, -1)), ((2, 1), (1, -1)),
     "WeylElement(sigma=(2, 1), eps=(1, -1))"),
    (lambda: RootSystemC(1, ((2,),), ((2,),), (1,)),
     (1, ((2,),), ((2,),), (1,)),
     "RootSystemC(rank=1, simple_roots=((2,),), positive_roots=((2,),), "
     "rho=(1,))"),
    (lambda: GTPattern(1, ((1,),), ((0,),)), (1, ((1,),), ((0,),)),
     "GTPattern(rank=1, a=((1,),), b=((0,),))"),
    (lambda: HTable(LambdaTwist((0,)), 1, ()), (LambdaTwist((0,)), 1, ()),
     "HTable(twist=LambdaTwist(l=(0,)), n=1, entries=())"),
    (lambda: GaussValue(3, (((1,), 0, 2),)), (3, (((1,), 0, 2),)),
     "GaussValue(n=3, terms=(((1,), 0, 2),))"),
    (lambda: ArithContext(3, 7), (3, 7, 3), "ArithContext(n=3, p=7, root=3)"),
    (lambda: ShiftedTableau(1, (((1, False),),)), (1, (((1, False),),)),
     "ShiftedTableau(rank=1, rows=(((1, False),),))"),
    (lambda: TableauStats((1,), 1, 0, 0), ((1,), 1, 0, 0),
     "TableauStats(wgt=(1,), str_total=1, barred=0, height=0)"),
]


@pytest.mark.parametrize("make, fields, text", CASES,
                         ids=[text.split("(")[0] for _, _, text in CASES])
def test_value_class_semantics(make, fields, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields and fields != a
    twin_class = type("Twin", (Record,),
                      {"__annotations__": dict.fromkeys(type(a)._fields)})
    twin = twin_class(*fields)
    assert a != twin and twin != a
    assert all(a != other() for other, _, _ in CASES if other is not make)
    for name, value in zip(type(a)._fields, fields):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 0
    assert a == b and repr(a) == text


def test_fields_by_name_and_wrong_arity():
    assert GTPattern(1, a=((1,),), b=((0,),)) == GTPattern(1, ((1,),), ((0,),))
    for args, kwargs in (((1, ((1,),)), {}), ((1, ((1,),), ((0,),), 0), {}),
                         ((1, ((1,),), ((0,),)), {"a": ((1,),)})):
        with pytest.raises(TypeError):
            GTPattern(*args, **kwargs)


def test_cached_properties_still_cache():
    table = HTable(LambdaTwist((0,)), 1, (((0,), GaussValue.one(1)),))
    rs = RootSystemC(1, ((2,),), ((2,),), (1,))
    ctx = ArithContext(3, 7)
    for obj, name in ((table, "_by_key"), (rs, "_positive_set"),
                      (ctx, "chi_table")):
        first = getattr(obj, name)
        assert vars(obj)[name] is first and getattr(obj, name) is first
    assert table.value((0,)) == GaussValue.one(1)
    assert rs.is_negative((-2,))


def test_context_compares_on_degree_prime_and_root():
    used, fresh = ArithContext(3, 7), ArithContext(3, 7)
    used.chi_index(3)
    used.additive_table(1)
    assert used == fresh and hash(used) == hash(fresh)
    assert used != ArithContext(3, 13)
