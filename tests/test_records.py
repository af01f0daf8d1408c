"""The frozen records: every automaton, matrix, basis and semiring class."""

from functools import cached_property
from operator import and_, xor

import pytest

from dualmin import (INT, AlternatingAutomaton, BoolFun, Dkm, FieldBasis, IntegerBasis, Matrix,
                     MooreAutomaton, Nfa, Partition, RestrictedWA, Semiring, TraceFormula,
                     WeightedAutomaton)


class FrozenMap(dict):
    """A dict that hashes, so that records holding transition maps can be hashed."""

    def __hash__(self):
        return hash(frozenset(self.items()))


ONE = BoolFun(1, [[0]])
WA = WeightedAutomaton(1, ("a",), INT, FrozenMap(a=Matrix(INT, 1, 1, ((2,),))), (1,), (1,))

# each record class with the keyword arguments of one instance
RECORDS = [
    (MooreAutomaton, dict(n=2, alphabet=("a",), trans=FrozenMap(a=(1, 0)), init=0, out=(0, 1))),
    (Nfa, dict(n=2, alphabet=("a",), trans=FrozenMap(a=(frozenset({1}), frozenset())),
               inits=frozenset({0}), finals=frozenset({1}))),
    (Partition, dict(block_of=(0, 1, 0), n_blocks=2)),
    (Semiring, dict(name="mod2", zero=0, one=1, add=xor, mul=and_, coerce=int)),
    (Matrix, dict(semiring=INT, n_rows=1, n_cols=2, entries=((1, 2),))),
    (IntegerBasis, dict(ambient=2, rows=((2, 1),))),
    (FieldBasis, dict(ambient=2, nums=((1, 1),), den=1)),
    (WeightedAutomaton, dict(n=1, alphabet=("a",), semiring=INT, mats=WA.mats, init=(1,),
                             final=(1,))),
    (RestrictedWA, dict(automaton=WA, basis=IntegerBasis(1, ((1,),)),
                        embedding=Matrix(INT, 1, 1, ((1,),)))),
    (BoolFun, dict(n=1, sats=[[0]])),
    (AlternatingAutomaton, dict(n=1, alphabet=("a",), delta=FrozenMap(a=(ONE,)), iota=ONE,
                                finals=frozenset({0}))),
    (Dkm, dict(n=1, alphabet=("a",), obs=("p",), gamma=(frozenset({"p"}),),
               delta=FrozenMap(a=(0,)))),
    (TraceFormula, dict(word=("a",), obs="p")),
]


@pytest.mark.parametrize("cls, kwargs", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_every_record_is_frozen_compares_by_value_and_caches(cls, kwargs):
    obj = cls(**kwargs)
    assert cls(*kwargs.values()) == obj or cls is Semiring
    # == with another class defers to it, so the two compare unequal
    assert obj.__eq__(object()) is NotImplemented and obj != object()
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # a missing, an unknown or a surplus argument
    with pytest.raises(TypeError):
        cls(**dict(list(kwargs.items())[1:]))
    with pytest.raises(TypeError):
        cls(**kwargs, bogus=1)
    with pytest.raises(TypeError):
        cls(*range(20))
    if cls is Semiring:  # a semiring is equal to itself alone
        assert cls(**kwargs) != obj and hash(obj) == hash(obj)
        assert repr(obj) == "<semiring mod2>"
    else:
        assert repr(obj).startswith(f"{cls.__name__}(")
        assert all(f"{name}=" in repr(obj) for name in cls._fields)
    if "state_names" in cls._fields:  # the names take no part in == and hash
        named = cls(**kwargs, state_names=tuple(f"q{i}" for i in range(obj.n)))
        assert named.state_names == ("q0", "q1")[:obj.n]
        assert named == obj and hash(named) == hash(obj)
    elif cls is not Semiring:
        assert cls(**kwargs) == obj and hash(cls(**kwargs)) == hash(obj)
    for name, attr in vars(cls).items():  # a cached property is built once and kept
        if isinstance(attr, cached_property):
            value = getattr(obj, name)
            assert obj.__dict__[name] is value and getattr(obj, name) is value
    if cls is Matrix:
        assert obj.transpose() is obj.transpose() and obj.transpose().transpose() is obj
    if cls is BoolFun:
        assert obj.table == 0b10
