import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from dualmin import (BOOL, INT, RATIONAL, TROPICAL, TROPICAL_INF, DimensionError,
                     Matrix, Semiring, SemiringError, mat_mul, mat_vec, semiring_by_name,
                     vec_mat)

from oracles import (dot_by_entries, identity, mat_mul_by_entries, mat_vec_by_entries,
                     replace, vec_mat_by_entries, zeros)

# a random element of each semiring, drawn from a random.Random
SAMPLERS = {
    BOOL: lambda rng: rng.randint(0, 1),
    INT: lambda rng: rng.randint(-20, 20),
    RATIONAL: lambda rng: Fraction(rng.randint(-12, 12), rng.randint(1, 9)),
    TROPICAL: lambda rng: TROPICAL_INF if rng.random() < 0.15 else rng.randint(0, 12),
}


@dataclass(frozen=True)
class LawReport:
    """Outcome of a randomized semiring-law check; failures carry a counterexample each."""

    semiring: str
    samples: int
    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_semiring_laws(instance: Semiring, sample, samples: int = 100,
                        seed: int = 0) -> LawReport:
    """Randomized check of the monoid, distributivity and annihilation laws on
    elements drawn by `sample`."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    s = instance
    failures = []

    def claim(law, lhs, rhs, triple):
        if lhs != rhs:
            failures.append(f"{law} fails on {triple!r}: {lhs!r} != {rhs!r}")

    for _ in range(samples):
        a, b, c = (sample(rng) for _ in range(3))
        claim("add-assoc", s.add(s.add(a, b), c), s.add(a, s.add(b, c)), (a, b, c))
        claim("add-comm", s.add(a, b), s.add(b, a), (a, b))
        claim("add-zero", s.add(a, s.zero), a, (a,))
        claim("mul-assoc", s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c)), (a, b, c))
        claim("mul-one-left", s.mul(s.one, a), a, (a,))
        claim("mul-one-right", s.mul(a, s.one), a, (a,))
        claim("left-distrib", s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c)), (a, b, c))
        claim("right-distrib", s.mul(s.add(a, b), c), s.add(s.mul(a, c), s.mul(b, c)), (a, b, c))
        claim("annihilate-left", s.mul(s.zero, a), s.zero, (a,))
        claim("annihilate-right", s.mul(a, s.zero), s.zero, (a,))
    return LawReport(s.name, samples, tuple(failures))


@pytest.mark.parametrize("name", ["bool", "int", "rational", "tropical"])
def test_laws_hold(name):
    sr = semiring_by_name(name)
    report = check_semiring_laws(sr, SAMPLERS[sr], samples=200, seed=7)
    assert report.ok, report.failures


def test_boolean_laws_exhaustive():
    s = BOOL
    for a in (0, 1):
        assert s.add(a, 0) == a and s.mul(a, 1) == a
        assert s.mul(0, a) == 0 and s.mul(a, 0) == 0
        for b in (0, 1):
            assert s.add(a, b) == s.add(b, a)
            assert s.mul(a, b) == s.mul(b, a)
            for c in (0, 1):
                assert s.add(s.add(a, b), c) == s.add(a, s.add(b, c))
                assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))
                assert s.mul(a, s.add(b, c)) == s.add(s.mul(a, b), s.mul(a, c))


def test_tropical_laws_exhaustive_small_range():
    # exhaustive oracle over a small value range, infinity included
    values = [TROPICAL_INF, 0, 1, 2, 3]
    s = TROPICAL
    for a in values:
        for b in values:
            assert s.add(a, b) == s.add(b, a)
            assert s.add(a, s.zero) == a
            assert s.mul(a, s.one) == a
            assert s.mul(s.zero, a) == s.zero
            for c in values:
                assert s.mul(a, s.add(b, c)) == s.add(s.mul(a, b), s.mul(a, c))


def test_law_report_counterexample_detection():
    broken = replace(INT, name="broken", mul=lambda a, b: a * b + 1)
    report = check_semiring_laws(broken, SAMPLERS[INT], samples=50, seed=0)
    assert report.semiring == "broken"
    assert not report.ok
    assert any("distrib" in f or "one" in f or "annihilate" in f for f in report.failures)


def test_rational_normalization():
    from math import gcd
    for v in (RATIONAL.coerce("-4/6"), RATIONAL.coerce(Fraction(4, -6))):
        assert v == Fraction(-2, 3)
        assert v.denominator > 0
        assert gcd(abs(v.numerator), v.denominator) == 1


def test_coerce_rejects_junk():
    with pytest.raises(SemiringError):
        BOOL.coerce(2)
    with pytest.raises(SemiringError):
        INT.coerce(1.5)
    with pytest.raises(SemiringError):
        RATIONAL.coerce("x/y")
    with pytest.raises(SemiringError):
        TROPICAL.coerce(-1)
    with pytest.raises(SemiringError, match="^tropical: bad value 'abc'$"):
        TROPICAL.coerce("abc")


def test_tropical_infinity_is_absorbing_and_neutral():
    assert TROPICAL.add(TROPICAL_INF, 5) == 5
    assert TROPICAL.mul(TROPICAL_INF, 5) == TROPICAL_INF
    assert TROPICAL.coerce("inf") == TROPICAL_INF
    # past 2**1024 an integer has no float, so inf must absorb without a sum
    assert TROPICAL.mul(10 ** 400, TROPICAL_INF) == TROPICAL_INF
    assert TROPICAL.mul(TROPICAL_INF, 10 ** 400) == TROPICAL_INF
    assert TROPICAL.mul(10 ** 400, 1) == 10 ** 400 + 1


def test_mat_mul_identity():
    m = Matrix.from_rows(INT, [[1, 2], [3, 4]])
    assert mat_mul(identity(INT, 2), m) == m
    assert mat_mul(m, identity(INT, 2)) == m


def test_mat_mul_boolean():
    a = Matrix.from_rows(BOOL, [[1, 1]])
    b = Matrix.from_rows(BOOL, [[0], [1]])
    assert mat_mul(a, b).entries == ((1,),)


def test_mat_mul_tropical():
    a = Matrix.from_rows(TROPICAL, [[3, 5]])
    b = Matrix.from_rows(TROPICAL, [[2], [4]])
    assert mat_mul(a, b).entries == ((5,),)


def test_mat_vec_and_vec_mat():
    zero = zeros(INT, 2, 2)
    assert mat_vec(zero, (7, 9)) == (0, 0)
    swap = Matrix.from_rows(INT, [[0, 1], [1, 0]])
    assert mat_vec(swap, (1, 0)) == (0, 1)
    assert vec_mat((1, 1), swap) == (1, 1)


def test_dimension_and_semiring_mismatch():
    a = Matrix.from_rows(INT, [[1, 2]])
    b = Matrix.from_rows(INT, [[1, 2]])
    with pytest.raises(DimensionError):
        mat_mul(a, b)
    c = Matrix.from_rows(BOOL, [[1], [0]])
    with pytest.raises(SemiringError):
        mat_mul(a, c)
    with pytest.raises(DimensionError):
        mat_vec(a, (1, 2, 3))
    with pytest.raises(DimensionError):
        Matrix(INT, 2, 2, ((1, 2),))
    with pytest.raises(DimensionError, match="^cannot infer column count of an empty matrix$"):
        Matrix.from_rows(INT, [])


def test_mat_mul_associative_sampled():
    rng = random.Random(3)
    for sr in (INT, BOOL, TROPICAL, RATIONAL):
        for _ in range(25):
            dims = [rng.randint(1, 3) for _ in range(4)]
            mats = [Matrix(sr, dims[i], dims[i + 1],
                           tuple(tuple(SAMPLERS[sr](rng) for _ in range(dims[i + 1]))
                                 for _ in range(dims[i])))
                    for i in range(3)]
            a, b, c = mats
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_unknown_semiring_name():
    with pytest.raises(SemiringError):
        semiring_by_name("nimber")


def _entry(rng, sr, big):
    """An int over Z; over Q a Fraction, a plain int, or (when big) a
    Fraction whose denominator exceeds 2^64."""
    if sr is INT:
        return rng.randint(-2**70, 2**70) if big else rng.randint(-9, 9)
    kind = rng.random()
    if kind < 0.2:
        return rng.randint(-9, 9)
    if big and kind < 0.6:
        return Fraction(rng.randint(-2**80, 2**80), rng.randint(2**64 + 1, 2**66))
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def _vector(rng, sr, n, big):
    if rng.random() < 0.15:
        return (0,) * n if rng.random() < 0.5 else (sr.zero,) * n
    return tuple(_entry(rng, sr, big) for _ in range(n))


def test_integer_kernels_match_per_entry_products():
    rng = random.Random(13)
    shapes = [(0, 0), (1, 1), (0, 3), (3, 0)]
    for sr in (INT, RATIONAL):
        for case in range(300):
            rows, cols = shapes[case] if case < len(shapes) else (rng.randint(0, 6),
                                                                   rng.randint(0, 6))
            big = case % 3 == 0
            a = Matrix(sr, rows, cols, tuple(_vector(rng, sr, cols, big) for _ in range(rows)))
            v, u = _vector(rng, sr, cols, big), _vector(rng, sr, rows, big)
            for fast, slow in ((mat_vec(a, v), mat_vec_by_entries(a, v)),
                               (vec_mat(u, a), vec_mat_by_entries(u, a)),
                               ((sr.dot(u, u),), (dot_by_entries(sr, u, u),))):
                assert fast == slow
                assert all(type(x) is type(sr.zero) for x in fast)


def test_integer_kernels_check_lengths():
    for sr in (BOOL, INT, RATIONAL, TROPICAL):
        a = Matrix(sr, 2, 3, ((sr.one,) * 3,) * 2)
        with pytest.raises(DimensionError):
            mat_vec(a, (1, 2))
        with pytest.raises(DimensionError):
            vec_mat((1, 2, 3), a)
        with pytest.raises(DimensionError):
            sr.dot((1,), (1, 2))


def test_products_match_per_entry_oracles_on_every_semiring():
    rng = random.Random(17)
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1)]

    def sample(sr, rows, cols):
        return Matrix(sr, rows, cols, tuple(tuple(SAMPLERS[sr](rng) for _ in range(cols))
                                            for _ in range(rows)))

    for sr in (BOOL, INT, RATIONAL, TROPICAL):
        for case in range(100):
            r, m, c = shapes[case] if case < len(shapes) else [rng.randint(0, 4)
                                                               for _ in range(3)]
            a, b = sample(sr, r, m), sample(sr, m, c)
            u, w = (tuple(SAMPLERS[sr](rng) for _ in range(r)) for _ in range(2))
            assert vec_mat(u, a) == vec_mat_by_entries(u, a)
            assert sr.dot(u, w) == dot_by_entries(sr, u, w)
            assert mat_mul(a, b) == mat_mul_by_entries(a, b)


def test_products_keep_their_own_dimension_errors():
    a = Matrix.from_rows(INT, [[1, 2]])
    with pytest.raises(DimensionError, match="^vec_mat: vector of 2 times 1x2$"):
        vec_mat((1, 2), a)
    with pytest.raises(DimensionError, match="^mat_mul: 1x2 times 1x2$"):
        mat_mul(a, a)


def test_transpose_is_built_once():
    m = Matrix.from_rows(RATIONAL, [[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert t is m.transpose()
    assert t.entries == ((1, 4), (2, 5), (3, 6)) and (t.n_rows, t.n_cols) == (3, 2)
    assert zeros(INT, 0, 3).transpose() == zeros(INT, 3, 0)


# raw value -> what the tropical semiring reads it as, or the error it raises
TROPICAL_COERCIONS = {
    "a numeral": ("5", 5),
    "a negative numeral": ("-1", SemiringError("tropical: bad value '-1'")),
    "a Boolean": (True, SemiringError("tropical: bad value True")),
}


@pytest.mark.parametrize("case", TROPICAL_COERCIONS)
def test_tropical_coercion(case):
    raw, expected = TROPICAL_COERCIONS[case]
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            TROPICAL.coerce(raw)
    else:
        assert TROPICAL.coerce(raw) == expected
