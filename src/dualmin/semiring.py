"""Exact semirings and dense vector/matrix arithmetic over them.

Four instances are provided: the Boolean semiring, arbitrary-precision
integers, exact rationals, and the tropical (min, +) semiring.  Everything
is computed exactly; no floating point enters any arithmetic path (the
tropical infinity is a distinguished absorbing value that never mixes into
finite sums).

`mat_vec` is the one product kernel: `vec_mat` and `mat_mul` apply it to a
transpose, which a Matrix builds once and keeps.  Over Z and Q, `mat_vec` and
`dot` run on Python ints: a rational vector is read as integer numerators over
the lcm of its denominators, a rational matrix as integer rows over one common
denominator (computed once per Matrix), and each output entry is one
`sum(map(mul, ...))` and, over Q, one Fraction.  The Boolean and tropical
semirings use the generic `Semiring.dot`, one `add` and one `mul` per entry.

The randomized check of the semiring laws, with a sampler per semiring, is
part of the test suite (tests/test_semiring.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Any

from .errors import DimensionError, SemiringError

TROPICAL_INF = float("inf")


def over_lcm(v) -> tuple[list[int], int]:
    """(nums, d) with v[i] == nums[i] / d for every i, d the lcm of the
    denominators of v (entries are Fractions or ints)."""
    d = lcm(*[x.denominator for x in v])
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


class Semiring:
    """A semiring (S, +, *, 0, 1) with exact arithmetic on plain Python values.

    Flags describe the extra structure available:
      is_ring   subtraction exists
      is_field  division by nonzero elements exists
      is_pid    exact gcd-style division exists (Z; fields trivially qualify)
    """

    name: str = "?"
    is_ring = False
    is_field = False
    is_pid = False

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def neg(self, a):
        raise SemiringError(f"{self.name}: no subtraction")

    def coerce(self, raw):
        """Validate and normalise an externally supplied value."""
        raise NotImplementedError

    def to_fraction(self, a) -> Fraction:
        raise SemiringError(f"{self.name}: does not embed in the rationals")

    def dot(self, u, v):
        if len(u) != len(v):
            raise DimensionError(f"dot: {len(u)} vs {len(v)}")
        acc = self.zero()
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def __repr__(self):
        return f"<semiring {self.name}>"


class BooleanSemiring(Semiring):
    name = "bool"

    def add(self, a, b):
        return a | b

    def mul(self, a, b):
        return a & b

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, raw):
        if raw in (0, 1, False, True):
            return int(raw)
        raise SemiringError(f"bool: bad value {raw!r}")

    def to_fraction(self, a):
        return Fraction(a)


class IntegerRing(Semiring):
    name = "int"
    is_ring = True
    is_pid = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def zero(self):
        return 0

    def one(self):
        return 1

    def neg(self, a):
        return -a

    def coerce(self, raw):
        if isinstance(raw, str):
            try:
                return int(raw)
            except ValueError:
                pass
        elif isinstance(raw, int) and not isinstance(raw, bool):
            return raw
        raise SemiringError(f"int: bad value {raw!r}")

    def to_fraction(self, a):
        return Fraction(a)

    def dot(self, u, v):
        if len(u) != len(v):
            raise DimensionError(f"dot: {len(u)} vs {len(v)}")
        return sum(map(mul, u, v))


class RationalField(Semiring):
    name = "rational"
    is_ring = True
    is_field = True
    is_pid = True

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def neg(self, a):
        return -a

    def coerce(self, raw):
        # Fraction keeps values in lowest terms with positive denominator.
        if isinstance(raw, (int, Fraction, str)) and not isinstance(raw, bool):
            try:
                return Fraction(raw)
            except (ValueError, ZeroDivisionError):  # from a string only
                pass
        raise SemiringError(f"rational: bad value {raw!r}")

    def to_fraction(self, a):
        return a

    def dot(self, u, v):
        if len(u) != len(v):
            raise DimensionError(f"dot: {len(u)} vs {len(v)}")
        (nu, du), (nv, dv) = over_lcm(u), over_lcm(v)
        return Fraction(sum(map(mul, nu, nv)), du * dv)


class TropicalSemiring(Semiring):
    """(N u {inf}, min, +): addition is min with identity inf, product is + with identity 0."""

    name = "tropical"

    def add(self, a, b):
        return min(a, b)

    def mul(self, a, b):
        return a + b

    def zero(self):
        return TROPICAL_INF

    def one(self):
        return 0

    def coerce(self, raw):
        if raw == TROPICAL_INF or raw == "inf":
            return TROPICAL_INF
        if isinstance(raw, bool):
            raise SemiringError(f"tropical: bad value {raw!r}")
        if isinstance(raw, int) and raw >= 0:
            return raw
        if isinstance(raw, str):
            try:
                v = int(raw)
            except ValueError:
                v = -1
            if v >= 0:
                return v
        raise SemiringError(f"tropical: bad value {raw!r}")


BOOL = BooleanSemiring()
INT = IntegerRing()
RATIONAL = RationalField()
TROPICAL = TropicalSemiring()

SEMIRINGS = {s.name: s for s in (BOOL, INT, RATIONAL, TROPICAL)}


def semiring_by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise SemiringError(f"unknown semiring {name!r}") from None


@dataclass(frozen=True)
class Matrix:
    """Dense matrix with explicit shape (rows may be empty, so shape is stored)."""

    semiring: Semiring
    n_rows: int
    n_cols: int
    entries: tuple[tuple[Any, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n_rows:
            raise DimensionError(f"{self.n_rows} rows declared, {len(self.entries)} given")
        for row in self.entries:
            if len(row) != self.n_cols:
                raise DimensionError(f"{self.n_cols} cols declared, row of {len(row)} given")

    @classmethod
    def from_rows(cls, semiring: Semiring, rows, n_cols: int | None = None) -> "Matrix":
        rows = tuple(tuple(semiring.coerce(v) for v in row) for row in rows)
        if n_cols is None:
            if not rows:
                raise DimensionError("cannot infer column count of an empty matrix")
            n_cols = len(rows[0])
        return cls(semiring, len(rows), n_cols, rows)

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        """The transpose, built on first use and kept (its transpose is self)."""
        return self._transpose

    @cached_property
    def _transpose(self) -> "Matrix":
        t = Matrix(self.semiring, self.n_cols, self.n_rows,
                   tuple(self.col(j) for j in range(self.n_cols)))
        t.__dict__["_transpose"] = self
        return t

    @cached_property
    def integer_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, den) with entries[i][j] == rows[i][j] / den, den the lcm of
        every entry's denominator; computed on first use and kept."""
        den = lcm(*[x.denominator for row in self.entries for x in row])
        return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                     for row in self.entries), den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product: mat_vec of b's transpose on each row of a."""
    if a.semiring is not b.semiring:
        raise SemiringError(f"mixed semirings: {a.semiring.name} and {b.semiring.name}")
    if a.n_cols != b.n_rows:
        raise DimensionError(f"mat_mul: {a.n_rows}x{a.n_cols} times {b.n_rows}x{b.n_cols}")
    bt = b.transpose()
    return Matrix(a.semiring, a.n_rows, b.n_cols, tuple(mat_vec(bt, row) for row in a.entries))


def mat_vec(a: Matrix, v: tuple) -> tuple:
    """Apply a matrix to a column vector."""
    if a.n_cols != len(v):
        raise DimensionError(f"mat_vec: {a.n_rows}x{a.n_cols} times vector of {len(v)}")
    sr = a.semiring
    if sr is INT:
        return tuple(sum(map(mul, row, v)) for row in a.entries)
    if sr is RATIONAL:
        rows, den = a.integer_rows
        nums, d = over_lcm(v)
        den *= d
        return tuple(Fraction(sum(map(mul, row, nums)), den) for row in rows)
    return tuple(sr.dot(row, v) for row in a.entries)


def vec_mat(v: tuple, a: Matrix) -> tuple:
    """Apply a matrix to a row vector (on the right): mat_vec of the transpose."""
    if a.n_rows != len(v):
        raise DimensionError(f"vec_mat: vector of {len(v)} times {a.n_rows}x{a.n_cols}")
    return mat_vec(a.transpose(), v)
