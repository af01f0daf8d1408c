"""Exact semirings and dense vector/matrix arithmetic over them.

A semiring is a value: one frozen `Semiring` record holds its name, its two
units, its operations and two flags, `is_ring` and `is_field`, which the
weighted constructions check.  Four instances are provided: `BOOL`,
`INT` (arbitrary-precision integers), `RATIONAL` (exact rationals) and
`TROPICAL` (min, +).  Everything is computed exactly; no floating point
enters any arithmetic path (the tropical infinity is a distinguished
absorbing value that never mixes into finite sums).

`_row_product` is the one product kernel: given a vector, it returns the
function that multiplies a row by it.  `mat_vec` maps that function over a
matrix's rows and `Semiring.dot` applies it to one row; `vec_mat` and
`mat_mul` are `mat_vec` of a transpose, which a Matrix builds once and keeps.
Over Z and Q the kernel runs on Python ints: a rational vector is read as
integer numerators over the lcm of its denominators, a rational matrix as
integer rows over one common denominator (computed once per Matrix), and
each output entry is one `sum(map(mul, ...))` and, over Q, one Fraction.
Over the Boolean and tropical semirings each entry is one fold of `add` over
the `mul` of the pairs.

The randomized check of the semiring laws, with a sampler per semiring, is
part of the test suite (tests/test_semiring.py).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import add, and_, mul, or_
from typing import Any, Callable

from .errors import DimensionError, Record, SemiringError, quoted

TROPICAL_INF = float("inf")


def over_lcm(v) -> tuple[list[int], int]:
    """(nums, d) with v[i] == nums[i] / d for every i, d the lcm of the
    denominators of v (entries are Fractions or ints)."""
    d = lcm(*[x.denominator for x in v])
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


class Semiring(Record):
    """A semiring (S, +, *, 0, 1) with exact arithmetic on plain Python values.

    `coerce` validates and normalises an externally supplied value.  Flags:
      is_ring   Z and Q: subtraction exists and values are rationals as they
                are; `dual_wa`, `reach_restrict` and `hankel_rank_oracle` check it
      is_field  Q: division exists; `reach_restrict` spans over Q with it, else Z
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    coerce: Callable[[Any], Any]
    is_ring: bool = False
    is_field: bool = False

    def dot(self, u, v):
        """The sum of u[i] * v[i]: `mat_vec`'s row kernel on the one row u."""
        if len(u) != len(v):
            raise DimensionError(f"dot: {len(u)} vs {len(v)}")
        row, den = over_lcm(u) if self is RATIONAL else (u, 1)
        return _row_product(self, den, v)(row)

    # a semiring is equal to itself alone
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __repr__(self):
        return f"<semiring {self.name}>"


def _coerce_bool(raw):
    if raw in (0, 1, False, True):
        return int(raw)
    raise SemiringError(f"bool: bad value {quoted(raw)}")


def _coerce_int(raw):
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    elif isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise SemiringError(f"int: bad value {quoted(raw)}")


def _coerce_rational(raw):
    # Fraction keeps values in lowest terms with positive denominator.
    if isinstance(raw, (int, Fraction, str)) and not isinstance(raw, bool):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):  # from a string only
            pass
    raise SemiringError(f"rational: bad value {quoted(raw)}")


def _coerce_tropical(raw):
    if raw == TROPICAL_INF or raw == "inf":
        return TROPICAL_INF
    if isinstance(raw, bool):
        raise SemiringError(f"tropical: bad value {quoted(raw)}")
    if isinstance(raw, int) and raw >= 0:
        return raw
    if isinstance(raw, str):
        try:
            v = int(raw)
        except ValueError:
            v = -1
        if v >= 0:
            return v
    raise SemiringError(f"tropical: bad value {quoted(raw)}")


def _tropical_times(x, y):
    # inf absorbs without the float sum, which overflows beyond 2**1024
    return TROPICAL_INF if x == TROPICAL_INF or y == TROPICAL_INF else x + y


BOOL = Semiring("bool", 0, 1, or_, and_, _coerce_bool)
INT = Semiring("int", 0, 1, add, mul, _coerce_int, is_ring=True)
RATIONAL = Semiring("rational", Fraction(0), Fraction(1), add, mul, _coerce_rational,
                    is_ring=True, is_field=True)
# (N u {inf}, min, +): addition is min with identity inf, product is + with identity 0
TROPICAL = Semiring("tropical", TROPICAL_INF, 0, min, _tropical_times, _coerce_tropical)

SEMIRINGS = {s.name: s for s in (BOOL, INT, RATIONAL, TROPICAL)}


def semiring_by_name(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise SemiringError(f"unknown semiring {quoted(name)}") from None


def _row_product(sr: Semiring, den: int, v):
    """The one product kernel: the function that multiplies a row by the
    vector v.  Over Q a row is read as integers over den (as
    `Matrix.kernel_rows` gives it) and v as integers over the lcm of its
    denominators."""
    if sr is INT:
        return lambda row: sum(map(mul, row, v))
    if sr is RATIONAL:
        nums, d = over_lcm(v)
        den *= d
        return lambda row: Fraction(sum(map(mul, row, nums)), den)
    plus, times, zero = sr.add, sr.mul, sr.zero
    return lambda row: reduce(plus, map(times, row, v), zero)


class Matrix(Record):
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
    def kernel_rows(self) -> tuple[tuple[tuple, ...], int]:
        """(rows, den) as `_row_product` reads them, computed on first use and
        kept: over Q, integer rows with entries[i][j] == rows[i][j] / den, den
        the lcm of every entry's denominator; otherwise the entries over 1."""
        if self.semiring is not RATIONAL:
            return self.entries, 1
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
    rows, den = a.kernel_rows
    return tuple(map(_row_product(a.semiring, den, v), rows))


def vec_mat(v: tuple, a: Matrix) -> tuple:
    """Apply a matrix to a row vector (on the right): mat_vec of the transpose."""
    if a.n_rows != len(v):
        raise DimensionError(f"vec_mat: vector of {len(v)} times {a.n_rows}x{a.n_cols}")
    return mat_vec(a.transpose(), v)
