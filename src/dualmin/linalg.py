"""Exact linear algebra over the rationals (reduced row echelon form) and the
integers (row-style Hermite normal form).

These bases witness reachable submodules of weighted automata: over a field a
subspace always has a canonical echelon basis, and over Z every sublattice of
Z^n has a canonical HNF basis, which is what makes minimisation over a
principal ideal domain effective.

Canonical forms used throughout:
  * FieldBasis: pivots strictly increasing, pivot entries 1, pivot columns
    zero elsewhere, no zero rows.
  * IntegerBasis: pivots strictly increasing, pivot entries positive, entries
    above a pivot reduced into [0, pivot), no zero rows.

All arithmetic is on Python ints.  FieldBasis keeps its rows fraction-free,
as integer numerators over one common denominator (Bareiss, Math. Comp.
1968; Cohen, A Course in Computational Algebraic Number Theory, 2.2): a
vector is read as integer numerators over the lcm of its denominators, its
coordinates are its entries on the pivot columns, membership is one integer
combination, and an insertion clears the new pivot column from the other
rows in integers.  Its `rows` are the same canonical Fraction tuples, built
on first use, so everything emitted is unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import mul

from .errors import DimensionError, Record
from .semiring import INT, RATIONAL, Matrix, over_lcm


def _lead(row) -> int | None:
    return next((j for j, x in enumerate(row) if x), None)


def _check_length(v, ambient: int):
    if len(v) != ambient:
        raise DimensionError(f"vector of {len(v)} in ambient {ambient}")


class IntegerBasis(Record):
    """Canonical HNF basis of a sublattice of Z^ambient; empty rows = zero lattice."""

    ambient: int
    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.ambient:
                raise DimensionError(f"basis row of {len(row)} in ambient {self.ambient}")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def matrix(self) -> Matrix:
        return Matrix(INT, len(self.rows), self.ambient, self.rows)

    def _reduce(self, v) -> tuple[list, list]:
        """(c, v - c * rows), reducing v pivot by pivot."""
        _check_length(v, self.ambient)
        residue = [int(x) for x in v]
        coeffs = []
        for row in self.rows:
            p = _lead(row)
            q = residue[p] // row[p]
            coeffs.append(q)
            if q:
                residue[p:] = [x - q * y for x, y in zip(residue[p:], row[p:])]
        return coeffs, residue

    def coordinates(self, v) -> tuple | None:
        """Coefficients c with c * rows = v, or None when v is outside the lattice."""
        coeffs, residue = self._reduce(v)
        return None if any(residue) else tuple(coeffs)

    def insert(self, v) -> tuple["IntegerBasis", bool]:
        """Smallest lattice containing this one and v; changed=False iff v was a member."""
        residue = self._reduce(v)[1]
        lead = _lead(residue)
        if lead is None:
            return self, False
        rows = list(self.rows)
        pivots = [_lead(row) for row in rows]
        while lead is not None:
            i = bisect_left(pivots, lead)
            if i == len(pivots) or pivots[i] != lead:
                rows.insert(i, _positive(residue, lead))
                pivots.insert(i, lead)
                break
            # Euclid against the row with the same pivot
            row = rows[i]
            while residue[lead]:
                q = row[lead] // residue[lead]
                row, residue = residue, [x - q * y for x, y in zip(row, residue)]
            rows[i] = _positive(row, lead)
            lead = _lead(residue)
        # reduce the entries above each pivot, left to right
        for k, p in enumerate(pivots):
            pivot_row = rows[k]
            for i in range(k):
                q = rows[i][p] // pivot_row[p]
                if q:
                    rows[i] = tuple(x - q * y for x, y in zip(rows[i], pivot_row))
        return IntegerBasis(self.ambient, tuple(rows)), True

    @classmethod
    def from_rows(cls, ambient: int, rows) -> "IntegerBasis":
        basis = cls(ambient)
        for row in rows:
            basis, _ = basis.insert(row)
        return basis


def _positive(row, p) -> tuple[int, ...]:
    return tuple(row) if row[p] > 0 else tuple(-x for x in row)


class FieldBasis(Record):
    """Canonical reduced-echelon basis of a subspace of Q^ambient.

    Row k of the basis is nums[k] / den: den > 0 is the least common
    denominator of all the entries (gcd(den, every numerator) == 1), so
    nums[k] is den at its pivot.  This is canonical, so == compares subspaces.
    """

    ambient: int
    nums: tuple[tuple[int, ...], ...] = ()
    den: int = 1

    @property
    def rank(self) -> int:
        return len(self.nums)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fraction tuples, built on first use."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.nums)

    def matrix(self) -> Matrix:
        return Matrix(RATIONAL, self.rank, self.ambient, self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(_lead(row) for row in self.nums)

    @cached_property
    def free(self) -> tuple[int, ...]:
        """The columns that hold no pivot, in order."""
        return tuple(sorted(set(range(self.ambient)).difference(self.pivots)))

    def _split(self, v) -> tuple[list[int], int, list[int]]:
        """(x, d, residue) with v == x / d.

        Over a field in RREF the coordinates of v are its entries on the pivot
        columns, so den * x - sum_k x[p_k] * nums[k] is den * d times v minus
        the combination they give.  That is zero on every pivot column, and
        residue is its entries on the free columns.
        """
        _check_length(v, self.ambient)
        x, d = over_lcm(v)
        if not self.nums:
            return x, d, x
        coeffs = [x[p] for p in self.pivots]
        den = self.den
        cols = list(zip(*self.nums))
        return x, d, [den * x[j] - sum(map(mul, coeffs, cols[j])) for j in self.free]

    def coordinates(self, v) -> tuple | None:
        """Coefficients c with c * rows = v, or None when v is outside the span."""
        x, d, residue = self._split(v)
        if any(residue):
            return None
        return tuple(Fraction(x[p], d) for p in self.pivots)

    def insert(self, v) -> tuple["FieldBasis", bool]:
        """Smallest subspace containing this one and v; changed=False iff v was a member."""
        residue = self._split(v)[2]
        if not any(residue):
            return self, False
        new = [0] * self.ambient
        for j, r in zip(self.free, residue):
            new[j] = r
        q = _lead(new)
        g = gcd(*residue)
        if new[q] < 0:
            g = -g
        new = [r // g for r in new]
        # row k becomes nums[k] / den - (nums[k][q] / den) * (new / c), over den * c
        c, den = new[q], self.den
        nums = [tuple(c * x - row[q] * y for x, y in zip(row, new)) if row[q]
                else tuple(c * x for x in row) for row in self.nums]
        nums.insert(bisect_left(self.pivots, q), tuple(den * y for y in new))
        den *= c
        g = gcd(den, *chain.from_iterable(nums))
        if g > 1:
            den //= g
            nums = [tuple(x // g for x in row) for row in nums]
        return FieldBasis(self.ambient, tuple(nums), den), True


def hnf(a: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form of an integer matrix.

    Returns (h, u) with u * a = h, u unimodular (|det u| = 1), and h in
    canonical shape with its zero rows collected at the bottom.  The row
    lattice of h equals the row lattice of a.  [h | u] is the canonical basis
    of the rows of [a | I]: every vector of that lattice is c * [a | I] =
    [c * a | c], and it has full row rank, so the basis has one row per row
    of a, and the rows whose pivot lies in the a block come first.
    """
    if a.semiring is not INT:
        raise DimensionError("hnf expects an integer matrix")
    m, n = a.n_rows, a.n_cols
    basis = IntegerBasis.from_rows(n + m, (row + tuple(int(i == j) for j in range(m))
                                           for i, row in enumerate(a.entries)))
    return (Matrix(INT, m, n, tuple(row[:n] for row in basis.rows)),
            Matrix(INT, m, m, tuple(row[n:] for row in basis.rows)))


def det_int(a: Matrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    if a.n_rows != a.n_cols:
        raise DimensionError("determinant of a non-square matrix")
    n = a.n_rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_hnf_shape(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Canonical-shape predicate for an integer basis (zero rows not allowed)."""
    last_pivot = -1
    for row in rows:
        pivots = [j for j, v in enumerate(row) if v != 0]
        if not pivots:
            return False
        p = pivots[0]
        if p <= last_pivot or row[p] <= 0:
            return False
        last_pivot = p
    # entries above each pivot reduced into [0, pivot)
    for i, row in enumerate(rows):
        p = next(j for j, v in enumerate(row) if v != 0)
        for k in range(i):
            if not 0 <= rows[k][p] < row[p]:
                return False
    return True

