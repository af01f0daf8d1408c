"""Exact linear algebra over a Euclidean domain: the rationals (reduced row
echelon form) and the integers (row-style Hermite normal form).

These bases witness reachable submodules of weighted automata: over a field a
subspace always has a canonical echelon basis, and over Z every sublattice of
Z^n has a canonical HNF basis, which is what makes minimisation over a
principal ideal domain effective.  Both are one object, an echelon basis with
the entries above each pivot reduced, kept by one reduction and one
incremental insertion; the two classes differ only in how they read a scalar,
divide, and normalise a pivot.

Canonical forms used throughout:
  * FieldBasis: pivots strictly increasing, pivot entries 1, pivot columns
    zero elsewhere, no zero rows.
  * IntegerBasis: pivots strictly increasing, pivot entries positive, entries
    above a pivot reduced into [0, pivot), no zero rows.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError
from .semiring import INT, RATIONAL, Matrix


def _lead(row) -> int | None:
    return next((j for j, x in enumerate(row) if x), None)


@dataclass(frozen=True)
class _EchelonBasis:
    """Canonical echelon basis of a submodule of D^ambient, D a Euclidean domain.

    A subclass fixes the scalar rules: `scalar` reads an entry, `divide` is
    the quotient that reduces an entry modulo a pivot, and `normalise(row, p)`
    scales a row to a canonical pivot at column p.  It binds `coordinates`
    and `insert` in its own class body, so that each class owns them (the
    benchmark's tracing wraps them per class).
    """

    ambient: int
    rows: tuple[tuple, ...] = ()

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.ambient:
                raise DimensionError(f"basis row of {len(row)} in ambient {self.ambient}")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def matrix(self) -> Matrix:
        return Matrix(self.semiring, len(self.rows), self.ambient, self.rows)

    def _reduce(self, v) -> tuple[list, list]:
        """(c, v - c * rows), reducing v pivot by pivot."""
        if len(v) != self.ambient:
            raise DimensionError(f"vector of {len(v)} in ambient {self.ambient}")
        divide = self.divide
        residue = [self.scalar(x) for x in v]
        coeffs = []
        for row in self.rows:
            p = _lead(row)
            q = residue[p] and divide(residue[p], row[p])
            coeffs.append(q)
            if q:
                residue[p:] = [x - q * y for x, y in zip(residue[p:], row[p:])]
        return coeffs, residue

    def _coordinates(self, v) -> tuple | None:
        """Coefficients c with c * rows = v, or None when v is outside the module."""
        coeffs, residue = self._reduce(v)
        return None if any(residue) else tuple(coeffs)

    def _insert(self, v):
        """Smallest module containing this one and v; changed=False iff v was a member."""
        residue = self._reduce(v)[1]
        lead = _lead(residue)
        if lead is None:
            return self, False
        divide, normalise = self.divide, self.normalise
        rows = list(self.rows)
        pivots = [_lead(row) for row in rows]
        while lead is not None:
            i = bisect_left(pivots, lead)
            if i == len(pivots) or pivots[i] != lead:
                rows.insert(i, normalise(residue, lead))
                pivots.insert(i, lead)
                break
            # Euclid against the row with the same pivot; over a field the
            # reduced residue is zero on every pivot column, so only Z gets here
            row = rows[i]
            while residue[lead]:
                q = divide(row[lead], residue[lead])
                row, residue = residue, [x - q * y for x, y in zip(row, residue)]
            rows[i] = normalise(row, lead)
            lead = _lead(residue)
        # reduce the entries above each pivot, left to right
        for k, p in enumerate(pivots):
            pivot_row = rows[k]
            for i in range(k):
                if rows[i][p]:
                    q = divide(rows[i][p], pivot_row[p])
                    if q:
                        rows[i] = tuple(x - q * y for x, y in zip(rows[i], pivot_row))
        return type(self)(self.ambient, tuple(rows)), True


@dataclass(frozen=True)
class IntegerBasis(_EchelonBasis):
    """Canonical HNF basis of a sublattice of Z^ambient; empty rows = zero lattice."""

    semiring = INT
    scalar = int
    divide = operator.floordiv

    @staticmethod
    def normalise(row, p) -> tuple[int, ...]:
        return tuple(row) if row[p] > 0 else tuple(-x for x in row)

    coordinates = _EchelonBasis._coordinates
    insert = _EchelonBasis._insert

    @classmethod
    def from_rows(cls, ambient: int, rows) -> "IntegerBasis":
        basis = cls(ambient)
        for row in rows:
            basis, _ = basis.insert(row)
        return basis


@dataclass(frozen=True)
class FieldBasis(_EchelonBasis):
    """Canonical reduced-echelon basis of a subspace of Q^ambient."""

    semiring = RATIONAL
    scalar = Fraction
    divide = operator.truediv

    @staticmethod
    def normalise(row, p) -> tuple[Fraction, ...]:
        pivot = row[p]
        return tuple(x / pivot for x in row)

    coordinates = _EchelonBasis._coordinates
    insert = _EchelonBasis._insert


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


Basis = IntegerBasis | FieldBasis


def basis_insert(basis: Basis, v) -> tuple[Basis, bool]:
    """Insert a vector into a canonical basis; see IntegerBasis/FieldBasis.insert."""
    return basis.insert(tuple(v))


def coordinates(basis: Basis, v):
    """Coefficients of v in the basis, or None when v lies outside the span/lattice."""
    return basis.coordinates(tuple(v))


def rank(basis: Basis) -> int:
    return basis.rank
