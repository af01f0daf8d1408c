import random
from fractions import Fraction

import pytest

from dualmin import (INT, DimensionError, FieldBasis, IntegerBasis, Matrix,
                     basis_insert, coordinates, det_int, hnf, is_hnf_shape, mat_mul,
                     rank)
from dualmin.sampling import random_int_matrix

from oracles import det_perm, gauss_rank, hnf_batch, rref


def test_hnf_identity():
    ident = Matrix.identity(INT, 3)
    h, u = hnf(ident)
    assert h == ident
    assert u == ident


def test_hnf_zero():
    zero = Matrix.zeros(INT, 2, 3)
    h, _ = hnf(zero)
    assert h == zero


def test_hnf_worked_example():
    a = Matrix.from_rows(INT, [[2, 4], [6, 8]])
    h, u = hnf(a)
    assert h.entries == ((2, 0), (0, 4))
    assert mat_mul(u, a) == h
    assert abs(det_perm(u.entries)) == 1
    assert is_hnf_shape(h.entries)
    assert abs(det_perm(h.entries)) == abs(det_perm(a.entries)) == 8


def test_hnf_idempotent_on_hnf_matrices():
    rng = random.Random(11)
    for _ in range(100):
        a = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, _ = hnf(a)
        h2, u2 = hnf(h)
        assert h2 == h
        assert abs(det_int(u2)) == 1


def test_hnf_random_properties():
    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_int_matrix(rng, rows, cols)
        h, u = hnf(a)
        assert mat_mul(u, a) == h
        assert abs(det_int(u)) == 1
        lattice_rows = tuple(r for r in h.entries if any(r))
        assert is_hnf_shape(lattice_rows)
        basis = IntegerBasis(cols, lattice_rows)
        for row in a.entries:
            assert basis.coordinates(row) is not None


def test_det_int_matches_permutation_expansion():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n, n)
        assert det_int(a) == det_perm(a.entries)


def test_integer_basis_insert_examples():
    basis = IntegerBasis.from_rows(2, [(2, 0), (0, 4)])
    same, changed = basis_insert(basis, (0, 0))
    assert same is basis and not changed
    same, changed = basis_insert(basis, (2, 4))
    assert same is basis and not changed
    grown, changed = basis_insert(basis, (1, 0))
    assert changed
    assert grown.rows == ((1, 0), (0, 4))


def test_integer_coordinates_examples():
    basis = IntegerBasis.from_rows(2, [(2, 0), (0, 4)])
    assert coordinates(basis, (0, 0)) == (0, 0)
    assert coordinates(basis, (2, 4)) == (1, 1)
    assert coordinates(basis, (1, 2)) is None


def test_coordinates_soundness_random():
    rng = random.Random(2)
    for _ in range(200):
        dim = rng.randint(1, 4)
        basis = IntegerBasis.from_rows(dim, [
            [rng.randint(-6, 6) for _ in range(dim)] for _ in range(rng.randint(0, dim))])
        v = [rng.randint(-9, 9) for _ in range(dim)]
        c = coordinates(basis, v)
        if c is not None:
            recon = [0] * dim
            for coef, row in zip(c, basis.rows):
                for j in range(dim):
                    recon[j] += coef * row[j]
            assert tuple(recon) == tuple(v)


def test_insert_reaches_fixpoint_noetherian():
    rng = random.Random(17)
    for _ in range(50):
        dim = rng.randint(1, 4)
        vectors = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(200)]
        basis = IntegerBasis(dim)
        changes = 0
        for v in vectors:
            basis, changed = basis.insert(v)
            changes += changed
        # ascending chains of sublattices of Z^dim stabilise: at most dim rank
        # increases plus log2(index) proper refinements (entries bounded by 5)
        assert changes <= dim + 20
        for v in vectors:
            again, changed = basis.insert(v)
            assert again is basis and not changed


def test_field_basis_shape_and_rank():
    rng = random.Random(9)
    for _ in range(100):
        dim = rng.randint(1, 5)
        vectors = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                   for _ in range(rng.randint(0, 6))]
        basis = FieldBasis(dim)
        for v in vectors:
            basis, _ = basis.insert(v)
        assert rank(basis) == gauss_rank(vectors)
        pivots = [next(j for j, x in enumerate(row) if x != 0) for row in basis.rows]
        assert pivots == sorted(set(pivots))
        for i, row in enumerate(basis.rows):
            assert row[pivots[i]] == 1
            for k, other in enumerate(basis.rows):
                if k != i:
                    assert other[pivots[i]] == 0


def test_field_coordinates_roundtrip():
    rng = random.Random(21)
    for _ in range(100):
        dim = rng.randint(1, 4)
        basis = FieldBasis(dim)
        for _ in range(rng.randint(0, dim)):
            basis, _ = basis.insert([Fraction(rng.randint(-4, 4)) for _ in range(dim)])
        combo = [Fraction(0)] * dim
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis.rows]
        for wgt, row in zip(weights, basis.rows):
            combo = [c + wgt * x for c, x in zip(combo, row)]
        assert coordinates(basis, combo) == tuple(weights)


def test_hnf_is_canonical_for_the_lattice():
    # two generating sets of the same lattice produce the identical basis
    rng = random.Random(29)
    for _ in range(60):
        dim = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        basis = IntegerBasis.from_rows(dim, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # mix in lattice combinations of existing generators
        if len(shuffled) > 1:
            combo = [a + 2 * b for a, b in zip(shuffled[0], shuffled[1])]
            shuffled.append(combo)
        assert IntegerBasis.from_rows(dim, shuffled) == basis


def test_field_basis_is_canonical_for_the_span():
    rng = random.Random(33)
    for _ in range(60):
        dim = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                for _ in range(rng.randint(1, 4))]
        first = FieldBasis(dim)
        for v in rows:
            first, _ = first.insert(v)
        second = FieldBasis(dim)
        scaled = [[Fraction(3, 2) * x for x in v] for v in reversed(rows)]
        for v in scaled:
            second, _ = second.insert(v)
        assert first == second


def test_words_up_to_matches_oracle():
    from dualmin import words_up_to
    from oracles import words
    assert list(words_up_to(("a", "b"), 3)) == words(("a", "b"), 3)
    assert list(words_up_to(("a",), 0)) == [()]


def test_rank_examples():
    assert rank(IntegerBasis(3)) == 0
    ident = IntegerBasis.from_rows(3, Matrix.identity(INT, 3).entries)
    assert rank(ident) == 3
    h, _ = hnf(Matrix.from_rows(INT, [[2, 4], [6, 8]]))
    assert rank(IntegerBasis(2, tuple(r for r in h.entries if any(r)))) == 2


def test_dimension_mismatch_raises():
    basis = IntegerBasis.from_rows(2, [(1, 0)])
    with pytest.raises(DimensionError):
        basis.insert((1, 2, 3))
    with pytest.raises(DimensionError):
        basis.coordinates((1,))


def _awkward_rows(rng, entry):
    """Rows of every shape a basis must take: none, tall, wide, with zero
    rows, duplicate rows and rows that combine earlier ones."""
    n = rng.randint(1, 6)
    rows = []
    for i in range(rng.randint(0, 8)):
        kind = rng.random()
        if i and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif i > 1 and kind < 0.35:
            x, y = rng.sample(rows, 2)
            k = rng.randint(-3, 3)
            rows.append([a + k * b for a, b in zip(x, y)])
        elif kind < 0.45:
            rows.append([0] * n)
        else:
            rows.append([entry(rng) if rng.random() < 0.7 else 0 for _ in range(n)])
    return rows, n


def test_hnf_matches_batch_oracle():
    rng = random.Random(41)
    for _ in range(300):
        rows, n = _awkward_rows(rng, lambda r: r.randint(-30, 30))
        a = Matrix(INT, len(rows), n, tuple(map(tuple, rows)))
        h, u = hnf(a)
        assert h.entries == hnf_batch(a.entries, n)[0]
        assert mat_mul(u, a) == h
        assert abs(det_int(u)) == 1


def test_integer_basis_matches_batch_oracle_after_each_insert():
    rng = random.Random(43)
    for _ in range(300):
        rows, n = _awkward_rows(rng, lambda r: r.randint(-30, 30))
        basis, before = IntegerBasis(n), ()
        for k, row in enumerate(rows):
            basis, changed = basis.insert(row)
            expected = tuple(r for r in hnf_batch(rows[:k + 1], n)[0] if any(r))
            assert basis.rows == expected
            assert changed == (expected != before)
            before = expected
        assert IntegerBasis.from_rows(n, rows).rows == before


def test_field_basis_matches_gauss_jordan_after_each_insert():
    rng = random.Random(47)
    for _ in range(300):
        rows, n = _awkward_rows(rng, lambda r: Fraction(r.randint(-9, 9), r.randint(1, 4)))
        basis, before = FieldBasis(n), ()
        for k, row in enumerate(rows):
            basis, changed = basis.insert(row)
            expected = rref(rows[:k + 1], n)
            assert basis.rows == expected
            assert changed == (expected != before)
            before = expected
