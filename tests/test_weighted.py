import random
import re
import time
from fractions import Fraction

import pytest

from dualmin import (BOOL, INT, RATIONAL, TROPICAL, DimensionError, Matrix, Nfa, SemiringError,
                     WeightedAutomaton, bool_wa_to_nfa, dual_wa, equiv_wa, eval_series,
                     hankel_rank_oracle, mat_vec, minimise_wa, reach_restrict, vec_mat)
from dualmin.io import parse
from dualmin.sampling import random_wa

from oracles import (equiv_by_difference, gauss_rank, hankel_basis_by_block,
                     hankel_basis_by_pairs, nfa_accepts_paths, random_nfa, series_by_entries,
                     wa_eval_paths, words)


def nfa_to_bool_wa(n: Nfa) -> WeightedAutomaton:
    """Encode a classical NFA as a Boolean-semiring weighted automaton."""
    mats = {}
    for a in n.alphabet:
        rows = [[1 if y in n.trans[a][x] else 0 for x in range(n.n)] for y in range(n.n)]
        mats[a] = Matrix.from_rows(BOOL, rows, n_cols=n.n)
    return WeightedAutomaton(n.n, n.alphabet, BOOL, mats,
                             init=tuple(1 if s in n.inits else 0 for s in range(n.n)),
                             final=tuple(1 if s in n.finals else 0 for s in range(n.n)),
                             state_names=n.state_names)


def swap_wa() -> WeightedAutomaton:
    return WeightedAutomaton.build(("a",), INT, {"a": [[0, 1], [1, 0]]}, [1, 0], [1, 1])


def test_eval_empty_word_is_f_dot_i():
    rng = random.Random(1)
    for _ in range(20):
        w = random_wa(rng, INT)
        assert eval_series(w, ()) == w.semiring.dot(w.final, w.init)


def test_eval_swap_example():
    assert eval_series(swap_wa(), ("a", "a")) == 1
    assert eval_series(swap_wa(), ("a",)) == 1  # f is all ones


def test_eval_matches_path_sum():
    rng = random.Random(2)
    for sr in (INT, RATIONAL, BOOL, TROPICAL):
        for _ in range(15):
            w = random_wa(rng, sr, max_n=3, max_letters=2, lo=0 if sr is TROPICAL else -2, hi=2)
            for word in words(w.alphabet, 3):
                assert eval_series(w, word) == wa_eval_paths(w, word)


def test_boolean_wa_encodes_nfa_acceptance():
    rng = random.Random(3)
    for _ in range(40):
        n = random_nfa(rng, max_n=5)
        w = nfa_to_bool_wa(n)
        for word in words(n.alphabet, 4):
            assert (eval_series(w, word) == 1) == nfa_accepts_paths(n, word)
        assert bool_wa_to_nfa(w) == n
    with pytest.raises(SemiringError, match="^expected a Boolean weighted automaton$"):
        bool_wa_to_nfa(WeightedAutomaton.build(("a",), INT, {"a": [[1]]}, [1], [1]))


def test_eval_unknown_letter():
    with pytest.raises(ValueError):
        eval_series(swap_wa(), ("b",))


def test_dual_symmetric_self_dual():
    sym = WeightedAutomaton.build(("a",), INT, {"a": [[1, 2], [2, 3]]}, [4, 5], [4, 5])
    assert dual_wa(sym) == sym


def test_dual_is_involution():
    rng = random.Random(4)
    for sr in (INT, RATIONAL):
        for _ in range(20):
            w = random_wa(rng, sr)
            assert dual_wa(dual_wa(w)) == w


def test_dual_reverses_series():
    rng = random.Random(5)
    for sr in (INT, RATIONAL):
        for _ in range(30):
            w = random_wa(rng, sr)
            d = dual_wa(w)
            for word in words(w.alphabet, 6):
                assert eval_series(d, word) == eval_series(w, tuple(reversed(word)))


def test_dual_two_letter_hand_example():
    w = WeightedAutomaton.build(("a", "b"), INT,
                                {"a": [[0, 1], [1, 0]], "b": [[1, 1], [0, 1]]},
                                [1, 0], [1, -1])
    d = dual_wa(w)
    assert eval_series(d, ("a", "b")) == wa_eval_paths(w, ("b", "a"))


def test_dual_rejects_non_rings():
    with pytest.raises(SemiringError):
        dual_wa(nfa_to_bool_wa(random_nfa(random.Random(0))))
    trop = WeightedAutomaton.build(("a",), TROPICAL, {"a": [[1]]}, [0], [0])
    with pytest.raises(SemiringError):
        dual_wa(trop)


def test_reach_restrict_full_rank_keeps_dimension():
    w = swap_wa()
    r = reach_restrict(w)
    assert r.dimension == 2  # (1,0) and (0,1) are both reached


def test_reach_restrict_sublattice_example():
    w = WeightedAutomaton.build(("a",), INT, {"a": [[1, 0], [0, 1]]}, [2, 0], [1, 1])
    r = reach_restrict(w)
    assert r.basis.rows == ((2, 0),)
    assert r.automaton.init == (1,)
    assert r.automaton.final == (2,)
    for word in words(("a",), 4):
        assert eval_series(r.automaton, word) == eval_series(w, word) == 2


def test_reach_restrict_preserves_series():
    rng = random.Random(6)
    for sr in (INT, RATIONAL):
        for _ in range(40):
            w = random_wa(rng, sr)
            r = reach_restrict(w)
            assert r.dimension <= w.n
            for word in words(w.alphabet, 4):
                assert eval_series(r.automaton, word) == eval_series(w, word)


def test_reach_restrict_embedding_consistency():
    # basis rows carry restricted state vectors back into the ambient space
    rng = random.Random(7)
    for sr in (INT, RATIONAL):
        for _ in range(30):
            w = random_wa(rng, sr)
            r = reach_restrict(w)
            for word in words(w.alphabet, 3):
                ambient = w.init
                small = r.automaton.init
                for a in word:
                    ambient = mat_vec(w.mats[a], ambient)
                    small = mat_vec(r.automaton.mats[a], small)
                assert vec_mat(small, r.embedding) == ambient


def test_minimise_embedding_meets_the_first_pass():
    # minimise_wa's embedding maps into the coordinates of its first pass
    rng = random.Random(3)
    for i in range(400):
        w = random_wa(rng, (INT, RATIONAL)[i % 2])
        first = reach_restrict(dual_wa(w))
        minimal = minimise_wa(w)
        assert minimal.embedding.n_cols == first.dimension
        for word in words(w.alphabet, 3):
            ambient, small = w.init, minimal.automaton.init
            for a in word:
                ambient = mat_vec(w.mats[a], ambient)
                small = mat_vec(minimal.automaton.mats[a], small)
            assert mat_vec(first.embedding, ambient) == vec_mat(small, minimal.embedding)


def test_minimise_swap_example():
    m = minimise_wa(swap_wa())
    assert m.dimension == 1
    assert m.automaton.init == (1,)
    assert m.automaton.final == (1,)
    assert m.automaton.mats["a"].entries == ((1,),)


def test_minimise_zero_series():
    w = WeightedAutomaton.build(("a",), INT, {"a": [[1, 1], [0, 1]]}, [1, 2], [0, 0])
    m = minimise_wa(w)
    assert m.dimension == 0
    for word in words(("a",), 4):
        assert eval_series(m.automaton, word) == 0


def test_hankel_examples():
    zero = WeightedAutomaton.build(("a",), INT, {"a": [[1]]}, [1], [0])
    assert hankel_rank_oracle(zero, 3) == 0
    const = WeightedAutomaton.build(("a",), INT, {"a": [[1]]}, [1], [1])
    assert hankel_rank_oracle(const, 3) == 1
    assert hankel_rank_oracle(swap_wa(), 2) == 1


def test_hankel_matches_gauss_on_explicit_blocks():
    rng = random.Random(8)
    for _ in range(25):
        w = random_wa(rng, RATIONAL, max_n=3)
        level = 3
        ws = words(w.alphabet, level)
        block = [[Fraction(eval_series(w, u + v)) for v in ws] for u in ws]
        assert hankel_rank_oracle(w, level) == gauss_rank(block)


def test_hankel_basis_matches_the_per_pair_route():
    rng = random.Random(24)
    for sr in (RATIONAL, INT):
        for case in range(20):
            w = random_wa(rng, sr, max_n=3)
            level = case % 4
            basis = hankel_basis_by_block(w, level)
            assert basis == hankel_basis_by_pairs(w, level)
            assert hankel_rank_oracle(w, level) == basis.rank


def test_hankel_spans_match_the_full_block():
    rng = random.Random(25)
    for sr in (RATIONAL, INT):
        for case in range(60):
            # entries in [-1, 1] give zero rows and rank-deficient spans, which
            # stop growing before the longest length
            lo, hi = (-1, 1) if case % 2 else (-3, 3)
            w = random_wa(rng, sr, max_n=5, lo=lo, hi=hi)
            for level in range(6 if len(w.alphabet) < 3 else 4):
                assert hankel_rank_oracle(w, level) == hankel_basis_by_block(w, level).rank


def test_hankel_stops_when_its_spans_do(data_dir):
    w = parse((data_dir / "wa_rational.json").read_bytes())
    start = time.perf_counter()
    assert hankel_rank_oracle(w, 11) == 2
    assert time.perf_counter() - start < 0.1


def test_hankel_rejects_tropical():
    trop = WeightedAutomaton.build(("a",), TROPICAL, {"a": [[1]]}, [0], [0])
    with pytest.raises(SemiringError):
        hankel_rank_oracle(trop, 2)


def test_minimise_field_dimension_is_hankel_rank():
    rng = random.Random(9)
    for _ in range(60):
        w = random_wa(rng, RATIONAL)
        m = minimise_wa(w)
        assert m.dimension == hankel_rank_oracle(w, w.n)
        for word in words(w.alphabet, 5):
            assert eval_series(m.automaton, word) == eval_series(w, word)


def test_minimise_integer_properties():
    rng = random.Random(10)
    for _ in range(60):
        w = random_wa(rng, INT)
        m = minimise_wa(w)
        assert m.dimension <= w.n
        assert hankel_rank_oracle(w, w.n) <= m.dimension
        assert minimise_wa(m.automaton).dimension == m.dimension
        for word in words(w.alphabet, 5):
            assert eval_series(m.automaton, word) == eval_series(w, word)


def test_minimise_integer_can_need_strictly_more_than_rational():
    # series 2^|w| from a doubled state: over Z the lattice 2Z forces dimension 1
    # with the same rank as over Q, but a nontrivial basis
    w = WeightedAutomaton.build(("a",), INT, {"a": [[2]]}, [2], [1])
    m = minimise_wa(w)
    assert m.dimension == 1
    for word in words(("a",), 5):
        assert eval_series(m.automaton, word) == eval_series(w, word)


def test_minimise_rejects_unsupported_semirings():
    with pytest.raises(SemiringError):
        minimise_wa(nfa_to_bool_wa(random_nfa(random.Random(1))))


def test_build_validates_shapes():
    with pytest.raises(Exception):
        WeightedAutomaton.build(("a",), INT, {"a": [[1, 2], [3, 4]]}, [1], [1])


def _dense_wa(rng, sr, n, inner):
    """A dense automaton of dimension n; with `inner`, each matrix is a
    product of n x inner and inner x n factors, so the reachable space has
    dimension at most 1 + 2 * inner."""
    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) if sr is RATIONAL \
            else rng.randint(-3, 3)

    def block(rows, cols):
        return [[entry() for _ in range(cols)] for _ in range(rows)]

    mats = {}
    for a in "ab":
        if inner:
            left, right = block(n, inner), block(inner, n)
            mats[a] = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                       for row in left]
        else:
            mats[a] = block(n, n)
    return WeightedAutomaton.build(("a", "b"), sr, mats, block(1, n)[0], block(1, n)[0])


def test_restrictions_keep_the_series_of_dense_automata():
    # over Q and Z, dimensions 6 to 10, half of them rank-deficient.  A path
    # sum costs n^(k+1) products for a word of length k, so on the inputs
    # wa_eval_paths checks the words up to length 2 and the per-entry route
    # every word up to length 5; results of dimension 3 or less are checked
    # by path sums on every word up to length 5.
    rng = random.Random(61)
    for sr in (INT, RATIONAL):
        for n in range(6, 11):
            w = _dense_wa(rng, sr, n, inner=1 if n % 2 else 0)
            series = {word: series_by_entries(w, word) for word in words(w.alphabet, 5)}
            for word in words(w.alphabet, 2):
                assert wa_eval_paths(w, word) == series[word]
            for result in (reach_restrict(w).automaton, minimise_wa(w).automaton):
                assert result.n <= (n if n % 2 == 0 else 3)
                for word, value in series.items():
                    assert series_by_entries(result, word) == value
                    assert eval_series(result, word) == value
                    if result.n <= 3:
                        assert wa_eval_paths(result, word) == value


def _renumbered(rng, w: WeightedAutomaton, pad: int) -> WeightedAutomaton:
    """w with its states shuffled among `pad` more: the new states start at
    weight 0 and no old state leads to them, so whatever their own weights
    out and their final weights, the series is w's."""
    sr, n = w.semiring, w.n + pad
    to = list(range(n))
    rng.shuffle(to)
    old = {to[x]: x for x in range(w.n)}

    def entry(y, x, m):
        if x not in old:
            return sr.coerce(rng.randint(-2, 2))
        return m.entries[old[y]][old[x]] if y in old else sr.zero()

    mats = {a: Matrix(sr, n, n, tuple(tuple(entry(y, x, m) for x in range(n)) for y in range(n)))
            for a, m in w.mats.items()}
    init = tuple(w.init[old[x]] if x in old else sr.zero() for x in range(n))
    final = tuple(w.final[old[x]] if x in old else sr.coerce(rng.randint(-2, 2))
                  for x in range(n))
    return WeightedAutomaton(n, w.alphabet, sr, mats, init, final)


def _one_entry_changed(rng, w: WeightedAutomaton) -> WeightedAutomaton:
    """w with one transition, initial or final weight moved by 1 or -1."""
    sr, n = w.semiring, w.n
    d = sr.coerce(rng.choice((-1, 1)))
    mats, init, final = dict(w.mats), list(w.init), list(w.final)
    where = rng.randrange(len(w.alphabet) + 2)
    i = rng.randrange(n)
    if where == 0:
        init[i] += d
    elif where == 1:
        final[i] += d
    else:
        a, j = w.alphabet[where - 2], rng.randrange(n)
        rows = [list(row) for row in mats[a].entries]
        rows[i][j] += d
        mats[a] = Matrix(sr, n, n, tuple(map(tuple, rows)))
    return WeightedAutomaton(n, w.alphabet, sr, mats, tuple(init), tuple(final))


def test_equiv_matches_the_difference_automaton():
    # renumbered and padded copies of w and of its minimal form (equivalent),
    # such copies with one weight changed, and independent draws
    rng = random.Random("equiv-by-pairs")
    verdicts = {True: 0, False: 0}
    for i in range(320):
        sr = (INT, RATIONAL)[i % 2]
        w = random_wa(rng, sr, max_n=4, max_letters=2)
        kind = i // 2 % 4
        if kind == 3:
            other = random_wa(rng, sr, max_n=4, max_letters=2)
            while other.alphabet != w.alphabet:
                other = random_wa(rng, sr, max_n=4, max_letters=2)
        else:
            source = minimise_wa(w).automaton if kind == 1 else w
            other = _renumbered(rng, source, rng.randint(0, 2))
            if kind == 2:
                other = _one_entry_changed(rng, other)
        verdict = equiv_wa(w, other)
        assert verdict == equiv_by_difference(w, other) == equiv_by_difference(other, w)
        assert verdict == equiv_wa(other, w)
        if kind < 2:
            assert verdict
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100, verdicts


def _two_states(mat: Matrix, init=(0, 0), final=(0, 0)) -> WeightedAutomaton:
    return WeightedAutomaton(2, ("a",), INT, {"a": mat}, init, final)


# call -> (the error it raises, its message)
REFUSALS = {
    "matrix of the wrong shape": (
        lambda: _two_states(Matrix(INT, 1, 1, ((0,),))),
        DimensionError, "matrix for 'a' is 1x1, want 2x2"),
    "matrix over another semiring": (
        lambda: _two_states(Matrix(RATIONAL, 2, 2, ((0, 0), (0, 0)))),
        SemiringError, "matrix for 'a' uses rational"),
    "short initial vector": (
        lambda: _two_states(Matrix(INT, 2, 2, ((0, 0), (0, 0))), init=(0,)),
        DimensionError, "initial/final vectors must have length n"),
    "long final vector": (
        lambda: _two_states(Matrix(INT, 2, 2, ((0, 0), (0, 0))), final=(0, 0, 0)),
        DimensionError, "initial/final vectors must have length n"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
