"""Weighted automata over exact semirings: formal power series evaluation, the
transpose (self-dual) adjunction, restriction to the reachable submodule, and
minimisation over the rationals (a field) and over the integers (a principal
ideal domain).

Matrix convention: t_a acts on column vectors of state weights and entry
t_a[y][x] is the weight of the transition x -> y on letter a.  The initial
vector is a column, the final vector a row, and reading w = a1..ak computes
final * t_ak * ... * t_a1 * init.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Mapping

from .automata import Nfa, _check_alphabet, bounded_words
from .errors import DimensionError, SemiringError
from .linalg import FieldBasis, IntegerBasis
from .semiring import BOOL, RATIONAL, Matrix, Semiring, mat_vec, vec_mat


@dataclass(frozen=True)
class WeightedAutomaton:
    n: int
    alphabet: tuple[str, ...]
    semiring: Semiring
    mats: Mapping[str, Matrix]
    init: tuple  # column vector, length n
    final: tuple  # row vector, length n
    state_names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_alphabet(self.alphabet, self.mats)
        for a, mat in self.mats.items():
            if mat.n_rows != self.n or mat.n_cols != self.n:
                raise DimensionError(f"matrix for {a!r} is {mat.n_rows}x{mat.n_cols}, want {self.n}x{self.n}")
            if mat.semiring is not self.semiring:
                raise SemiringError(f"matrix for {a!r} uses {mat.semiring.name}")
        if len(self.init) != self.n or len(self.final) != self.n:
            raise DimensionError("initial/final vectors must have length n")

    @classmethod
    def build(cls, alphabet, semiring: Semiring, mats, init, final, state_names=None):
        """Coerce raw entries through the semiring and validate shapes."""
        init = tuple(semiring.coerce(v) for v in init)
        n = len(init)
        matrices = {a: Matrix.from_rows(semiring, rows, n_cols=n) for a, rows in mats.items()}
        return cls(n, tuple(alphabet), semiring, matrices, init,
                   tuple(semiring.coerce(v) for v in final),
                   tuple(state_names) if state_names else None)


@dataclass(frozen=True)
class RestrictedWA:
    """A weighted automaton together with the change of coordinates that embeds
    its states back into the space it was carved out of.

    `basis` is the canonical basis of the restriction; `embedding` has one row
    per restricted state, in the coordinates of the automaton that
    reach_restrict was given.
    """

    automaton: WeightedAutomaton
    basis: FieldBasis | IntegerBasis
    embedding: Matrix

    @property
    def dimension(self) -> int:
        return self.automaton.n


def eval_series(w: WeightedAutomaton, word: Iterable[str]) -> object:
    """Value of the recognised formal power series at the given word."""
    v = w.init
    for a in word:
        if a not in w.mats:
            raise ValueError(f"unknown letter {a!r}")
        v = mat_vec(w.mats[a], v)
    return w.semiring.dot(w.final, v)


def dual_wa(w: WeightedAutomaton) -> WeightedAutomaton:
    """Transpose adjunction: flip matrices, swap initial and final vectors.

    eval_series(dual_wa(w), word) = eval_series(w, reversed(word)).
    """
    if not w.semiring.is_ring:
        raise SemiringError(f"dual_wa needs a ring, got {w.semiring.name}")
    mats = {a: m.transpose() for a, m in w.mats.items()}
    return WeightedAutomaton(w.n, w.alphabet, w.semiring, mats,
                             init=w.final, final=w.init, state_names=w.state_names)


def _empty_basis(w: WeightedAutomaton):
    if w.semiring.is_field:
        return FieldBasis(w.n)
    if w.semiring.is_pid:
        return IntegerBasis(w.n)
    raise SemiringError(f"reachable restriction needs a field or PID, got {w.semiring.name}")


def reach_restrict(w: WeightedAutomaton) -> RestrictedWA:
    """Restrict to the submodule generated by the initial vector under all t_a.

    The closure of {init} is computed by saturating a canonical basis; the
    returned automaton is the conjugate of w by that basis and recognises the
    same series with dimension rank(basis) <= n.
    """
    basis = _empty_basis(w)
    zero = w.semiring.zero()
    if any(x != zero for x in w.init):
        basis, _ = basis.insert(w.init)
        frontier = deque([w.init])
        while frontier:
            v = frontier.popleft()
            for a in w.alphabet:
                u = mat_vec(w.mats[a], v)
                basis, changed = basis.insert(u)
                if changed:
                    frontier.append(u)

    embedding, r = basis.matrix(), basis.rank
    mats = {}
    for a in w.alphabet:
        cols = tuple(basis.coordinates(mat_vec(w.mats[a], b)) for b in embedding.entries)
        assert None not in cols, "closure left the reachable submodule"
        mats[a] = Matrix(w.semiring, r, r, cols).transpose()
    init = basis.coordinates(w.init)
    assert init is not None
    restricted = WeightedAutomaton(r, w.alphabet, w.semiring, mats, init,
                                   mat_vec(embedding, w.final))
    return RestrictedWA(restricted, basis, embedding)


def minimise_wa(w: WeightedAutomaton) -> RestrictedWA:
    """Double reversal for weighted automata over Q or Z.

    reach_restrict after dual_wa, twice.  The recognised series is preserved
    exactly; over a field the resulting dimension is the Hankel rank of the
    series, and over Z it never exceeds the original dimension (submodules of
    free finitely generated modules over a PID are free of smaller rank).

    The result is the second restriction, so its `embedding` maps into the
    coordinates of first = reach_restrict(dual_wa(w)): for every word u,
    mat_vec(first.embedding, v_u) == vec_mat(v'_u, embedding), where v_u and
    v'_u are the forward vectors of w and of the result after reading u.
    """
    first = reach_restrict(dual_wa(w))
    return reach_restrict(dual_wa(first.automaton))


def equiv_wa(a: WeightedAutomaton, b: WeightedAutomaton) -> bool:
    """Exact equivalence of two automata over Q or Z with one alphabet
    (Schützenberger; Tzeng, SIAM J. Comput. 1992).

    The block-diagonal difference automaton, with initial vector (i_a, i_b)
    and final vector (f_a, -f_b), recognises series(a) - series(b), which is
    zero iff its final vector vanishes on the reachable submodule.
    """
    sr = a.semiring
    zero = sr.zero()
    n = a.n + b.n
    mats = {x: Matrix(sr, n, n, tuple(row + (zero,) * b.n for row in a.mats[x].entries)
                      + tuple((zero,) * a.n + row for row in b.mats[x].entries))
            for x in a.alphabet}
    diff = WeightedAutomaton(n, a.alphabet, sr, mats, a.init + b.init,
                             a.final + tuple(sr.neg(x) for x in b.final))
    return all(x == zero for x in reach_restrict(diff).automaton.final)


def hankel_rank_oracle(w: WeightedAutomaton, max_len: int,
                       max_states: int | None = None) -> int:
    """Rank over Q of the finite Hankel block H[u][v] = series(u.v), |u|,|v| <= max_len.

    Independent minimality oracle for series over semirings that embed in the
    rationals; for an automaton with n states any max_len >= n - 1 already
    reaches the rank of the full Hankel matrix.  The block has one row and
    one column per word; more words than the state bound raise
    StateGuardError before any work is done.

    H is the backward vectors times the forward vectors, so its rank is that
    of the pairing between their two spans.  Each span is built here, apart
    from the minimiser's reach_restrict, one word length at a time; once a
    length adds nothing to a span, no longer length does, so the work stops
    there, whatever max_len is.
    """
    bounded_words(w.alphabet, max_len, max_states, "Hankel block")  # counts, lists none
    to_q = w.semiring.to_fraction
    mats = {a: Matrix(RATIONAL, w.n, w.n, tuple(tuple(map(to_q, row)) for row in m.entries))
            for a, m in w.mats.items()}
    # forward vectors extend at the end, backward vectors at the front
    forward = _span_by_length(tuple(map(to_q, w.init)), lambda v, a: mat_vec(mats[a], v),
                              w.alphabet, max_len)
    backward = _span_by_length(tuple(map(to_q, w.final)), lambda v, a: vec_mat(v, mats[a]),
                               w.alphabet, max_len)
    # the pairing's matrix, scaled by the two bases' common denominators
    pairing = FieldBasis(forward.rank)
    for b in backward.nums:
        pairing, _ = pairing.insert(tuple(sum(map(mul, b, f)) for f in forward.nums))
    return pairing.rank


def _span_by_length(start: tuple, step, alphabet, max_len: int) -> FieldBasis:
    """The span of the vectors step gives from start along the words up to
    max_len, one length at a time: each length steps only the vectors that
    grew the span at the length before, and stops when there are none."""
    basis, grew = FieldBasis(len(start)).insert(start)
    frontier = [start] if grew else []
    for _ in range(max_len):
        grown = []
        for v in frontier:
            for a in alphabet:
                u = step(v, a)
                basis, grew = basis.insert(u)
                if grew:
                    grown.append(u)
        if not grown:
            break
        frontier = grown
    return basis


def bool_wa_to_nfa(w: WeightedAutomaton) -> Nfa:
    """Decode a Boolean-semiring weighted automaton as a classical NFA."""
    if w.semiring is not BOOL:
        raise SemiringError("expected a Boolean weighted automaton")
    trans = {}
    for a in w.alphabet:
        m = w.mats[a]
        trans[a] = tuple(frozenset(y for y in range(w.n) if m.entries[y][x]) for x in range(w.n))
    return Nfa(w.n, w.alphabet, trans,
               inits=frozenset(x for x in range(w.n) if w.init[x]),
               finals=frozenset(x for x in range(w.n) if w.final[x]),
               state_names=w.state_names)

