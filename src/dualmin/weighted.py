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
from typing import Iterable, Mapping

from .automata import Nfa, _check_alphabet, words_up_to
from .errors import DimensionError, SemiringError
from .linalg import FieldBasis, IntegerBasis
from .semiring import BOOL, RATIONAL, Matrix, Semiring, mat_mul, mat_vec, vec_mat


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
        _check_alphabet(self.alphabet)
        if set(self.mats) != set(self.alphabet):
            raise ValueError("transition matrices must cover exactly the alphabet")
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

    `basis` is the canonical basis of the immediate restriction; `embedding`
    has one row per restricted state expressed in the original ambient space
    (for a composed pipeline the embeddings are multiplied through).
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
    if any(not w.semiring.eq(x, zero) for x in w.init):
        basis, _ = basis.insert(w.init)
        frontier = deque([w.init])
        while frontier:
            v = frontier.popleft()
            for a in w.alphabet:
                u = mat_vec(w.mats[a], v)
                basis, changed = basis.insert(u)
                if changed:
                    frontier.append(u)

    rows = basis.matrix().entries
    r = basis.rank
    mats = {}
    for a in w.alphabet:
        cols = []
        for b in rows:
            c = basis.coordinates(mat_vec(w.mats[a], b))
            assert c is not None, "closure left the reachable submodule"
            cols.append(c)
        entries = tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))
        mats[a] = Matrix(w.semiring, r, r, entries)
    init = basis.coordinates(w.init) if r else ()
    assert init is not None
    final = tuple(w.semiring.dot(w.final, b) for b in rows)
    restricted = WeightedAutomaton(r, w.alphabet, w.semiring, mats, tuple(init), final)
    return RestrictedWA(restricted, basis, basis.matrix())


def minimise_wa(w: WeightedAutomaton) -> RestrictedWA:
    """Double reversal for weighted automata over Q or Z.

    reach_restrict after dual_wa, twice.  The recognised series is preserved
    exactly; over a field the resulting dimension is the Hankel rank of the
    series, and over Z it never exceeds the original dimension (submodules of
    free finitely generated modules over a PID are free of smaller rank).
    """
    first = reach_restrict(dual_wa(w))
    second = reach_restrict(dual_wa(first.automaton))
    embedding = mat_mul(second.embedding, first.embedding)
    return RestrictedWA(second.automaton, second.basis, embedding)


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
    return all(sr.eq(x, zero) for x in reach_restrict(diff).automaton.final)


def hankel_rank_oracle(w: WeightedAutomaton, max_len: int) -> int:
    """Rank over Q of the finite Hankel block H[u][v] = series(u.v), |u|,|v| <= max_len.

    Independent minimality oracle for series over semirings that embed in the
    rationals; for an automaton with n states any max_len >= n - 1 already
    reaches the rank of the full Hankel matrix.
    """
    to_q = w.semiring.to_fraction
    mats = {a: Matrix.from_rows(RATIONAL, [[to_q(x) for x in row] for row in m.entries],
                                n_cols=w.n) if w.n else Matrix.zeros(RATIONAL, 0, 0)
            for a, m in w.mats.items()}
    init = tuple(to_q(x) for x in w.init)
    final = tuple(to_q(x) for x in w.final)

    words = list(words_up_to(w.alphabet, max_len))
    forward: dict[tuple[str, ...], tuple] = {(): init}
    backward: dict[tuple[str, ...], tuple] = {(): final}
    for word in words:
        if not word:
            continue
        # forward vectors extend at the end, backward vectors at the front
        forward[word] = mat_vec(mats[word[-1]], forward[word[:-1]])
        backward[word] = vec_mat(backward[word[1:]], mats[word[0]])
    basis = FieldBasis(len(words))
    for u in words:
        row = tuple(RATIONAL.dot(backward[v], forward[u]) for v in words)
        basis, _ = basis.insert(row)
    return basis.rank


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


def nfa_to_bool_wa(n: Nfa) -> WeightedAutomaton:
    """Encode a classical NFA as a Boolean-semiring weighted automaton."""
    mats = {}
    for a in n.alphabet:
        rows = [[1 if y in n.trans[a][x] else 0 for x in range(n.n)] for y in range(n.n)]
        mats[a] = Matrix.from_rows(BOOL, rows, n_cols=n.n) if n.n else Matrix.zeros(BOOL, 0, 0)
    return WeightedAutomaton(n.n, n.alphabet, BOOL, mats,
                             init=tuple(1 if s in n.inits else 0 for s in range(n.n)),
                             final=tuple(1 if s in n.finals else 0 for s in range(n.n)),
                             state_names=n.state_names)
