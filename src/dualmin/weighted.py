"""Weighted automata over exact semirings: formal power series evaluation, the
transpose (self-dual) adjunction, restriction to the reachable submodule,
minimisation over the rationals (a field) and over the integers (a principal
ideal domain), and exact equivalence over both.  One walk, `_span`, saturates
every span: the reachable submodule, the Hankel oracle's two spans, and the
span of the pairs of forward vectors that decides equivalence.

Matrix convention: t_a acts on column vectors of state weights and entry
t_a[y][x] is the weight of the transition x -> y on letter a.  The initial
vector is a column, the final vector a row, and reading w = a1..ak computes
final * t_ak * ... * t_a1 * init.

A WeightedAutomaton reads and writes its own file document (`from_document`,
`document`).  The linear algebra's bases and the classical Nfa are read as
`dualmin.<name>`, so a call over Q or Z loads no Boolean-automaton code and a
Boolean one no linear algebra.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import mul

import dualmin

from .errors import (DimensionError, FormatError, Record, SemiringError, _check_alphabet,
                     _check_names, state_labels)
from .io import _require, _transitions, emit_value
from .semiring import BOOL, Matrix, Semiring, mat_vec, semiring_by_name, vec_mat


class WeightedAutomaton(Record):
    n: int
    alphabet: tuple[str, ...]
    semiring: Semiring
    mats: Mapping[str, Matrix]
    init: tuple  # column vector, length n
    final: tuple  # row vector, length n
    state_names: tuple[str, ...] | None = None
    _uncompared = ("state_names",)
    kind = "weighted"

    def __post_init__(self):
        _check_alphabet(self.alphabet, self.mats)
        for a, mat in self.mats.items():
            if mat.n_rows != self.n or mat.n_cols != self.n:
                raise DimensionError(f"matrix for {a!r} is {mat.n_rows}x{mat.n_cols}, want {self.n}x{self.n}")
            if mat.semiring is not self.semiring:
                raise SemiringError(f"matrix for {a!r} uses {mat.semiring.name}")
        if len(self.init) != self.n or len(self.final) != self.n:
            raise DimensionError("initial/final vectors must have length n")
        _check_names(self.state_names, self.n)

    @classmethod
    def build(cls, alphabet, semiring: Semiring, mats, init, final, state_names=None):
        """Coerce raw entries through the semiring and validate shapes."""
        init = tuple(semiring.coerce(v) for v in init)
        n = len(init)
        matrices = {a: Matrix.from_rows(semiring, rows, n_cols=n) for a, rows in mats.items()}
        return cls(n, tuple(alphabet), semiring, matrices, init,
                   tuple(semiring.coerce(v) for v in final),
                   tuple(state_names) if state_names else None)

    @classmethod
    def from_document(cls, doc: dict, alphabet, names, semiring: str | None = None):
        """The automaton of a weighted file's document, its values read in
        `semiring` when one is named (the file's own must still be valid)."""
        own = semiring_by_name(_require(doc, "semiring", str))
        semiring = semiring_by_name(semiring) if semiring else own
        n = len(names)
        mats = {}
        for a, rows in _transitions(doc, alphabet).items():
            if not isinstance(rows, list) or len(rows) != n \
                    or any(not isinstance(r, list) or len(r) != n for r in rows):
                raise FormatError(f"matrix must be {n}x{n}", f"transitions.{a}")
            mats[a] = Matrix(semiring, n, n, tuple(
                tuple(_parse_value(semiring, v, f"transitions.{a}[{y}][{x}]")
                      for x, v in enumerate(row)) for y, row in enumerate(rows)))
        vectors = []
        for key in ("initial", "final"):
            raw_vector = _require(doc, key, list)
            if len(raw_vector) != n:
                raise FormatError(f"{key} vector must have length {n}", key)
            vectors.append(tuple(_parse_value(semiring, v, f"{key}[{i}]")
                                 for i, v in enumerate(raw_vector)))
        return cls(n, alphabet, semiring, mats, *vectors, names)

    def document(self) -> dict:
        """The JSON document of the automaton, its values in the file's number forms."""
        names, semiring = state_labels(self.state_names, self.n), self.semiring
        return {"type": "weighted", "semiring": semiring.name,
                "alphabet": list(self.alphabet), "states": list(names),
                "initial": [emit_value(semiring, v) for v in self.init],
                "final": [emit_value(semiring, v) for v in self.final],
                "transitions": {a: [[emit_value(semiring, v) for v in row]
                                    for row in self.mats[a].entries]
                                for a in self.alphabet}}


def _parse_value(semiring, raw, path):
    try:
        return semiring.coerce(raw)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc), path) from None


class RestrictedWA(Record):
    """A weighted automaton together with the change of coordinates that embeds
    its states back into the space it was carved out of.

    `basis` is the canonical basis of the restriction; `embedding` has one row
    per restricted state, in the coordinates of the automaton that
    reach_restrict was given.
    """

    automaton: WeightedAutomaton
    basis: dualmin.FieldBasis | dualmin.IntegerBasis
    embedding: Matrix
    kind = "restricted"

    @property
    def dimension(self) -> int:
        return self.automaton.n

    def document(self) -> dict:
        """The restricted automaton's document: the basis is not written."""
        return self.automaton.document()


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


def reach_restrict(w: WeightedAutomaton) -> RestrictedWA:
    """Restrict to the submodule generated by the initial vector under all t_a.

    The closure of {init} is computed by saturating a canonical basis; the
    returned automaton is the conjugate of w by that basis and recognises the
    same series with dimension rank(basis) <= n.
    """
    if not w.semiring.is_ring:
        raise SemiringError(f"reachable restriction needs a field or PID, got {w.semiring.name}")
    empty = (dualmin.FieldBasis if w.semiring.is_field else dualmin.IntegerBasis)(w.n)
    basis = _span(empty, w.init, lambda v, a: mat_vec(w.mats[a], v), w.alphabet)
    embedding, r = basis.matrix(), basis.rank
    mats = {}
    for a in w.alphabet:  # the invariants are raised, not asserted, so python -O keeps them
        cols = tuple(basis.coordinates(mat_vec(w.mats[a], b)) for b in embedding.entries)
        if None in cols:
            raise AssertionError("closure left the reachable submodule")
        mats[a] = Matrix(w.semiring, r, r, cols).transpose()
    init = basis.coordinates(w.init)
    if init is None:
        raise AssertionError("initial vector left the reachable submodule")
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

    At each word, series(a) - series(b) is the linear form f_a.x - f_b.y on
    the pair (x, y) of the two forward vectors, so the series are equal iff
    the form vanishes on each basis row of the pairs' span.  The span is taken
    over Q for Z too: a form vanishes on a Z-span iff it does on its Q-span.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("equiv_wa: alphabets differ")
    if a.semiring is not b.semiring:
        raise ValueError("equiv_wa: semirings differ")
    if not a.semiring.is_ring:
        raise SemiringError(f"equiv_wa needs a ring, got {a.semiring.name}")
    n, dot = a.n, a.semiring.dot
    pairs = _span(dualmin.FieldBasis(n + b.n), a.init + b.init,
                  lambda v, x: mat_vec(a.mats[x], v[:n]) + mat_vec(b.mats[x], v[n:]), a.alphabet)
    return all(dot(a.final, row[:n]) == dot(b.final, row[n:]) for row in pairs.nums)


def hankel_rank_oracle(w: WeightedAutomaton, max_len: int) -> int:
    """Rank over Q of the finite Hankel block H[u][v] = series(u.v), |u|,|v| <= max_len.

    Independent minimality oracle for series over Z and Q, read as rationals as
    they are (any other semiring is a SemiringError); for an automaton with n
    states any max_len >= n - 1 already reaches the rank of the full Hankel matrix.

    H is the backward vectors times the forward vectors, so its rank is that
    of the pairing between their two spans.  `_span` builds each one length at
    a time and stops, after at most n lengths whatever max_len is, at the first
    length that adds nothing.  The pairing is the oracle's own: the tests check
    it against the block itself (`hankel_basis_by_pairs` and
    `hankel_basis_by_block` in tests/oracles.py).
    """
    # a Boolean automaton read over Q would count its accepting paths
    if not w.semiring.is_ring:
        raise SemiringError(f"{w.semiring.name}: does not embed in the rationals")
    # forward vectors extend at the end, backward vectors at the front
    forward = _span(dualmin.FieldBasis(w.n), w.init,
                    lambda v, a: mat_vec(w.mats[a], v), w.alphabet, max_len)
    backward = _span(dualmin.FieldBasis(w.n), w.final,
                     lambda v, a: vec_mat(v, w.mats[a]), w.alphabet, max_len)
    # the pairing's matrix, scaled by the two bases' common denominators
    pairing = dualmin.FieldBasis(forward.rank)
    for b in backward.nums:
        pairing, _ = pairing.insert(tuple(sum(map(mul, b, f)) for f in forward.nums))
    return pairing.rank


def _span(basis, start: tuple, step, alphabet, max_len: int = -1):
    """basis saturated with start and the vectors step gives from it along
    the words of up to max_len letters (any length when max_len < 0), one
    length at a time: a length steps, in insertion order, only the vectors
    that grew the span at the length before, and the walk stops when none did."""
    basis, grew = basis.insert(start)
    frontier = [start] if grew else []
    while frontier and max_len != 0:
        max_len -= 1
        grown = []
        for v in frontier:
            for a in alphabet:
                u = step(v, a)
                basis, grew = basis.insert(u)
                if grew:
                    grown.append(u)
        frontier = grown
    return basis


def bool_wa_to_nfa(w: WeightedAutomaton) -> dualmin.Nfa:
    """Decode a Boolean-semiring weighted automaton as a classical NFA."""
    if w.semiring is not BOOL:
        raise SemiringError("expected a Boolean weighted automaton")
    trans = {}
    for a in w.alphabet:
        m = w.mats[a]
        trans[a] = tuple(frozenset(y for y in range(w.n) if m.entries[y][x]) for x in range(w.n))
    return dualmin.Nfa(w.n, w.alphabet, trans,
               inits=frozenset(x for x in range(w.n) if w.init[x]),
               finals=frozenset(x for x in range(w.n) if w.final[x]),
               state_names=w.state_names)

