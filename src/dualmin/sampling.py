"""Seeded random generators for the differential test suites."""

from __future__ import annotations

import random
from fractions import Fraction

from .alternating import AlternatingAutomaton, BoolFun
from .automata import MooreAutomaton
from .dkm import Dkm
from .semiring import BOOL, INT, RATIONAL, Matrix, Semiring
from .weighted import WeightedAutomaton

LETTERS = ("a", "b", "c")


def _alphabet(rng: random.Random, max_letters: int) -> tuple[str, ...]:
    return LETTERS[:rng.randint(1, max_letters)]


def random_moore(rng: random.Random, max_n: int = 8, max_letters: int = 3,
                 max_outputs: int = 3) -> MooreAutomaton:
    n = rng.randint(1, max_n)
    alphabet = _alphabet(rng, max_letters)
    k = rng.randint(1, max_outputs)
    outputs = tuple(f"o{i}" for i in range(k))
    trans = {a: tuple(rng.randrange(n) for _ in range(n)) for a in alphabet}
    out = tuple(rng.randrange(k) for _ in range(n))
    return MooreAutomaton(n, alphabet, trans, rng.randrange(n), out, outputs)


def random_dfa(rng: random.Random, max_n: int = 8, max_letters: int = 3) -> MooreAutomaton:
    n = rng.randint(1, max_n)
    alphabet = _alphabet(rng, max_letters)
    trans = {a: tuple(rng.randrange(n) for _ in range(n)) for a in alphabet}
    accepting = [s for s in range(n) if rng.random() < 0.5]
    return MooreAutomaton.dfa(n, alphabet, trans, rng.randrange(n), accepting)


def _entry(rng: random.Random, semiring: Semiring, lo: int, hi: int):
    if semiring is RATIONAL:
        return Fraction(rng.randint(lo, hi), rng.randint(1, 2))
    if semiring is BOOL:
        return rng.randint(0, 1)
    return rng.randint(lo, hi)


def random_wa(rng: random.Random, semiring: Semiring = INT, max_n: int = 4,
              max_letters: int = 2, lo: int = -2, hi: int = 2) -> WeightedAutomaton:
    n = rng.randint(1, max_n)
    alphabet = _alphabet(rng, max_letters)
    mats = {a: Matrix(semiring, n, n,
                      tuple(tuple(_entry(rng, semiring, lo, hi) for _ in range(n))
                            for _ in range(n)))
            for a in alphabet}
    init = tuple(_entry(rng, semiring, lo, hi) for _ in range(n))
    final = tuple(_entry(rng, semiring, lo, hi) for _ in range(n))
    return WeightedAutomaton(n, alphabet, semiring, mats, init, final)


def random_boolfun(rng: random.Random, n: int) -> BoolFun:
    return BoolFun.from_table(n, sum(1 << mask for mask in range(1 << n) if rng.random() < 0.5))


def random_afa(rng: random.Random, max_n: int = 3, max_letters: int = 2) -> AlternatingAutomaton:
    n = rng.randint(1, max_n)
    alphabet = _alphabet(rng, max_letters)
    delta = {a: tuple(random_boolfun(rng, n) for _ in range(n)) for a in alphabet}
    iota = random_boolfun(rng, n)
    finals = frozenset(s for s in range(n) if rng.random() < 0.5)
    return AlternatingAutomaton(n, alphabet, delta, iota, finals)


def random_dkm(rng: random.Random, max_n: int = 6, max_letters: int = 2,
               max_obs: int = 2) -> Dkm:
    n = rng.randint(1, max_n)
    alphabet = _alphabet(rng, max_letters)
    obs = tuple(f"p{i}" for i in range(rng.randint(1, max_obs)))
    gamma = tuple(frozenset(w for w in obs if rng.random() < 0.5) for _ in range(n))
    delta = {a: tuple(rng.randrange(n) for _ in range(n)) for a in alphabet}
    return Dkm(n, alphabet, obs, gamma, delta, rng.randrange(n))


def random_int_matrix(rng: random.Random, n_rows: int, n_cols: int,
                      lo: int = -9, hi: int = 9) -> Matrix:
    return Matrix(INT, n_rows, n_cols,
                  tuple(tuple(rng.randint(lo, hi) for _ in range(n_cols))
                        for _ in range(n_rows)))
