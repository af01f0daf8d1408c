"""Differential property suites behind the `selftest` CLI verb.

Each suite draws seeded random instances and checks an implementation against
an independent route: double reversal against partition refinement, dual
evaluation against reversed words, minimised dimensions against Hankel ranks,
Hermite forms against their defining equations, the definable-subset atoms
against plain partition refinement, and the definable closure against the
subsets that determinising the reversal reaches.  A suite checks one instance
per call and returns what failed, or None.
"""

from __future__ import annotations

import random
from typing import Callable

from . import sampling
from .alternating import afa_accepts, minimal_dfa_for_afa, reverse_dfa
from .automata import (determinise, equiv_exact, iso_check, partition_refinement_minimise,
                       reverse, run, subset_names, words_up_to)
from .brzozowski import brzozowski_minimise, dual_automaton
from .dkm import (Dkm, bisimulation_oracle, boolean_atoms, definable_closure, minimise_dkm,
                  quotient_dkm)
from .linalg import IntegerBasis, det_int, hnf, is_hnf_shape
from .semiring import INT, RATIONAL, mat_mul
from .weighted import eval_series, hankel_rank_oracle, minimise_wa


def _check_moore(rng):
    m = sampling.random_moore(rng)
    brz = brzozowski_minimise(m)
    if not iso_check(brz, partition_refinement_minimise(m)):
        return f"double reversal vs refinement differ on {m}"
    if not equiv_exact(brz, m):
        return f"double reversal changed the language of {m}"


def _check_reversal(rng):
    m = sampling.random_moore(rng, max_n=6)
    dual = dual_automaton(m)
    for w in words_up_to(m.alphabet, 6):
        if run(dual, w) != run(m, tuple(reversed(w))):
            return f"dual disagrees on {w} for {m}"


def _check_weighted_field(rng):
    w = sampling.random_wa(rng, RATIONAL)
    minimal = minimise_wa(w)
    if minimal.dimension != hankel_rank_oracle(w, w.n):
        return f"field dimension is not the Hankel rank for {w}"
    for word in words_up_to(w.alphabet, 4):
        if eval_series(minimal.automaton, word) != eval_series(w, word):
            return f"field minimisation changed the series at {word} for {w}"


def _check_weighted_int(rng):
    w = sampling.random_wa(rng, INT)
    minimal = minimise_wa(w)
    if minimal.dimension > w.n:
        return f"integer minimisation grew {w}"
    if hankel_rank_oracle(w, w.n) > minimal.dimension:
        return f"integer dimension below the rational rank for {w}"
    if minimise_wa(minimal.automaton).dimension != minimal.dimension:
        return f"integer minimisation is not idempotent in dimension for {w}"
    for word in words_up_to(w.alphabet, 4):
        if eval_series(minimal.automaton, word) != eval_series(w, word):
            return f"integer minimisation changed the series at {word} for {w}"


def _check_hnf(rng):
    a = sampling.random_int_matrix(rng, 4, 4)
    h, u = hnf(a)
    if mat_mul(u, a) != h:
        return f"u*a != h for {a.entries}"
    if abs(det_int(u)) != 1:
        return f"u not unimodular for {a.entries}"
    rows = tuple(r for r in h.entries if any(r))
    if not is_hnf_shape(rows):
        return f"h not canonical for {a.entries}"
    if any(IntegerBasis(4, rows).coordinates(row) is None for row in a.entries):
        return f"row of a outside the lattice of h for {a.entries}"


def _check_afa(rng):
    a = sampling.random_afa(rng)
    rev = reverse_dfa(a)
    for w in words_up_to(a.alphabet, 6):
        if (run(rev, w) == 1) != afa_accepts(a, tuple(reversed(w))):
            return f"reversal theorem fails at {w} for {a}"
    oracle = partition_refinement_minimise(determinise(reverse(reverse_dfa(a))))
    if not iso_check(minimal_dfa_for_afa(a), oracle):
        return f"afa minimisation differs from the oracle for {a}"


def _check_dkm(rng):
    k = sampling.random_dkm(rng)
    atoms = boolean_atoms(definable_closure(k), k.n)
    if atoms != bisimulation_oracle(k):
        return f"definable atoms differ from bisimulation on {k}"
    minimal = minimise_dkm(k)
    if minimal != quotient_dkm(k, atoms) or minimise_dkm(minimal) != minimal:
        return f"dkm minimisation is not the atoms' quotient or not idempotent on {k}"


def _check_cross(rng):
    m = sampling.random_dfa(rng, max_n=6)
    names = subset_names(definable_closure(Dkm.from_dfa(m)), m.state_names, m.n)
    if set(names) != set(determinise(reverse(m)).state_names):
        return f"definable closure differs from the determinised reversal on {m}"


SUITES: dict[str, Callable] = {
    "moore-minimise": _check_moore,
    "language-reversal": _check_reversal,
    "weighted-rational": _check_weighted_field,
    "weighted-integer": _check_weighted_int,
    "hermite-normal-form": _check_hnf,
    "alternating": _check_afa,
    "kripke-quotient": _check_dkm,
    "closure-vs-dual": _check_cross,
}


def run_selftest(seed: int = 0, cases: int = 50) -> bool:
    """Run every suite on `cases` fresh instances, up to its first failure;
    print one line per suite."""
    all_ok = True
    for name, check in SUITES.items():
        rng = random.Random(f"{seed}:{name}")
        failure = next(filter(None, (check(rng) for _ in range(cases))), None)
        print(f"FAIL {name}: {failure}" if failure else f"PASS {name} ({cases} cases)")
        all_ok = all_ok and failure is None
    return all_ok
