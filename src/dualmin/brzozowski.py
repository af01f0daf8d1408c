"""Brzozowski-style minimisation of Moore automata through the dual automaton.

The dual automaton of M lives on predicates over M's states (total functions
X -> B, stored as value vectors).  Reading a letter precomposes a predicate
with the transition map, the initial predicate is M's output map, and a
predicate outputs its value at M's initial state.  The dual accepts the
reversed language, and applying the construction twice yields the reachable,
observable (hence minimal) automaton for the original language.

Only predicates reachable from the output map are ever materialised; a
hash-indexed frontier keeps each element of B^X to a single copy, and the
configurable state bound guards against the |B|^n worst case.  A predicate is
packed as `bytes`, one byte per state, unless B has more than 256 outputs.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .automata import MooreAutomaton, explore, subset_names
from .errors import resolve_max_states


def _explore_dual(m: MooreAutomaton, max_states):
    pack = bytes if len(m.outputs) <= 256 else tuple
    # itemgetter of one index returns a scalar, so one state takes a slice
    gets = {a: itemgetter(*ts) if m.n > 1 else itemgetter(slice(ts[0], ts[0] + 1))
            for a, ts in m.trans.items()}
    return explore([pack(m.out)], lambda phi, a: pack(gets[a](phi)),
                   m.alphabet, resolve_max_states(max_states), "dual automaton")


def _members(m: MooreAutomaton, order) -> list[tuple[int, ...]]:
    """Boolean predicates decoded as the ascending states where they hold."""
    states = range(m.n)
    return [tuple(compress(states, phi)) for phi in order]


def dual_automaton(m: MooreAutomaton, max_states: int | None = None) -> MooreAutomaton:
    """The automaton on predicates B^X reachable from the output map.

    run(dual_automaton(m), w) = run(m, reversed(w)) for every word w.  For the
    Boolean case the predicates decode to subsets, and the states are named so.
    """
    order, trans = _explore_dual(m, max_states)
    out = tuple(phi[m.init] for phi in order)
    names = subset_names(_members(m, order), m.state_names) if len(m.outputs) == 2 else None
    return MooreAutomaton(len(order), m.alphabet,
                          {a: tuple(ts) for a, ts in trans.items()},
                          0, out, m.outputs, names)


def brzozowski_minimise(m: MooreAutomaton, max_states: int | None = None) -> MooreAutomaton:
    """Double reversal: the dual applied twice.

    The first pass is reachable by construction, so the second pass is both
    reachable and observable, i.e. the minimal automaton for m's language.
    """
    return dual_automaton(dual_automaton(m, max_states), max_states)


def dual_state_sets(m: MooreAutomaton, max_states: int | None = None) -> frozenset[frozenset[int]]:
    """Dual states of a two-output automaton decoded as subsets of m's states."""
    if len(m.outputs) != 2:
        raise ValueError("dual_state_sets needs a two-element output set")
    order, _ = _explore_dual(m, max_states)
    return frozenset(map(frozenset, _members(m, order)))


__all__ = ["dual_automaton", "brzozowski_minimise", "dual_state_sets"]
