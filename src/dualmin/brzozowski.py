"""Brzozowski-style minimisation of Moore automata through the dual automaton.

The dual automaton of M lives on predicates over M's states (total functions
X -> B, stored as value vectors).  Reading a letter precomposes a predicate
with the transition map, the initial predicate is M's output map, and a
predicate outputs its value at M's initial state.  The dual accepts the
reversed language, and applying the construction twice yields the reachable,
observable (hence minimal) automaton for the original language.

A two-output dual names each state by its members (`x+z`), so `dual` twice
nests names (`x+z,y+z`).  A double reversal instead runs its first pass
unnamed, so its states are named by first-pass index (`s0+s3`): the nested
names would be n labels in each of n members of each of n states.

`explore_predicates` is the one predicate step: from the output map it gives
the dual, from one 0/1 predicate per observation the definable closure of a
Kripke model (dkm.py).  Only reachable predicates are stored, each once,
behind the configurable state bound that guards the |B|^n worst case.
Minimisation by the atoms of that closure needs no predicates at all: the
atoms are the coarsest stable partition of the outputs or observations, so
`automata.partition_refinement_minimise` is the duality route for a Moore
automaton, and `dkm.minimise_dkm` for a Kripke model.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

from .automata import MooreAutomaton, explore, subset_names
from .errors import DEFAULT_MAX_STATES


def explore_predicates(starts, trans, alphabet, max_states=DEFAULT_MAX_STATES,
                       what="dual automaton"):
    """Closure of the predicates `starts` (value vectors over the states) under
    phi -> phi . trans[a] for every letter a, as explore's (order, trans).
    Predicates are `bytes`, one byte per state, unless a value exceeds 255."""
    starts = list(starts)
    pack = bytes if all(v < 256 for phi in starts for v in phi) else tuple
    # itemgetter(t) returns a scalar; with n <= 1 states every step is phi[0:n]
    gets = {a: itemgetter(*ts) if len(ts) > 1 else itemgetter(slice(0, len(ts)))
            for a, ts in trans.items()}
    return explore(map(pack, starts), lambda phi, a: pack(gets[a](phi)),
                   alphabet, max_states, what)


def dual_automaton(m: MooreAutomaton, max_states: int = DEFAULT_MAX_STATES,
                   named: bool = True) -> MooreAutomaton:
    """The automaton on predicates B^X reachable from the output map.

    run(dual_automaton(m), w) = run(m, reversed(w)) for every word w.  For the
    Boolean case the predicates are the 0/1 rows of subsets, and unless
    `named` is false each state is named from its row (`subset_names`).
    """
    order, trans = explore_predicates([m.out], m.trans, m.alphabet, max_states)
    out = tuple(phi[m.init] for phi in order)
    names = None
    if named and len(m.outputs) == 2:
        names = subset_names(order, m.state_names, m.n)
    return MooreAutomaton(len(order), m.alphabet,
                          {a: tuple(ts) for a, ts in trans.items()},
                          0, out, m.outputs, names)


def brzozowski_minimise(m: MooreAutomaton, max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """Double reversal: the dual applied twice.

    The first pass is reachable by construction, so the second pass is both
    reachable and observable, i.e. the minimal automaton for m's language.
    The first pass is unnamed, so the second names its states by first-pass
    index (`s0+s3`).
    """
    return dual_automaton(dual_automaton(m, max_states, named=False), max_states)


def dual_state_sets(m: MooreAutomaton,
                    max_states: int = DEFAULT_MAX_STATES) -> frozenset[frozenset[int]]:
    """Dual states of a two-output automaton decoded as subsets of m's states."""
    if len(m.outputs) != 2:
        raise ValueError("dual_state_sets needs a two-element output set")
    order = explore_predicates([m.out], m.trans, m.alphabet, max_states)[0]
    return frozenset(frozenset(compress(range(m.n), phi)) for phi in order)


__all__ = ["explore_predicates", "dual_automaton", "brzozowski_minimise", "dual_state_sets"]
