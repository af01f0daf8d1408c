"""Brzozowski minimisation: the dual automaton, taken twice.

The dual of an automaton is a reachable DFA for its reversed language.  Of a
Moore automaton M (a DFA included) it lives on predicates over M's states
(value vectors X -> B): it starts at the output map, reading a letter
precomposes a predicate with the transition map, and a predicate outputs its
value at M's initial state.  Of an NFA it is the subset DFA of the reversal
(for a DFA the same automaton, names included), and of an AFA the reachable
part of its reversed DFA (alternating.py).  Each stores only reachable
states, behind the state bound, and a dual is reachable, so the dual of the
dual is reachable and observable: the minimal automaton.

A DFA's, an NFA's or an AFA's dual names each state by its members (`x+z`),
so `dual` twice nests names (`x+z,y+z`); other Moore duals are unnamed.  A
double reversal names neither pass, so it is the canonical minimal automaton,
numbered breadth first (`s0`, `s1`, ...): what partition refinement builds.

`predicates` gives the one predicate step, in C: with at most 256 states a
`bytes.translate` of the letter's successor row through the predicate, past
that an `itemgetter` gather.  Explored from the output map it gives the
dual, from one 0/1 predicate per observation a Kripke model's definable
closure, and walked along a reversed word a trace formula's extension
(dkm.py).  Minimisation by the atoms of that closure needs no
predicates at all: the atoms are the coarsest stable partition of the outputs
or observations, so `automata.partition_refinement_minimise` is the duality
route for a Moore automaton, and `dkm.minimise_dkm` for a Kripke model.
"""

from __future__ import annotations

from operator import itemgetter

import dualmin

from .automata import DFA_OUTPUTS, MooreAutomaton, explore, subset_dfa, subset_names
from .errors import DEFAULT_MAX_STATES


def predicates(starts, trans) -> tuple:
    """The predicates `starts` (value vectors over the states), packed, and
    the step phi -> phi . trans[a]: explore's starts and step.  Predicates
    are `bytes`, one byte per state, unless a value exceeds 255.  With at
    most 256 states, a letter's successor row is itself a byte string, and
    the step is one `translate` of it through phi (padded to the 256 bytes
    of a table); with more, the step gathers phi's bytes by `itemgetter`."""
    starts = list(starts)
    pack = bytes if all(v < 256 for phi in starts for v in phi) else tuple
    if pack is bytes and all(len(ts) <= 256 for ts in trans.values()):
        rows = {a: bytes(ts) for a, ts in trans.items()}
        return list(map(bytes, starts)), lambda phi, a: rows[a].translate(phi.ljust(256, b"\0"))
    # itemgetter(t) returns a scalar; with n <= 1 states every step is phi[0:n]
    gets = {a: itemgetter(*ts) if len(ts) > 1 else itemgetter(slice(0, len(ts)))
            for a, ts in trans.items()}
    return list(map(pack, starts)), lambda phi, a: pack(gets[a](phi))


def dual_automaton(x, max_states: int = DEFAULT_MAX_STATES,
                   named: bool = True) -> MooreAutomaton:
    """The dual of a Moore automaton, an NFA or an AFA (module docstring):
    run(dual_automaton(x), w) is x's verdict on reversed(w).  Unless `named`
    is false a DFA's, an NFA's or an AFA's dual names states by members."""
    if x.kind in ("nfa", "afa"):  # an AFA's view already reads words from their end
        return subset_dfa(dualmin.reverse(x) if x.kind == "nfa" else x, max_states, named=named)
    order, trans = explore(*predicates([x.out], x.trans), x.alphabet, max_states,
                           "dual automaton")
    names = None
    if named and x.outputs == DFA_OUTPUTS:
        names = subset_names(order, x.state_names, x.n)
    out = tuple(phi[x.init] for phi in order)
    del order  # the predicates go before the successor tuples are built
    return MooreAutomaton(len(out), x.alphabet, {a: tuple(ts) for a, ts in trans.items()},
                          0, out, x.outputs, names)


def brzozowski_minimise(x, max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """Double reversal of a Moore automaton, an NFA or an AFA: the first pass
    is reachable by construction, so the second, unnamed and explored breadth
    first, is reachable and observable: the canonical minimal automaton."""
    return dual_automaton(dual_automaton(x, max_states, named=False), max_states, named=False)


__all__ = ["predicates", "dual_automaton", "brzozowski_minimise"]
