"""Deterministic Kripke models: trace-formula semantics, the definable-subset
closure, the atoms of the Boolean algebra it generates, and the bisimulation
quotient obtained from those atoms.

A trace formula is a modality word followed by a single observation,
<a1>...<ak> w; its extension is computed right to left by taking transition
preimages of the observation's extension.  A preimage is the dual
automaton's predicate step, so the closure of all trace-definable subsets is
the dual pass (`explore_predicates`) from one 0/1 predicate per observation.
The closure can hold exponentially many sets, but it has at most n atoms:
the coarsest partition that refines the observations and that every
letter's preimage respects.  `minimise_dkm` therefore quotients by
`stable_partition`, which is also the coarsest bisimulation, and never lists
the closure; `definable_closure` lists it, for the `closure` verb.
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping

from .automata import (MooreAutomaton, Partition, _check_successors, quotient_rows,
                       stable_partition)
from .brzozowski import explore_predicates
from .errors import DEFAULT_MAX_STATES, Record

DFA_OBS = "p"  # the one observation of a DFA read as a model: "accepting"


class Dkm(Record):
    n: int
    alphabet: tuple[str, ...]
    obs: tuple[str, ...]
    gamma: tuple[frozenset[str], ...]
    delta: Mapping[str, tuple[int, ...]]
    init: int | None = None
    state_names: tuple[str, ...] | None = None
    _uncompared = ("state_names",)
    kind = "dkm"

    def __post_init__(self):
        _check_successors(self.n, self.alphabet, self.delta, self.init)
        if len(set(self.obs)) != len(self.obs):
            raise ValueError("observations must be distinct")
        if len(self.gamma) != self.n or any(not g <= set(self.obs) for g in self.gamma):
            raise ValueError("gamma must assign every state a subset of the observations")

    @classmethod
    def from_dfa(cls, m: MooreAutomaton) -> "Dkm":
        """A DFA as a single-observation model: DFA_OBS holds at accepting states."""
        gamma = tuple(frozenset({DFA_OBS}) if m.out[s] == 1 else frozenset()
                      for s in range(m.n))
        return cls(m.n, m.alphabet, (DFA_OBS,), gamma, dict(m.trans), m.init, m.state_names)


class TraceFormula(Record):
    """<a1>...<ak> obs: a modality word followed by one observation."""

    word: tuple[str, ...]
    obs: str

    def __str__(self):
        return "".join(f"<{a}>" for a in self.word) + self.obs


def eval_trace(k: Dkm, formula: TraceFormula) -> frozenset[int]:
    """Extension of a trace formula, evaluated right to left by preimages."""
    if formula.obs not in k.obs:
        raise ValueError(f"unknown observation {formula.obs!r}")
    current = frozenset(s for s in range(k.n) if formula.obs in k.gamma[s])
    for a in reversed(formula.word):
        if a not in k.delta:
            raise ValueError(f"unknown letter {a!r}")
        row = k.delta[a]
        current = frozenset(s for s in range(k.n) if row[s] in current)
    return current


def definable_closure(k: Dkm, max_states: int = DEFAULT_MAX_STATES) -> frozenset[frozenset[int]]:
    """Least family containing every observation extension and closed under
    transition preimages; equals the set of all trace-formula extensions.
    It starts from one 0/1 predicate per observation: the states where it holds."""
    starts = [[w in g for g in k.gamma] for w in k.obs]
    order = explore_predicates(starts, k.delta, k.alphabet, max_states, "definable closure")[0]
    return frozenset(frozenset(compress(range(k.n), phi)) for phi in order)


def boolean_atoms(family: frozenset[frozenset[int]], n: int) -> Partition:
    """Atoms of the Boolean algebra generated by the family, as a state partition.

    Two states share an atom iff they have the same membership signature
    across every set of the family.  Blocks are numbered by their least
    state, so any fixed order of the family gives the same partition.
    """
    for subset in family:
        if any(not 0 <= s < n for s in subset):
            raise ValueError("family mentions a state out of range")
    return Partition.from_signatures(
        tuple(s in subset for subset in family) for s in range(n))


def quotient_dkm(k: Dkm, part: Partition) -> Dkm:
    """Quotient model on the blocks of a congruence partition."""
    gamma, delta = quotient_rows(part, k.gamma, k.delta, k.alphabet)
    init = part.block_of[k.init] if k.init is not None else None
    return Dkm(part.n_blocks, k.alphabet, k.obs, gamma, delta, init)


def minimise_dkm(k: Dkm) -> Dkm:
    """Bisimulation quotient via duality: the atoms of the definable closure,
    found by refinement without listing the closure."""
    return quotient_dkm(k, bisimulation_oracle(k))


def bisimulation_oracle(k: Dkm) -> Partition:
    """Coarsest partition refining the observation partition and stable under
    every transition, i.e. the atoms of the definable closure.  It is the
    route of minimise_dkm, not an oracle independent of it; the name stays
    because bench/tracing.py wraps it by name."""
    return stable_partition(k.gamma, k.delta, k.alphabet)
