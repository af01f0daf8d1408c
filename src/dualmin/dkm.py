"""Deterministic Kripke models: trace-formula semantics, the definable-subset
closure, the atoms of the Boolean algebra it generates, and the bisimulation
quotient obtained from those atoms.

A trace formula is a modality word followed by a single observation,
<a1>...<ak> w; its extension is computed right to left by taking transition
preimages of the observation's extension.  A preimage is the dual
automaton's predicate step (`brzozowski.predicates`): a trace formula walks
it from the observation's 0/1 predicate along the reversed word, and the
closure of all trace-definable subsets is the dual pass that explores it
from one 0/1 predicate per observation.
The closure can hold exponentially many sets, but it has at most n atoms:
the coarsest partition that refines the observations and that every
letter's preimage respects.  `minimise_dkm` therefore quotients by
`stable_partition`, which is also the coarsest bisimulation, and never lists
the closure; `definable_closure` lists it, for the `closure` verb.  It lists
each set as the exploration stores it, a 0/1 `bytes` row over the states
(about 70 bytes a set of 30 states; a frozenset of its members takes about
1,200), and `boolean_atoms` reads the atoms off the rows' columns; only the
verb's printing turns a row into names.  A Dkm reads and writes its own file
document (`from_document`, `document`).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import compress

from .automata import (MooreAutomaton, Partition, _check_successors, by_rows, explore,
                       quotient_rows, stable_partition, walk)
from .brzozowski import predicates
from .errors import DEFAULT_MAX_STATES, FormatError, Record, _check_names, quoted, state_labels
from .io import _det_transitions, _distinct, _name_list, _require, _state_index

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
        _check_names(self.state_names, self.n)

    def view(self) -> tuple:
        """The (start, key, step) triple, each state keyed by its observation set."""
        if self.init is None:
            raise ValueError("this model has no initial state")
        return by_rows(self.init, self.gamma, self.delta)

    @classmethod
    def from_document(cls, doc: dict, alphabet, names, states: dict[str, int]) -> "Dkm":
        """The model of a dkm file's document; `states` maps each name to its index."""
        obs = _name_list(_require(doc, "obs", list), "obs")
        raw_gamma = _require(doc, "gamma", dict)
        for name in raw_gamma:
            _state_index(name, states, f"gamma.{name}")
        gamma = []
        for name in names:
            seen = raw_gamma.get(name, [])
            if not isinstance(seen, list):
                raise FormatError("expected a list of observations", f"gamma.{name}")
            for w in seen:
                if w not in obs:
                    raise FormatError(f"unknown observation {quoted(w)}", f"gamma.{name}")
            gamma.append(frozenset(_distinct(seen, f"gamma.{name}")))
        delta = _det_transitions(doc, alphabet, states)
        init = None
        if doc.get("initial") is not None:
            init = _state_index(doc["initial"], states, "initial")
        return cls(len(names), alphabet, obs, tuple(gamma), delta, init, names)

    def document(self) -> dict:
        """The JSON document of the model; "initial" only when it has an initial state."""
        names = state_labels(self.state_names, self.n)
        doc = {"type": "dkm", "alphabet": list(self.alphabet), "states": list(names),
               "obs": list(self.obs),
               "gamma": {names[s]: sorted(self.gamma[s]) for s in range(self.n)},
               "transitions": {a: {names[s]: names[self.delta[a][s]] for s in range(self.n)}
                               for a in self.alphabet}}
        if self.init is not None:
            doc["initial"] = names[self.init]
        return doc

    @classmethod
    def from_dfa(cls, m: MooreAutomaton) -> "Dkm":
        """A DFA as a single-observation model: DFA_OBS holds at accepting states."""
        accepting = m.accepting()  # refuses a Moore automaton that is not a DFA
        gamma = tuple(frozenset({DFA_OBS}) if s in accepting else frozenset()
                      for s in range(m.n))
        return cls(m.n, m.alphabet, (DFA_OBS,), gamma, dict(m.trans), m.init, m.state_names)


class TraceFormula(Record):
    """<a1>...<ak> obs: a modality word followed by one observation."""

    word: tuple[str, ...]
    obs: str


def eval_trace(k: Dkm, formula: TraceFormula) -> frozenset[int]:
    """Extension of a trace formula: the observation's 0/1 predicate walked
    by the predicate step (the preimage) along the reversed word."""
    if formula.obs not in k.obs:
        raise ValueError(f"unknown observation {formula.obs!r}")
    (start,), step = predicates([[formula.obs in g for g in k.gamma]], k.delta)
    return walk((start, lambda phi: frozenset(compress(range(k.n), phi)), step),
                reversed(formula.word), k.alphabet)


def definable_closure(k: Dkm, max_states: int = DEFAULT_MAX_STATES) -> list[bytes]:
    """Least family containing every observation extension and closed under
    transition preimages; equals the set of all trace-formula extensions.
    It starts from one 0/1 predicate per observation: the states where it holds.
    Each set comes once, as the 0/1 row the exploration stores: a `bytes`
    whose byte s is 1 iff state s is a member."""
    starts = [[w in g for g in k.gamma] for w in k.obs]
    return explore(*predicates(starts, k.delta), k.alphabet, max_states, "definable closure")[0]


def boolean_atoms(rows: Sequence[Sequence[int]], n: int) -> Partition:
    """Atoms of the Boolean algebra generated by a family of 0/1 rows over n
    states (definable_closure's form), as a state partition.

    Two states share an atom iff they have the same membership signature,
    their column of the rows.  Blocks are numbered by their least state, so
    any fixed order of the rows gives the same partition.
    """
    if any(len(row) != n for row in rows):
        raise ValueError("family row length mismatch")
    return Partition.from_signatures(zip(*rows) if rows else [()] * n)


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
