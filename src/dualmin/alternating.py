"""Alternating finite automata: direct tree semantics, the reversed DFA on the
powerset of states, and language-level minimisation through the dual pipeline.

A transition condition delta_a(s) and the acceptance condition iota are
Boolean functions 2^X -> 2, stored extensionally as the collection of their
satisfying subsets.  The reversed DFA has state set 2^X, starts at the final
set, steps a subset A to {s | delta_a(s)(A) = 1}, accepts when iota holds,
and recognises exactly the reverse of the AFA's language.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .automata import DFA_OUTPUTS, MooreAutomaton, _check_alphabet, reach, subset_names
from .brzozowski import dual_automaton
from .errors import StateGuardError, resolve_max_states


@dataclass(frozen=True)
class BoolFun:
    """A function 2^X -> 2 given by its satisfying subsets."""

    n: int
    sats: frozenset[frozenset[int]]

    def __post_init__(self):
        for subset in self.sats:
            if any(not 0 <= s < self.n for s in subset):
                raise ValueError("satisfying subset mentions an unknown state")

    def __call__(self, subset: Iterable[int]) -> bool:
        return frozenset(subset) in self.sats

    @classmethod
    def from_subsets(cls, n: int, subsets) -> "BoolFun":
        return cls(n, frozenset(frozenset(s) for s in subsets))

    @classmethod
    def always(cls, n: int, value: bool) -> "BoolFun":
        return cls(n, frozenset(all_subsets(n))) if value else cls(n, frozenset())


def all_subsets(n: int) -> list[frozenset[int]]:
    """All subsets of {0..n-1} ordered by bitmask value (bit i = state i)."""
    return [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]


_ALLOWED_NODES = (ast.Expression, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp, ast.Not,
                  ast.Name, ast.Constant, ast.Load)


def compile_formula(formula: str, state_names: tuple[str, ...]) -> BoolFun:
    """Compile an and/or/not formula over state names into a BoolFun.

    A state name evaluates to membership of that state in the argument subset;
    the constants true and false are available.
    """
    try:
        tree = ast.parse(formula, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad formula {formula!r}: {exc}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"bad formula {formula!r}: {type(node).__name__} not allowed")
        if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
            raise ValueError(f"bad formula {formula!r}: only true/false constants")
        if isinstance(node, ast.Name) and node.id not in state_names \
                and node.id not in ("true", "false"):
            raise ValueError(f"bad formula {formula!r}: unknown name {node.id!r}")
    index = {name: i for i, name in enumerate(state_names)}

    def ev(node, subset) -> bool:
        if isinstance(node, ast.Expression):
            return ev(node.body, subset)
        if isinstance(node, ast.BoolOp):
            op = all if isinstance(node.op, ast.And) else any
            return op(ev(v, subset) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return not ev(node.operand, subset)
        if isinstance(node, ast.Constant):
            return node.value
        if node.id in index:  # state names shadow the true/false constants
            return index[node.id] in subset
        return node.id == "true"

    n = len(state_names)
    return BoolFun(n, frozenset(s for s in all_subsets(n) if ev(tree, s)))


@dataclass(frozen=True)
class AlternatingAutomaton:
    """AFA with per-letter, per-state Boolean transition conditions, an
    acceptance condition over the final verdict vector, and final states."""

    n: int
    alphabet: tuple[str, ...]
    delta: Mapping[str, tuple[BoolFun, ...]]
    iota: BoolFun
    finals: frozenset[int]
    state_names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_alphabet(self.alphabet)
        if set(self.delta) != set(self.alphabet):
            raise ValueError("delta must cover exactly the alphabet")
        for a, row in self.delta.items():
            if len(row) != self.n or any(f.n != self.n for f in row):
                raise ValueError(f"bad delta row for letter {a!r}")
        if self.iota.n != self.n:
            raise ValueError("iota is over the wrong state count")
        if any(not 0 <= s < self.n for s in self.finals):
            raise ValueError("final state out of range")

    @classmethod
    def from_dfa(cls, m: MooreAutomaton) -> "AlternatingAutomaton":
        """Embed a DFA: delta_a(s) holds on A iff t_a(s) in A, iota holds iff init in A."""
        subsets = all_subsets(m.n)
        delta = {}
        for a in m.alphabet:
            row = m.trans[a]
            delta[a] = tuple(BoolFun(m.n, frozenset(s for s in subsets if row[x] in s))
                             for x in range(m.n))
        iota = BoolFun(m.n, frozenset(s for s in subsets if m.init in s))
        return cls(m.n, m.alphabet, delta, iota, m.accepting(), m.state_names)


def _afa_step(a: AlternatingAutomaton, letter: str, subset: frozenset[int]) -> frozenset[int]:
    """The states whose condition on `letter` holds on `subset`."""
    return frozenset(s for s, f in enumerate(a.delta[letter]) if subset in f.sats)


def afa_accepts(a: AlternatingAutomaton, word: Iterable[str]) -> bool:
    """Tree semantics: propagate the final set backwards through the word."""
    word = tuple(word)
    for letter in word:
        if letter not in a.delta:
            raise ValueError(f"unknown letter {letter!r}")
    subset = frozenset(a.finals)
    for letter in reversed(word):
        subset = _afa_step(a, letter, subset)
    return a.iota(subset)


def reverse_dfa(a: AlternatingAutomaton, max_states: int | None = None) -> MooreAutomaton:
    """The DFA on all of 2^X recognising the reverse of the AFA's language."""
    limit = resolve_max_states(max_states)
    if 1 << a.n > limit:
        raise StateGuardError(
            f"reverse_dfa would build 2^{a.n} states, more than {limit}; raise --max-states")
    subsets = all_subsets(a.n)
    index = {s: i for i, s in enumerate(subsets)}
    trans = {letter: tuple(index[_afa_step(a, letter, subset)] for subset in subsets)
             for letter in a.alphabet}
    out = tuple(1 if a.iota(subset) else 0 for subset in subsets)
    return MooreAutomaton(len(subsets), a.alphabet, trans, index[a.finals],
                          out, DFA_OUTPUTS, subset_names(map(sorted, subsets), a.state_names))


def minimal_dfa_for_afa(a: AlternatingAutomaton, max_states: int | None = None) -> MooreAutomaton:
    """Minimal DFA for the AFA's language.

    reverse_dfa already performs the first reversal, so one dual pass over its
    reachable part lands on the reachable and observable automaton for L(A).
    """
    return dual_automaton(reach(reverse_dfa(a, max_states)), max_states)
