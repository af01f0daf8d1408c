"""Alternating finite automata: direct tree semantics, the reversed DFA on the
powerset of states, and language-level minimisation through the dual pipeline.

A transition condition delta_a(s) and the acceptance condition iota are
Boolean functions 2^X -> 2, stored as truth tables of 2^n bits: a subset is
the bitmask with bit i set for state i, as for NFA subsets in automata.py,
and bit `mask` of the table says whether that subset satisfies the function.
The reversed DFA has state set 2^X, starts at the final set, steps a subset
A to {s | delta_a(s)(A) = 1}, accepts when iota holds, and recognises
exactly the reverse of the AFA's language.  `reversed_subsets` gives it as a
lazy triple, which `equiv` walks without building it and which
`automata.subset_dfa`, the subset construction that also determinises NFAs,
builds and names by the one subset-naming rule.

A BoolFun is built from its satisfying subsets (`BoolFun(n, sats)`), from a
truth table (`BoolFun.from_table`), or by compiling a formula.
"""

from __future__ import annotations

import ast
from functools import cached_property, partial, reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Mapping

from .automata import MooreAutomaton, _check_alphabet, _mask, mask_row, subset_dfa
from .brzozowski import dual_automaton
from .errors import DEFAULT_MAX_STATES, Record, StateGuardError


def _ones(n: int) -> int:
    """The truth table of the constant true over n states."""
    return (1 << (1 << n)) - 1


def _variable(n: int, i: int) -> int:
    """The truth table of "state i is in the subset": in every run of 2^(i+1)
    masks, the upper 2^i have bit i set."""
    half = 1 << i
    table, width = ((1 << half) - 1) << half, half << 1
    while width < 1 << n:
        table |= table << width
        width <<= 1
    return table


class BoolFun(Record):
    """A function 2^X -> 2 as a truth table: bit `mask` of `table` is set iff
    the subset with that bitmask satisfies the function."""

    n: int
    table: int

    def __init__(self, n: int, sats: Iterable[Iterable[int]]):
        """The function whose satisfying subsets are `sats`."""
        table = 0
        for subset in sats:
            table |= 1 << _mask(n, subset)
        self.__dict__.update(n=n, table=table)

    @classmethod
    def from_table(cls, n: int, table: int) -> "BoolFun":
        if table < 0 or table >> (1 << n):
            raise ValueError(f"truth table wider than 2^{n} bits")
        f = cls.__new__(cls)
        f.__dict__.update(n=n, table=table)
        return f

    @cached_property
    def bits(self) -> bytes:
        """The table as little-endian bytes, built once: bit `mask` is bit
        mask & 7 of byte mask >> 3, so testing it costs O(1), not O(2^n)."""
        return self.table.to_bytes(((1 << self.n) + 7) >> 3, "little")

    def at(self, mask: int) -> int:
        """1 if the subset with bitmask `mask` satisfies the function, else 0."""
        return self.bits[mask >> 3] >> (mask & 7) & 1

    @property
    def sats(self) -> frozenset[frozenset[int]]:
        """The satisfying subsets, decoded from the table."""
        states = range(self.n)
        return frozenset(frozenset(compress(states, mask_row(mask)))
                         for mask in compress(range(1 << self.n), mask_row(self.table)))


_ALLOWED_NODES = (ast.Expression, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp, ast.Not,
                  ast.Name, ast.Constant, ast.Load)


def _quoted(text: str) -> str:
    """repr of text, or of its first 60 characters followed by ..., so that
    an error about a long formula stays short."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}..."


def compile_formula(formula: str, state_names: tuple[str, ...]) -> BoolFun:
    """Compile an and/or/not formula over state names into a BoolFun.

    A state name evaluates to membership of that state in the argument subset;
    the constants true and false are available.  The syntax tree is evaluated
    once, on whole truth tables.  A formula nested past the parser's or the
    interpreter's depth limit is a ValueError too.  Errors quote at most the
    first 60 characters of the formula.
    """
    try:
        tree = ast.parse(formula, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad formula {_quoted(formula)}: {exc}") from None
    except (RecursionError, MemoryError):  # how ast.parse refuses a deep nesting
        raise ValueError(f"bad formula {_quoted(formula)}: nested too deeply") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"bad formula {_quoted(formula)}: {type(node).__name__} not allowed")
        if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
            raise ValueError(f"bad formula {_quoted(formula)}: only true/false constants")
        if isinstance(node, ast.Name) and node.id not in state_names \
                and node.id not in ("true", "false"):
            raise ValueError(f"bad formula {_quoted(formula)}: unknown name {_quoted(node.id)}")
    index = {name: i for i, name in enumerate(state_names)}
    n = len(state_names)
    ones = _ones(n)

    def ev(node) -> int:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BoolOp):
            op = and_ if isinstance(node.op, ast.And) else or_
            return reduce(op, map(ev, node.values))
        if isinstance(node, ast.UnaryOp):
            return ev(node.operand) ^ ones
        if isinstance(node, ast.Constant):
            return ones if node.value else 0
        if node.id in index:  # state names shadow the true/false constants
            return _variable(n, index[node.id])
        return ones if node.id == "true" else 0

    try:
        return BoolFun.from_table(n, ev(tree))
    except RecursionError:
        raise ValueError(f"bad formula {_quoted(formula)}: nested too deeply") from None


class AlternatingAutomaton(Record):
    """AFA with per-letter, per-state Boolean transition conditions, an
    acceptance condition over the final verdict vector, and final states."""

    n: int
    alphabet: tuple[str, ...]
    delta: Mapping[str, tuple[BoolFun, ...]]
    iota: BoolFun
    finals: frozenset[int]
    state_names: tuple[str, ...] | None = None
    _uncompared = ("state_names",)
    kind = "afa"

    def __post_init__(self):
        _check_alphabet(self.alphabet, self.delta)
        for a, row in self.delta.items():
            if len(row) != self.n or any(f.n != self.n for f in row):
                raise ValueError(f"bad delta row for letter {a!r}")
        if self.iota.n != self.n:
            raise ValueError("iota is over the wrong state count")
        if any(not 0 <= s < self.n for s in self.finals):
            raise ValueError("final state out of range")


def _afa_step(a: AlternatingAutomaton, mask: int, letter: str) -> int:
    """The mask of the states whose condition on `letter` holds on `mask`."""
    step = 0
    byte, bit = mask >> 3, mask & 7
    for s, f in enumerate(a.delta[letter]):
        if f.bits[byte] >> bit & 1:
            step |= 1 << s
    return step


def afa_accepts(a: AlternatingAutomaton, word: Iterable[str]) -> bool:
    """Tree semantics: propagate the final set backwards through the word."""
    word = tuple(word)
    for letter in word:
        if letter not in a.delta:
            raise ValueError(f"unknown letter {letter!r}")
    mask = _mask(a.n, a.finals)
    for letter in reversed(word):
        mask = _afa_step(a, mask, letter)
    return bool(a.iota.at(mask))


def reversed_subsets(a: AlternatingAutomaton, max_states: int = DEFAULT_MAX_STATES) -> tuple:
    """The reversed DFA as a lazy (start, key, step) triple on bitmasks.
    Refuses up front when 2^n exceeds the state bound, however few subsets
    are reachable, so the bound does not depend on the formulas."""
    if 1 << a.n > max_states:
        raise StateGuardError(
            f"the AFA's 2^{a.n} subsets exceed the bound of {max_states}; raise --max-states")
    return _mask(a.n, a.finals), a.iota.at, partial(_afa_step, a)


def reverse_dfa(a: AlternatingAutomaton, max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """The DFA on all of 2^X recognising the reverse of the AFA's language;
    state i is the subset with bitmask i."""
    return subset_dfa(a, reversed_subsets(a, max_states), max_states, range(1 << a.n))


def minimal_dfa_for_afa(a: AlternatingAutomaton,
                        max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """Minimal DFA for the AFA's language.

    The reversed DFA already performs the first reversal, so one dual pass
    over its reachable part lands on the reachable and observable automaton
    for L(A).  That part is built unnamed, so the dual names its states by
    reversed-DFA index (`s0+s3`), as the second pass of a double reversal does.
    """
    return dual_automaton(subset_dfa(a, reversed_subsets(a, max_states), max_states,
                                     named=False), max_states)
