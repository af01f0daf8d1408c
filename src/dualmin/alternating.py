"""Alternating finite automata: direct tree semantics, the reversed DFA on the
powerset of states, and language-level minimisation by the dual taken twice.

A transition condition delta_a(s) and the acceptance condition iota are
Boolean functions 2^X -> 2 held as functions on bitmasks: a subset is the
bitmask with bit i set for state i, as for NFA subsets in automata.py, and
at(mask) is 1 iff that subset satisfies the function.  The reversed DFA has
state set 2^X, starts at the final set, steps a subset A to
{s | delta_a(s)(A) = 1}, accepts when iota holds, and recognises exactly the
reverse of the AFA's language.  The AFA's `view()` is it as a lazy triple,
which `equiv_exact` walks without building it and `afa_accepts` walks along
the reversed word.  Its reachable part, built from the view by
`automata.subset_dfa` (which also determinises NFAs) behind the state bound,
is the AFA's dual (`brzozowski.dual_automaton`, the `dual` verb's output),
and the dual of that dual is the minimal DFA.
`reverse_dfa`, only the `reverse` verb's output, builds all 2^n subsets.

A BoolFun is built from its satisfying subsets (`BoolFun(n, sats)`), from a
truth table (`BoolFun.from_table`), or by compiling a formula.  Only ==,
hash and `sats` ask it about all 2^n subsets.  An AlternatingAutomaton reads
and writes its own file document (`from_document`, `document`)."""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Mapping
from functools import cached_property
from itertools import compress
from operator import attrgetter

import dualmin

from .automata import MooreAutomaton, _mask, mask_row, subset_dfa, walk
from .errors import (DEFAULT_MAX_STATES, FormatError, Record, StateGuardError, _check_alphabet,
                     _check_names, quoted, state_labels)
from .io import _require, _state_index, _state_indices, _transitions


class BoolFun(Record):
    """A function 2^X -> 2 on bitmasks: at(mask) is 1 if the subset with that
    bitmask satisfies the function, else 0.  == and hash read the truth table
    (bit `mask` is at(mask)), which is built only when they or `sats` ask."""

    n: int
    at: Callable[[int], int]
    _compared = attrgetter("n", "table")

    def __init__(self, n: int, sats: Iterable[Iterable[int]]):
        """The function whose satisfying subsets are `sats`."""
        masks = frozenset(_mask(n, subset) for subset in sats)
        self.__dict__.update(n=n, at=lambda mask: 1 if mask in masks else 0)

    @classmethod
    def from_table(cls, n: int, table: int) -> "BoolFun":
        if table < 0 or table >> (1 << n):
            raise ValueError(f"truth table wider than 2^{n} bits")
        f = cls.__new__(cls)
        f.__dict__.update(n=n, at=lambda mask: table >> mask & 1, table=table)
        return f

    @cached_property
    def table(self) -> int:
        """The truth table, from `at` on all 2^n masks."""
        return int("".join(map(str, map(self.at, reversed(range(1 << self.n))))), 2)

    @property
    def sats(self) -> frozenset[frozenset[int]]:
        """The satisfying subsets, decoded from the table."""
        states = range(self.n)
        return frozenset(frozenset(compress(states, mask_row(mask)))
                         for mask in compress(range(1 << self.n), mask_row(self.table)))


_ALLOWED_NODES = (ast.Expression, ast.BoolOp, ast.And, ast.Or, ast.UnaryOp, ast.Not,
                  ast.Name, ast.Constant, ast.Load)
_AT = {"lineno": 1, "col_offset": 0}  # compile asks each node it is given for a position
# the most and/or/not operators a formula may nest: a fixed cap, whatever the
# caller's stack, that keeps the rewrite well inside the recursion limit
MAX_FORMULA_DEPTH = 500


def compile_formula(formula: str, state_names: tuple[str, ...]) -> BoolFun:
    """Compile an and/or/not formula over state names into a BoolFun.

    A state name evaluates to membership of that state in the argument subset;
    the constants true and false (True and False) are available, and a state
    named like one of them, or None, shadows it.  The checked syntax tree is
    rewritten so that state i reads `m >> i & 1`, then compiled once into a
    function on masks that runs without builtins; no text of the formula is
    evaluated.  A formula that nests more than MAX_FORMULA_DEPTH operators, or
    that the parser cannot nest, is a ValueError too.  Errors quote at most
    the first 60 characters of the formula.
    """
    try:
        tree = ast.parse(formula, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad formula {quoted(formula)}: {exc}") from None
    except (RecursionError, MemoryError):  # how ast.parse refuses a deep nesting
        raise ValueError(f"bad formula {quoted(formula)}: nested too deeply") from None
    index = {name: i for i, name in enumerate(state_names)}
    todo = [(tree, 0)]
    for node, depth in todo:  # breadth first: the queue grows while it is read
        depth += isinstance(node, (ast.BoolOp, ast.UnaryOp))
        if depth > MAX_FORMULA_DEPTH:
            raise ValueError(f"bad formula {quoted(formula)}: nested too deeply")
        todo.extend((child, depth) for child in ast.iter_child_nodes(node))
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"bad formula {quoted(formula)}: {type(node).__name__} not allowed")
        if isinstance(node, ast.Constant) and not isinstance(node.value, bool) \
                and not (node.value is None and "None" in index):
            raise ValueError(f"bad formula {quoted(formula)}: only true/false constants")
        if isinstance(node, ast.Name) and node.id not in index \
                and node.id not in ("true", "false"):
            raise ValueError(f"bad formula {quoted(formula)}: unknown name {quoted(node.id)}")

    def rewrite(node) -> ast.expr:
        if isinstance(node, ast.BoolOp):
            for i, value in enumerate(node.values):  # no comprehension frame
                node.values[i] = rewrite(value)
            return node
        if isinstance(node, ast.UnaryOp):  # not is 1 ^, and not not cancels
            inner = rewrite(node.operand)
            if isinstance(inner, ast.BinOp) and isinstance(inner.op, ast.BitXor):
                return inner.right
            return ast.BinOp(ast.Constant(1, **_AT), ast.BitXor(), inner, **_AT)
        # the keywords True, False and None parse as constants
        name = str(node.value) if isinstance(node, ast.Constant) else node.id
        if name in index:  # state names shadow the constants
            shifted = ast.BinOp(ast.Name("m", ast.Load(), **_AT), ast.RShift(),
                                ast.Constant(index[name], **_AT), **_AT)
            return ast.BinOp(shifted, ast.BitAnd(), ast.Constant(1, **_AT), **_AT)
        return ast.Constant(1 if name in ("true", "True") else 0, **_AT)

    try:
        args = ast.arguments(posonlyargs=[], args=[ast.arg("m", **_AT)], kwonlyargs=[],
                             kw_defaults=[], defaults=[])
        function = ast.Expression(ast.Lambda(args, rewrite(tree.body), **_AT))
        at = eval(compile(function, "<formula>", "eval"), {"__builtins__": {}})
    except RecursionError:
        raise ValueError(f"bad formula {quoted(formula)}: nested too deeply") from None
    f = BoolFun.__new__(BoolFun)
    f.__dict__.update(n=len(state_names), at=at)
    return f


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
        _check_names(self.state_names, self.n)

    @classmethod
    def from_document(cls, doc: dict, alphabet, names, states: dict[str, int]):
        """The AFA of an afa file's document; `states` maps each name to its index."""
        def boolfun(raw, path) -> BoolFun:
            if isinstance(raw, str):
                try:
                    return compile_formula(raw, names)
                except ValueError as exc:
                    raise FormatError(str(exc), path) from None
            if isinstance(raw, list):
                subsets = []
                for i, subset in enumerate(raw):
                    if not isinstance(subset, list):
                        raise FormatError("expected a list of state lists", f"{path}[{i}]")
                    subsets.append(frozenset(_state_index(s, states, f"{path}[{i}]")
                                             for s in subset))
                return BoolFun(len(names), subsets)
            raise FormatError("expected a formula string or a list of subsets", path)

        delta = {}
        for a, row in _transitions(doc, alphabet).items():
            if not isinstance(row, dict) or set(row) != set(names):
                raise FormatError("every state needs a transition condition", f"transitions.{a}")
            delta[a] = tuple(boolfun(row[name], f"transitions.{a}.{name}") for name in names)
        iota = boolfun(_require(doc, "iota", None), "iota")
        finals = frozenset(_state_indices(doc, "finals", states))
        return cls(len(names), alphabet, delta, iota, finals, names)

    def document(self) -> dict:
        """The JSON document of the AFA, each condition as its satisfying subsets."""
        names = state_labels(self.state_names, self.n)
        return {"type": "afa", "alphabet": list(self.alphabet), "states": list(names),
                "finals": sorted(names[s] for s in self.finals),
                "iota": _subsets_document(self.iota, names),
                "transitions": {a: {names[s]: _subsets_document(self.delta[a][s], names)
                                    for s in range(self.n)}
                                for a in self.alphabet}}

    def view(self) -> tuple:
        """The reversed DFA's lazy triple on bitmasks (it reads words reversed): a
        subset steps to the states whose condition on the letter holds on it."""
        delta = self.delta
        return (_mask(self.n, self.finals), self.iota.at,
                lambda mask, a: sum(f.at(mask) << s for s, f in enumerate(delta[a])))


def _subsets_document(f: BoolFun, names) -> list:
    """f's satisfying subsets, asked of all 2^n masks (no verb emits an AFA)."""
    return sorted(([names[s] for s in sorted(subset)] for subset in f.sats),
                  key=lambda xs: (len(xs), xs))


def afa_accepts(a: AlternatingAutomaton, word: Iterable[str]) -> bool:
    """Tree semantics: the AFA's view walked on the reversed word."""
    return bool(walk(a.view(), tuple(word)[::-1], a.alphabet))


def reverse_dfa(a: AlternatingAutomaton, max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """The DFA on all of 2^X recognising the reverse of the AFA's language;
    state i is the subset with bitmask i.  Refuses up front when the 2^n
    subsets it builds exceed the state bound."""
    if 1 << a.n > max_states:
        raise StateGuardError(
            f"the AFA's 2^{a.n} subsets exceed the bound of {max_states}; raise --max-states")
    return subset_dfa(a, max_states, range(1 << a.n))


def minimal_dfa_for_afa(a: AlternatingAutomaton,
                        max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """Minimal DFA for the AFA's language: the dual taken twice, whose first
    pass is the reachable part of the reversed DFA."""
    return dualmin.brzozowski_minimise(a, max_states)
