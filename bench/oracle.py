"""Answers computed apart from dualmin, for checking what its CLI prints.

Nothing here imports dualmin.  Automata are read from the JSON file schema with
the standard json module, and every construction (simulation, refinement,
product equivalence, subset and predicate automata, exact linear algebra,
AFA and Kripke-model semantics) is written afresh, with bitmask subsets and
Fraction or integer arithmetic, so that a fault in the program's own routes
cannot hide behind the same fault here.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

# ---------------------------------------------------------------- deterministic


@dataclass
class Det:
    """A deterministic automaton with a label on every state.

    Labels are "accept"/"reject" for a dfa, output names for a moore file and
    sorted observation tuples for a dkm.  `init` is None for a dkm without an
    initial state.
    """

    alphabet: list
    trans: dict  # letter -> list of successor indices
    init: int | None
    out: list

    @property
    def n(self) -> int:
        return len(self.out)


def det_from_doc(doc: dict) -> Det:
    names = doc["states"]
    idx = {name: i for i, name in enumerate(names)}
    trans = {a: [idx[doc["transitions"][a][s]] for s in names] for a in doc["alphabet"]}
    kind = doc["type"]
    if kind == "dfa":
        finals = set(doc["finals"])
        out = ["accept" if s in finals else "reject" for s in names]
    elif kind == "moore":
        out = [doc["out"][s] for s in names]
    elif kind == "dkm":
        out = [tuple(sorted(doc["gamma"].get(s, []))) for s in names]
    else:
        raise ValueError(f"not a deterministic file: {kind}")
    init = doc.get("initial")
    return Det(list(doc["alphabet"]), trans, None if init is None else idx[init], out)


def det_run(d: Det, word) -> object:
    s = d.init
    for a in word:
        s = d.trans[a][s]
    return d.out[s]


def reachable(d: Det, start: int | None = None) -> list[int]:
    """States reachable from `start` (default: the initial state), BFS order."""
    start = d.init if start is None else start
    seen = {start}
    order = [start]
    for s in order:
        for a in d.alphabet:
            t = d.trans[a][s]
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def refine_blocks(d: Det, states=None) -> tuple[dict, int]:
    """Coarsest partition of a transition-closed state set that respects labels.

    Returns (block_of, number of blocks).  Round-based Moore refinement: a
    state's signature is its block and its successors' blocks.
    """
    states = list(range(d.n)) if states is None else list(states)
    block = {}
    ids: dict = {}
    for s in states:
        block[s] = ids.setdefault(d.out[s], len(ids))
    count = len(ids)
    while True:
        ids = {}
        nxt = {}
        for s in states:
            sig = (block[s],) + tuple(block[d.trans[a][s]] for a in d.alphabet)
            nxt[s] = ids.setdefault(sig, len(ids))
        if len(ids) == count:
            return block, count
        block, count = nxt, len(ids)


def minimal_states(d: Det) -> int:
    """State count of the minimal automaton for d's language (reachable part)."""
    return refine_blocks(d, reachable(d))[1]


def quotient_states(d: Det) -> int:
    """Block count of the coarsest label-respecting congruence on all states."""
    return refine_blocks(d)[1]


def equivalent(d1: Det, d2: Det) -> tuple[bool, tuple | None]:
    """Exact language equivalence by BFS over the reachable product.

    Returns (verdict, a shortest word on which the labels differ, or None).
    """
    if list(d1.alphabet) != list(d2.alphabet):
        return False, None
    start = (d1.init, d2.init)
    parent = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        s1, s2 = pair
        if d1.out[s1] != d2.out[s2]:
            word = []
            while parent[pair] is not None:
                pair, a = parent[pair]
                word.append(a)
            return False, tuple(reversed(word))
        for a in d1.alphabet:
            nxt = (d1.trans[a][s1], d2.trans[a][s2])
            if nxt not in parent:
                parent[nxt] = (pair, a)
                queue.append(nxt)
    return True, None


class TooLarge(RuntimeError):
    pass


def explore(alphabet, start, step, label, limit: int = 2_000_000) -> Det:
    """Reachable part of an implicitly given deterministic automaton."""
    index = {start: 0}
    order = [start]
    trans = {a: [] for a in alphabet}
    for cur in order:
        for a in alphabet:
            nxt = step(cur, a)
            if nxt not in index:
                if len(order) >= limit:
                    raise TooLarge(f"reference automaton exceeds {limit} states")
                index[nxt] = len(order)
                order.append(nxt)
            trans[a].append(index[nxt])
    return Det(list(alphabet), trans, 0, [label(x) for x in order])


def _predicates(d: Det, start: tuple, label, limit: int = 2_000_000) -> Det:
    """Automaton on the predicates (value tuples over d's states) reachable
    from `start`; reading a letter precomposes with its transition map."""
    getters = {a: itemgetter(*d.trans[a]) if d.n > 1 else (lambda p, t=d.trans[a][0]: (p[t],))
               for a in d.alphabet}
    return explore(d.alphabet, start, lambda p, a: getters[a](p), label, limit)


def reverse_language_dfa(d: Det) -> Det:
    """DFA for the reversed language of a two-label automaton, on the 0/1
    predicates reachable from the accepting indicator."""
    start = tuple(1 if label == "accept" else 0 for label in d.out)
    return _predicates(d, start, lambda p: "accept" if p[d.init] else "reject")


def dual_size(d: Det, limit: int) -> int | None:
    """Number of predicates reachable from d's output map, or None above `limit`."""
    try:
        return _predicates(d, tuple(d.out), lambda p: None, limit).n
    except TooLarge:
        return None


def kth_from_end_dfa(k: int) -> Det:
    """Canonical DFA for "the k-th letter from the end is a" over {a, b}.

    A state is the window of the last k letters as a bitmask (bit 0 = last
    letter, 1 = a); there are exactly 2^k of them.
    """
    mask = (1 << k) - 1
    return explore(["a", "b"], 0, lambda s, a: ((s << 1) | (a == "a")) & mask,
                   lambda s: "accept" if s >> (k - 1) & 1 else "reject")


def nfa_subset_dfa(doc: dict) -> Det:
    """Subset construction for an nfa file, subsets as bitmasks."""
    names = doc["states"]
    idx = {name: i for i, name in enumerate(names)}
    succ = {a: [0] * len(names) for a in doc["alphabet"]}
    for a, row in doc["transitions"].items():
        for s, targets in row.items():
            for t in targets:
                succ[a][idx[s]] |= 1 << idx[t]
    finals = sum(1 << idx[s] for s in doc["finals"])
    start = sum(1 << idx[s] for s in doc["initial"])

    def step(subset, a):
        out = 0
        row = succ[a]
        while subset:
            low = subset & -subset
            out |= row[low.bit_length() - 1]
            subset ^= low
        return out

    return explore(doc["alphabet"], start, step,
                   lambda x: "accept" if x & finals else "reject")


# ---------------------------------------------------------------- weighted


@dataclass
class Wa:
    alphabet: list
    ring: str  # "int", "rational" or "bool"
    mats: dict  # letter -> rows; entry [y][x] is the weight of x -> y
    init: list
    final: list

    @property
    def n(self) -> int:
        return len(self.init)


def _value(ring: str, raw):
    if ring == "rational":
        return Fraction(raw)
    if ring == "int":
        return int(raw)
    if ring == "bool":
        return 1 if raw else 0
    raise ValueError(f"unsupported semiring {ring}")


def wa_from_doc(doc: dict) -> Wa:
    ring = doc["semiring"]
    return Wa(list(doc["alphabet"]), ring,
              {a: [[_value(ring, v) for v in row] for row in rows]
               for a, rows in doc["transitions"].items()},
              [_value(ring, v) for v in doc["initial"]],
              [_value(ring, v) for v in doc["final"]])


def _apply(w: Wa, a: str, v: list) -> list:
    out = [sum(m * x for m, x in zip(row, v) if x) for row in w.mats[a]]
    return [1 if x else 0 for x in out] if w.ring == "bool" else out


def _dot(w: Wa, u, v):
    total = sum(x * y for x, y in zip(u, v))
    return (1 if total else 0) if w.ring == "bool" else total


def series(w: Wa, word) -> object:
    """Exact sum over all paths labelled by `word`, by vector propagation."""
    v = list(w.init)
    for a in word:
        v = _apply(w, a, v)
    return _dot(w, w.final, v)


def series_table(w: Wa, max_len: int) -> dict:
    """Series value of every word of length <= max_len, sharing prefixes."""
    table = {}
    layer = [((), list(w.init))]
    for _ in range(max_len + 1):
        nxt = []
        for word, v in layer:
            table[word] = _dot(w, w.final, v)
            nxt.extend((word + (a,), _apply(w, a, v)) for a in w.alphabet)
        layer = nxt
    return table


class Span:
    """Incremental row-echelon span over Q; `add` says whether v was new."""

    def __init__(self):
        self.rows: list[tuple[int, list]] = []  # (pivot, row with pivot entry 1)

    def add(self, v) -> bool:
        r = [Fraction(x) for x in v]
        for p, row in self.rows:
            c = r[p]
            if c:
                r = [x - c * y for x, y in zip(r, row)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            return False
        c = r[lead]
        self.rows.append((lead, [x / c for x in r]))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def matrix_rank(rows) -> int:
    span = Span()
    for row in rows:
        span.add(row)
    return span.rank


def _closure(vectors0, step_fns) -> list:
    """Vectors spanning the least space holding vectors0 and closed under steps."""
    span = Span()
    kept = []
    queue = deque()
    for v in vectors0:
        if span.add(v):
            kept.append(v)
            queue.append(v)
    while queue:
        v = queue.popleft()
        for f in step_fns:
            u = f(v)
            if span.add(u):
                kept.append(u)
                queue.append(u)
    return kept


def forward_space(w: Wa) -> list:
    return _closure([w.init], [lambda v, a=a: _apply(w, a, v) for a in w.alphabet])


def backward_space(w: Wa) -> list:
    cols = {a: list(zip(*w.mats[a])) for a in w.alphabet}
    return _closure([w.final], [lambda v, a=a: [sum(x * m for x, m in zip(v, col))
                                                 for col in cols[a]]
                                for a in w.alphabet])


def hankel_rank(w: Wa) -> int:
    """Rank over Q of the full Hankel matrix: rank(F * B) for spanning sets
    F of the reachable space and B of the observable space."""
    fwd = forward_space(w)
    bwd = backward_space(w)
    return matrix_rank([[sum(x * y for x, y in zip(b, f)) for b in bwd] for f in fwd])


def hankel_block_rank(w: Wa, max_len: int) -> int:
    """Rank over Q of H[u][v] = series(u v) for |u|, |v| <= max_len."""
    words = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [u + (a,) for u in layer for a in w.alphabet]
        words.extend(layer)
    fwd = {(): list(w.init)}
    bwd = {(): list(w.final)}
    cols = {a: list(zip(*w.mats[a])) for a in w.alphabet}
    for u in words[1:]:
        fwd[u] = _apply(w, u[-1], fwd[u[:-1]])
        bwd[u] = [sum(x * m for x, m in zip(bwd[u[1:]], col)) for col in cols[u[0]]]
    return matrix_rank([[sum(x * y for x, y in zip(bwd[v], fwd[u])) for v in words]
                        for u in words])


def bool_wa_subset_dfa(w: Wa) -> Det:
    """Subset construction for a Boolean weighted automaton read as an NFA."""
    n = w.n
    succ = {a: [sum(1 << y for y in range(n) if w.mats[a][y][x]) for x in range(n)]
            for a in w.alphabet}
    finals = sum(1 << x for x in range(n) if w.final[x])

    def step(subset, a):
        out = 0
        for x in range(n):
            if subset >> x & 1:
                out |= succ[a][x]
        return out

    return explore(w.alphabet, sum(1 << x for x in range(n) if w.init[x]), step,
                   lambda x: "accept" if x & finals else "reject")


# ---------------------------------------------------------------- alternating

_TOKEN = re.compile(r"\s*(?:(\()|(\))|([A-Za-z_][A-Za-z0-9_]*))")


def parse_formula(text: str):
    """and/or/not formula over names, as nested tuples (Python precedence)."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula {text!r} at {pos}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    tokens.append(None)
    at = 0

    def peek():
        return tokens[at]

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def disj():
        parts = [conj()]
        while peek() == "or":
            take()
            parts.append(conj())
        return parts[0] if len(parts) == 1 else ("or", parts)

    def conj():
        parts = [neg()]
        while peek() == "and":
            take()
            parts.append(neg())
        return parts[0] if len(parts) == 1 else ("and", parts)

    def neg():
        if peek() == "not":
            take()
            return ("not", neg())
        tok = take()
        if tok == "(":
            inner = disj()
            if take() != ")":
                raise ValueError(f"unbalanced formula {text!r}")
            return inner
        if tok in (None, ")", "and", "or"):
            raise ValueError(f"bad formula {text!r}")
        return ("var", tok)

    tree = disj()
    if peek() is not None:
        raise ValueError(f"trailing tokens in {text!r}")
    return tree


def eval_formula(tree, holds) -> bool:
    """Evaluate a parsed condition; `holds(name)` gives each state's value."""
    kind = tree[0]
    if kind == "var":
        name = tree[1]
        if name in ("true", "false") and not holds.known(name):
            return name == "true"
        return holds(name)
    if kind == "not":
        return not eval_formula(tree[1], holds)
    if kind == "and":
        return all(eval_formula(t, holds) for t in tree[1])
    if kind == "or":
        return any(eval_formula(t, holds) for t in tree[1])
    if kind == "sets":
        return frozenset(name for name in holds.names if holds(name)) in tree[1]
    raise ValueError(f"bad condition {tree!r}")


def _condition(raw):
    if isinstance(raw, str):
        return parse_formula(raw)
    return ("sets", frozenset(frozenset(subset) for subset in raw))


@dataclass
class Afa:
    alphabet: list
    names: list
    delta: dict  # letter -> name -> condition
    iota: object
    finals: frozenset


def afa_from_doc(doc: dict) -> Afa:
    return Afa(list(doc["alphabet"]), list(doc["states"]),
               {a: {s: _condition(c) for s, c in row.items()}
                for a, row in doc["transitions"].items()},
               _condition(doc["iota"]), frozenset(doc["finals"]))


class _Holds:
    def __init__(self, names, fn):
        self.names = names
        self._known = set(names)
        self._fn = fn

    def known(self, name):
        return name in self._known

    def __call__(self, name):
        return self._fn(name)


def afa_accepts(a: Afa, word) -> bool:
    """Recursive tree semantics: state s accepts w[i:] if its condition for
    w[i] holds of the states accepting w[i+1:]; at the end, if s is final."""
    word = tuple(word)
    memo = {}

    def acc(s, i):
        key = (s, i)
        if key not in memo:
            if i == len(word):
                memo[key] = s in a.finals
            else:
                memo[key] = eval_formula(a.delta[word[i]][s],
                                         _Holds(a.names, lambda t: acc(t, i + 1)))
        return memo[key]

    return eval_formula(a.iota, _Holds(a.names, lambda t: acc(t, 0)))


def afa_reverse_dfa(a: Afa) -> Det:
    """DFA for the reversed language on the subsets reachable from the finals:
    a subset S steps on a letter to the states whose condition holds of S."""
    bit = {s: 1 << i for i, s in enumerate(a.names)}

    def holds_in(subset):
        return _Holds(a.names, lambda t: bool(subset & bit[t]))

    def step(subset, letter):
        h = holds_in(subset)
        return sum(bit[s] for s in a.names if eval_formula(a.delta[letter][s], h))

    return explore(a.alphabet, sum(bit[s] for s in a.finals), step,
                   lambda x: "accept" if eval_formula(a.iota, holds_in(x)) else "reject")


def afa_language_dfa(a: Afa) -> Det:
    """A DFA for the AFA's language: the reverse of its reversed-language DFA."""
    return reverse_language_dfa(afa_reverse_dfa(a))


def counter_product_dfa(counters: list, iota: str) -> Det:
    """DFA built directly from modular counters and an acceptance formula.

    Counter (letter, names) has state names[i] accepting a suffix w iff
    i + #letter(w) = 0 mod len(names); the DFA tracks each count mod its
    modulus and accepts when the formula holds of the accepting states.
    """
    tree = parse_formula(iota)
    all_names = [n for _, names in counters for n in names]

    def label(counts):
        true = {names[(-c) % len(names)] for (_, names), c in zip(counters, counts)}
        return "accept" if eval_formula(tree, _Holds(all_names, lambda t: t in true)) \
            else "reject"

    def step(counts, a):
        return tuple((c + (letter == a)) % len(names)
                     for (letter, names), c in zip(counters, counts))

    return explore(["a", "b"], (0,) * len(counters), step, label)


# ---------------------------------------------------------------- Kripke models


def closure_masks(d: Det, obs: list, limit: int | None = None) -> set[int]:
    """Least family of state sets holding each observation's extension and
    closed under letter preimages, sets as bitmasks; TooLarge above `limit`."""
    family = set()
    queue = deque()
    for w in obs:
        base = sum(1 << s for s in range(d.n) if w in d.out[s])
        if base not in family:
            family.add(base)
            queue.append(base)
    while queue:
        cur = queue.popleft()
        for a in d.alphabet:
            row = d.trans[a]
            pre = sum(1 << s for s in range(d.n) if cur >> row[s] & 1)
            if pre not in family:
                if limit is not None and len(family) >= limit:
                    raise TooLarge(f"definable closure exceeds {limit} sets")
                family.add(pre)
                queue.append(pre)
    return family


def closure_size(d: Det, obs: list, limit: int) -> int | None:
    """Number of sets in the definable closure, or None above `limit`."""
    try:
        return len(closure_masks(d, obs, limit))
    except TooLarge:
        return None


def trace_extension(d: Det, word, obs: str) -> set[int]:
    current = {s for s in range(d.n) if obs in d.out[s]}
    for a in reversed(word):
        row = d.trans[a]
        current = {s for s in range(d.n) if row[s] in current}
    return current


def disjoint_union(d1: Det, d2: Det) -> Det:
    shift = d1.n
    trans = {a: d1.trans[a] + [t + shift for t in d2.trans[a]] for a in d1.alphabet}
    return Det(list(d1.alphabet), trans, d1.init, d1.out + d2.out)


def is_bisimulation_quotient(d: Det, q: Det) -> str | None:
    """None when q is the minimal quotient of d up to bisimilarity, else why not.

    Refines the disjoint union once: every state of each side must share a
    block with a state of the other, no two states of q may share a block, and
    the initial states (when given) must share one.
    """
    if list(d.alphabet) != list(q.alphabet):
        return "alphabets differ"
    block, _ = refine_blocks(disjoint_union(d, q))
    left = {block[s] for s in range(d.n)}
    right = [block[d.n + t] for t in range(q.n)]
    if set(right) != left:
        return "the quotient's states are not bisimilar to the model's"
    if len(set(right)) != len(right):
        return "the quotient keeps two bisimilar states"
    if (d.init is None) != (q.init is None):
        return "initial state lost or invented"
    if d.init is not None and block[d.init] != block[d.n + q.init]:
        return "initial states are not bisimilar"
    return None
