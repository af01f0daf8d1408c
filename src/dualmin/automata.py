"""Finite deterministic Moore automata (a DFA is the one whose outputs are
DFA_OUTPUTS, reject and accept), NFAs for classical reversal, and the baseline
operations: evaluation, reachability, subset construction, partition
refinement, isomorphism and exact equivalence.

Three kernels serve every construction in the package: `explore` builds the
state space reachable under a step function (dual predicates, subsets,
definable sets, reachable states) behind one state bound; `stable_partition`
(Hopcroft's algorithm, O(kn log n) for n states and k letters) with
`quotient_rows` refine and quotient any deterministic transition structure
whose states carry keys (Moore outputs, or the observation sets of a Kripke
model); `pair_walk` decides exact equivalence on the reachable pairs
of two lazy (start, key, step) triples, and `walk` follows one along a word.
Each Boolean kind's `view()` is its one lazy form, such a triple: Moore
states keyed by output label, NFA subsets, the subsets of an AFA's reversed
DFA, or Kripke states keyed by observation set.  NFA and AFA subsets are
bitmasks, and `subset_dfa`, the one subset construction, builds the DFA of
an NFA's or an AFA's view: NFA determinisation and AFA reversal alike.

States are dense integer indices 0..n-1; human names only survive as optional
serialization metadata, and an unnamed state i is called s{i}.  One rule,
`subset_names`, names every subset state from its 0/1 row over the states:
a dual predicate, or the `mask_row` of a bitmask.  Reachability renumbers
states in BFS order with letters taken in alphabet order, so two automata are
isomorphic exactly when their reachable canonical forms compare equal.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from itertools import accumulate, compress

from .errors import (DEFAULT_MAX_STATES, DFA_OUTPUTS, NonCongruenceError, Record,
                     StateGuardError, _check_alphabet, _check_names, state_labels)


def _within(values: Sequence[int], n: int) -> bool:
    """Every value lies in 0..n-1, by one C-level min and max."""
    return not values or (min(values) >= 0 and max(values) < n)


def _check_successors(n: int, alphabet, rows: Mapping[str, Sequence[int]], init: int | None):
    """Successor rows cover exactly the alphabet, each maps all n states into
    0..n-1, and init (None where a structure may have no initial state) is a
    state."""
    _check_alphabet(alphabet, rows)
    for a in alphabet:
        row = rows[a]
        if len(row) != n or not _within(row, n):
            raise ValueError(f"bad successor row for letter {a!r}")
    if init is not None and not 0 <= init < n:
        raise ValueError("initial state out of range")


class MooreAutomaton(Record):
    """Deterministic automaton with an output attached to every state.

    `outputs` is the ordered output set B; `out[s]` indexes into it.  For the
    DFA case B = ("reject", "accept") and output index 1 means accepting.
    """

    n: int
    alphabet: tuple[str, ...]
    trans: Mapping[str, tuple[int, ...]]
    init: int
    out: tuple[int, ...]
    outputs: tuple[str, ...] = DFA_OUTPUTS
    state_names: tuple[str, ...] | None = None
    _uncompared = ("state_names",)
    kind = "moore"

    def __post_init__(self):
        _check_successors(self.n, self.alphabet, self.trans, self.init)
        if len(self.out) != self.n or not _within(self.out, len(self.outputs)):
            raise ValueError("output map must assign every state a valid output")
        _check_names(self.state_names, self.n)

    @classmethod
    def dfa(cls, n, alphabet, trans, init, accepting, state_names=None) -> "MooreAutomaton":
        accepting = set(accepting)
        out = tuple(1 if s in accepting else 0 for s in range(n))
        return cls(n, tuple(alphabet), {a: tuple(t) for a, t in trans.items()},
                   init, out, DFA_OUTPUTS, tuple(state_names) if state_names else None)

    def accepting(self) -> frozenset[int]:
        """The states whose output is "accept", in a DFA alone: the one reading of acceptance."""
        if self.outputs != DFA_OUTPUTS:
            raise ValueError("accepting states need the outputs reject and accept")
        return frozenset(s for s in range(self.n) if self.out[s] == 1)

    def view(self) -> tuple:
        """The (start, key, step) triple, each state keyed by its output's label."""
        return by_rows(self.init, tuple(map(self.outputs.__getitem__, self.out)), self.trans)


class Nfa(Record):
    n: int
    alphabet: tuple[str, ...]
    trans: Mapping[str, tuple[frozenset[int], ...]]
    inits: frozenset[int]
    finals: frozenset[int]
    state_names: tuple[str, ...] | None = None
    _uncompared = ("state_names",)
    kind = "nfa"

    def __post_init__(self):
        _check_alphabet(self.alphabet, self.trans)
        for a in self.alphabet:
            row = self.trans[a]
            if len(row) != self.n or any(not 0 <= t < self.n for ts in row for t in ts):
                raise ValueError(f"bad transition row for letter {a!r}")
        for s in self.inits | self.finals:
            if not 0 <= s < self.n:
                raise ValueError("initial/final state out of range")
        _check_names(self.state_names, self.n)

    def view(self) -> tuple:
        """The subset construction's lazy triple on bitmasks: a subset's key is 1
        if it meets the final states, and it steps to its members' successors."""
        succ = {a: [_mask(self.n, ts) for ts in row] for a, row in self.trans.items()}
        finals = _mask(self.n, self.finals)

        def step(mask: int, a: str) -> int:
            row, out = succ[a], 0
            while mask:
                low = mask & -mask
                out |= row[low.bit_length() - 1]
                mask ^= low
            return out

        return _mask(self.n, self.inits), lambda mask: 1 if mask & finals else 0, step


class Partition(Record):
    """Map state -> block id with ids dense in 0..n_blocks-1."""

    block_of: tuple[int, ...]
    n_blocks: int

    def __post_init__(self):
        if sorted(set(self.block_of)) != list(range(self.n_blocks)):
            raise ValueError("block ids must be dense 0..k-1 and all used")

    @classmethod
    def from_signatures(cls, sigs: Iterable) -> "Partition":
        """Blocks by equal signature, numbered in order of first occurrence."""
        ids: dict = {}
        block_of = []
        for sig in sigs:
            if sig not in ids:
                ids[sig] = len(ids)
            block_of.append(ids[sig])
        return cls(tuple(block_of), len(ids))

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for s, b in enumerate(self.block_of):
            out[b].append(s)
        return out


def words_up_to(alphabet: tuple[str, ...], max_len: int) -> Iterator[tuple[str, ...]]:
    """All words of length <= max_len, shortest first, letters in alphabet order."""
    layer: list[tuple[str, ...]] = [()]
    yield ()
    for _ in range(max_len):
        layer = [w + (a,) for w in layer for a in alphabet]
        yield from layer


def bounded_words(alphabet: tuple[str, ...], max_len: int, max_states: int,
                  what: str) -> Iterator[tuple[str, ...]]:
    """words_up_to(alphabet, max_len), once their number is known to stay
    within the state bound: StateGuardError is raised before any word is
    listed."""
    # the number of words, or a count already past the bound: lengths beyond
    # max_states.bit_length() need not be counted, and a huge power is never built
    k, length = len(alphabet), min(max_len, max_states.bit_length())
    if (max_len + 1 if k == 1 else (k ** (length + 1) - 1) // (k - 1)) > max_states:
        raise StateGuardError(f"{what} of the words up to length {max_len} exceeds "
                              f"{max_states} words; raise --max-states")
    return words_up_to(alphabet, max_len)


def walk(view: tuple, word: Iterable[str], alphabet: Sequence[str]):
    """The key of the state that a (start, key, step) triple reaches by the
    word; a letter outside the alphabet is a ValueError."""
    state, key, step = view
    for a in word:
        if a not in alphabet:
            raise ValueError(f"unknown letter {a!r}")
        state = step(state, a)
    return key(state)


def run(m: MooreAutomaton, word: Iterable[str]) -> int:
    """Output (index into m.outputs) of the state reached from init by the word."""
    return walk(by_rows(m.init, m.out, m.trans), word, m.alphabet)


def reverse(m: MooreAutomaton | Nfa) -> Nfa:
    """Classical reversal of a DFA or an NFA: flip arcs, swap initial and final states."""
    if isinstance(m, Nfa):
        succ, inits, finals = m.trans, m.finals, m.inits
    else:
        succ = {a: [(t,) for t in row] for a, row in m.trans.items()}
        inits = m.accepting()  # refuses a Moore automaton that is not a DFA
        finals = frozenset({m.init})
    rev: dict[str, list[set[int]]] = {a: [set() for _ in range(m.n)] for a in m.alphabet}
    for a in m.alphabet:
        for s, ts in enumerate(succ[a]):
            for t in ts:
                rev[a][t].add(s)
    trans = {a: tuple(frozenset(ts) for ts in rev[a]) for a in m.alphabet}
    return Nfa(m.n, m.alphabet, trans, inits=inits, finals=finals, state_names=m.state_names)


def explore(starts: Iterable[Hashable], step: Callable, alphabet: Sequence[str],
            limit: int, what: str) -> tuple[list, dict[str, list[int]]]:
    """Breadth-first closure of `starts` under `step`, letters in alphabet order.

    Returns (order, trans): `order` lists each state found once, the distinct
    starts first, and trans[a][i] is the index in `order` of
    step(order[i], a).  Raises StateGuardError once more than `limit` states
    would exist.
    """
    index: dict = {}
    order: list = []

    def add(state) -> int:
        if len(order) >= limit:
            raise StateGuardError(f"{what} exceeds {limit} states; raise --max-states")
        index[state] = len(order)
        order.append(state)
        return index[state]

    for state in starts:
        if state not in index:
            add(state)
    trans: dict[str, list[int]] = {a: [] for a in alphabet}
    columns = [(a, trans[a].append) for a in alphabet]
    for cur in order:  # order grows while it is read, so it is also the queue
        for a, append in columns:
            nxt = step(cur, a)
            i = index.get(nxt)
            append(add(nxt) if i is None else i)
    return order, trans


_BITS = bytes.maketrans(b"01", b"\0\1")


def mask_row(mask: int) -> bytes:
    """The 0/1 row of a bitmask subset, byte i for state i, up to its top
    set bit: the binary digits reversed, read as bytes."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def subset_names(rows: Iterable[Sequence[int]], names: Sequence[str] | None,
                 n: int) -> tuple[str, ...] | None:
    """Names for subset states, each subset given by its 0/1 row over n
    states (a dual predicate, or the mask_row of a bitmask), no two rows with
    the same members: its members' labels (state_labels) in ascending order
    joined by '+', or by ',' when some label already contains '+' (a previous
    pass), mirroring the {yz, xyz} style of nested subsets; 'empty' for the
    empty subset.  Returns None when two names collide.  When the n labels
    are distinct, none is "empty" and none holds the separator, a name splits
    back into its members, so the names are checked for collisions only
    otherwise (a state named "empty", or a label holding the ',' that joins)."""
    labels = state_labels(names, n)
    sep = "," if any("+" in label for label in labels) else "+"
    out = tuple(sep.join(compress(labels, row)) if 1 in row else "empty" for row in rows)
    if len(set(labels)) == n and "empty" not in labels \
            and not any(sep in label for label in labels):
        return out
    return out if len(set(out)) == len(out) else None


def _mask(n: int, subset: Iterable[int]) -> int:
    """The bitmask of a subset of 0..n-1: bit i is set for state i."""
    mask = 0
    for s in subset:
        if not 0 <= s < n:
            raise ValueError("subset mentions an unknown state")
        mask |= 1 << s
    return mask


def subset_dfa(x, max_states: int, starts: Iterable[int] | None = None,
               named: bool = True) -> MooreAutomaton:
    """The DFA of x's view (x an NFA or an AFA), a lazy (start, key, step)
    triple on bitmask subsets of x's states: the subsets reachable from
    `starts` (default: the start alone) in BFS order, the start as initial
    state, key(mask) as output, and each subset named by its members unless
    `named` is false.  The one subset construction: NFA determinisation and
    AFA reversal."""
    start, key, step = x.view()
    order, trans = explore([start] if starts is None else starts, step, x.alphabet,
                           max_states, "subset construction")
    init, out = order.index(start), tuple(map(key, order))
    names = subset_names(map(mask_row, order), x.state_names, x.n) if named else None
    del order  # the masks go before the successor tuples are built
    return MooreAutomaton(len(out), x.alphabet, {a: tuple(ts) for a, ts in trans.items()},
                          init, out, DFA_OUTPUTS, names)


def determinise(n: Nfa, max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """Subset construction restricted to subsets reachable from the initial set.

    A subset is accepting iff it meets the final states; empty initial set
    yields the one-state rejecting sink.
    """
    return subset_dfa(n, max_states)


def reach(m: MooreAutomaton) -> MooreAutomaton:
    """Restriction to states reachable from init, renumbered in BFS order."""
    start, _, step = by_rows(m.init, m.out, m.trans)
    order, trans = explore([start], step, m.alphabet, m.n, "reach")
    names = tuple(m.state_names[s] for s in order) if m.state_names else None
    return MooreAutomaton(len(order), m.alphabet, {a: tuple(ts) for a, ts in trans.items()},
                          0, tuple(m.out[s] for s in order), m.outputs, names)


def stable_partition(keys: Sequence[Hashable], trans: Mapping[str, Sequence[int]],
                     alphabet: Sequence[str]) -> Partition:
    """Coarsest partition that separates different keys and is stable under
    every letter's successor map, by Hopcroft's algorithm in O(kn log n)
    (Hopcroft 1971, with the flat arrays of Valmari and Lehtinen 2008).

    Blocks start from equal keys, and every block but the largest is a
    splitter.  A splitter B splits each block into the states whose
    a-successor lies in B and the rest, letter by letter.  The smaller part
    takes a new id and becomes a splitter; the larger keeps the old id, so it
    is still a splitter exactly when the old block was one.  Blocks are
    numbered by their first state, as Partition.from_signatures numbers them.
    """
    n = len(keys)
    ids: dict = {}
    block_of = [ids.setdefault(key, len(ids)) for key in keys]
    # block b holds elems[first[b]:end[b]], and loc[s] is the index of s in
    # elems; the states a splitter reaches gather at the front, up to mid[b]
    elems = sorted(range(n), key=block_of.__getitem__)
    loc = sorted(range(n), key=elems.__getitem__)  # the inverse permutation
    end = list(accumulate(Counter(block_of).values()))
    first = [0] + end[:-1]
    mid = first[:]
    preimages = []
    for a in alphabet:
        pre: list[list[int]] = [[] for _ in range(n)]
        for s, t in enumerate(trans[a]):
            pre[t].append(s)
        preimages.append(pre)
    todo = sorted(range(len(end)), key=lambda b: end[b] - first[b])[:-1]
    while todo:
        b = todo.pop()
        for pre in preimages:
            touched = []
            for t in elems[first[b]:end[b]]:
                for s in pre[t]:  # move s to the front of its block
                    c = block_of[s]
                    j = mid[c]
                    if j == first[c]:
                        touched.append(c)
                    mid[c] = j + 1
                    i, u = loc[s], elems[j]
                    elems[i], loc[u] = u, i
                    elems[j], loc[s] = s, j
            for c in touched:
                lo, j, hi = first[c], mid[c], end[c]
                mid[c] = lo
                if j == hi:
                    continue
                if j - lo <= hi - j:
                    first.append(lo)
                    end.append(j)
                    first[c] = mid[c] = j
                else:
                    first.append(j)
                    end.append(hi)
                    end[c] = j
                new = len(mid)
                mid.append(first[new])
                for s in elems[first[new]:end[new]]:
                    block_of[s] = new
                todo.append(new)
    return Partition.from_signatures(block_of)


def quotient_rows(part: Partition, keys: Sequence, trans: Mapping[str, Sequence[int]],
                  alphabet: Sequence[str]) -> tuple[tuple, dict[str, tuple[int, ...]]]:
    """Keys and successor rows of the quotient by a congruence partition.

    Each block is represented by its least state.  Raises NonCongruenceError
    with witness (rep, s) when a block mixes keys or successor blocks.
    """
    if len(part.block_of) != len(keys):
        raise ValueError("partition is over the wrong state count")
    b = part.block_of
    reps = []
    for block in part.blocks():
        rep = block[0]
        reps.append(rep)
        for s in block[1:]:
            if keys[s] != keys[rep]:
                raise NonCongruenceError(
                    f"states {rep} and {s} share a block but observe differently",
                    witness=(rep, s))
            for a in alphabet:
                if b[trans[a][s]] != b[trans[a][rep]]:
                    raise NonCongruenceError(
                        f"states {rep} and {s} share a block but step to different blocks on {a!r}",
                        witness=(rep, s))
    return (tuple(keys[r] for r in reps),
            {a: tuple(b[trans[a][r]] for r in reps) for a in alphabet})


def quotient_moore(m: MooreAutomaton, part: Partition) -> MooreAutomaton:
    """The quotient automaton on the blocks of a congruence partition, block
    i as state i; it keeps m's output set and drops state names."""
    out, trans = quotient_rows(part, m.out, m.trans, m.alphabet)
    return MooreAutomaton(part.n_blocks, m.alphabet, trans, part.block_of[m.init], out, m.outputs)


def partition_refinement_minimise(m: MooreAutomaton) -> MooreAutomaton:
    """Moore-style partition refinement on the reachable part; the quotient
    is the canonical minimal automaton."""
    # the quotient needs no reach of its own: m is BFS-numbered and the blocks
    # are numbered in the order of their least states, so the quotient is too
    m = reach(m)
    return quotient_moore(m, stable_partition(m.out, m.trans, m.alphabet))


def iso_check(m1: MooreAutomaton, m2: MooreAutomaton) -> bool:
    """True iff a bijection respecting init, transitions and outputs maps one
    reachable part onto the other: `reach` numbers states canonically (BFS
    order), and state names take no part in ==."""
    return reach(m1) == reach(m2)


def pair_walk(first: tuple, second: tuple, alphabet: Sequence[str],
              max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff the pairs of states reachable from the two starts all carry
    equal keys.  `first` and `second` are (start, key, step) triples over one
    alphabet: key(s) is what state s shows (a Moore output, a Kripke model's
    observation set, whether a subset accepts) and step(s, a) its successor.
    The pairs are walked from a stack, each stored once behind the state
    bound, and the walk stops at the first pair whose keys differ."""
    (start1, key1, step1), (start2, key2, step2) = first, second
    pair = start1, start2
    seen, stack = {pair}, [pair]
    while stack:
        s1, s2 = stack.pop()
        if key1(s1) != key2(s2):
            return False
        for a in alphabet:
            pair = step1(s1, a), step2(s2, a)
            if pair not in seen:
                if len(seen) >= max_states:
                    raise StateGuardError(
                        f"the pair walk stores more than {max_states} pairs; raise --max-states")
                seen.add(pair)
                stack.append(pair)
    return True


def by_rows(start: int, keys: Sequence, rows: Mapping[str, Sequence[int]]) -> tuple:
    """The (start, key, step) triple of a structure given by keys and successor rows."""
    return start, keys.__getitem__, lambda s, a: rows[a][s]


def equiv_exact(x1, x2, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Exact equivalence of two automata of one Boolean kind (Moore, NFA, AFA,
    Kripke model): one pair walk of their views.  Moore states are keyed by
    output label, so output lists may differ in order and in unshown outputs;
    AFA views read words reversed, as equal languages have equal reversals."""
    if x1.kind != x2.kind:
        raise ValueError("equiv_exact: kinds differ")
    if x1.alphabet != x2.alphabet:
        raise ValueError("equiv_exact: alphabets differ")
    return pair_walk(x1.view(), x2.view(), x1.alphabet, max_states)
