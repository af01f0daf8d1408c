"""Independent brute-force oracles and shared fixtures for the test suite.

Everything here deliberately avoids the library's own algorithms: languages
are compared by enumerating words, weighted values by summing over explicit
paths, matrix and vector products by one semiring add and mul per entry,
ranks and echelon forms by plain Gaussian elimination, Hermite normal
forms by whole-matrix elimination, determinants by permutation expansion,
AFA acceptance by the literal recursive definition, AFA formulas by
interpreting their syntax tree on one subset at a time, the dual automaton on
predicates kept as tuples, the names of subset states by joining the sorted
members of sets, trace-formula extensions and the definable closure of a
Kripke model by frozenset preimages (the library walks and explores the
dual's predicate step), coarsest stable partitions by refinement in rounds
(the library runs Hopcroft's algorithm), emitted text by json.dumps (of a
DFA or Moore document built here: the library writes those from the
automaton's arrays), and the `closure` verb's lines by sorting the closure
as frozensets by (size, members) (the library sorts its 0/1 rows as bytes).
Eleven oracles
keep a library route as an explicit second copy: the Kripke quotient by the
atoms of the definable closure as listed, the Moore quotient by the same
atoms of the model with one observation per output, the Hankel block one word
pair at a time, Moore equivalence by a hand-written breadth-first walk over the
product, Kripke equivalence by refining the disjoint union of two models in
rounds, the subset construction on frozensets instead of bitmasks, weighted
equivalence through the reachable submodule of the difference automaton, a
formula's truth table evaluated on whole tables of 2^n bits, and the reversed
DFA of an AFA stepped through truth tables (the library evaluates each
condition on one bitmask), Boolean minimisation by determinising first and
then taking the dual twice (the library takes the dual of the NFA), and an
AFA's minimal DFA as one dual pass over its unnamed reachable reversed DFA
(the library calls `brzozowski_minimise`).

The module also holds the small builders that several test modules share and
the package does not ship: identity and zero matrices, constant Boolean
functions and their lookup on one subset, the AFA embedding of a DFA, the
reachable part of an AFA's reversed DFA, a record's copy with fields
changed, the DFA-output test, the decoding of 0/1 rows into sets, the
closure of a DFA named as the dual names its states, the one-state automata,
and a random NFA generator.
"""

import ast
import json
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from operator import and_, mul, or_

from dualmin import (RATIONAL, AlternatingAutomaton, BoolFun, Dkm, FieldBasis, Matrix,
                     MooreAutomaton, Nfa, Semiring, WeightedAutomaton, boolean_atoms,
                     brzozowski_minimise, definable_closure, dual_automaton, mat_vec,
                     quotient_dkm, reach, reach_restrict, vec_mat)
from dualmin.automata import (DFA_OUTPUTS, Partition, _mask, quotient_moore, subset_dfa,
                              subset_names)
from dualmin.cli import _shown
from dualmin.errors import DEFAULT_MAX_STATES
from dualmin.io import _document
from dualmin.sampling import _alphabet
from dualmin.semiring import over_lcm


def ends_with_a_dfa() -> MooreAutomaton:
    """A redundant 3-state DFA for (a+b)*a; its two accepting states behave alike."""
    return MooreAutomaton.dfa(
        3, ("a", "b"),
        {"a": (2, 1, 1), "b": (0, 0, 0)},
        0, [1, 2], state_names=("x", "y", "z"))


def words(alphabet, max_len):
    out = [()]
    for k in range(1, max_len + 1):
        out.extend(product(alphabet, repeat=k))
    return out


def run_by_hand(m: MooreAutomaton, word) -> int:
    s = m.init
    for a in word:
        s = m.trans[a][s]
    return m.out[s]


def nfa_accepts_paths(n: Nfa, word) -> bool:
    """Accepting-run search over explicit paths."""

    def go(state, rest):
        if not rest:
            return state in n.finals
        return any(go(t, rest[1:]) for t in n.trans[rest[0]][state])

    return any(go(s, tuple(word)) for s in n.inits)


def wa_eval_paths(w: WeightedAutomaton, word):
    """Sum over all state paths of init * weights * final."""
    sr = w.semiring
    total = sr.zero
    word = tuple(word)
    for path in product(range(w.n), repeat=len(word) + 1):
        value = w.init[path[0]]
        for i, a in enumerate(word):
            value = sr.mul(w.mats[a].entries[path[i + 1]][path[i]], value)
        total = sr.add(total, sr.mul(w.final[path[-1]], value))
    return total


def dot_by_entries(sr, u, v):
    """Dot product with one sr.mul and one sr.add per entry, in a Python loop."""
    if len(u) != len(v):
        raise ValueError(f"dot: {len(u)} vs {len(v)}")
    acc = sr.zero
    for a, b in zip(u, v):
        acc = sr.add(acc, sr.mul(a, b))
    return acc


def mat_vec_by_entries(a, v) -> tuple:
    return tuple(dot_by_entries(a.semiring, row, v) for row in a.entries)


def vec_mat_by_entries(v, a) -> tuple:
    return tuple(dot_by_entries(a.semiring, v, a.col(j)) for j in range(a.n_cols))


def mat_mul_by_entries(a, b) -> Matrix:
    rows = tuple(tuple(dot_by_entries(a.semiring, row, b.col(j)) for j in range(b.n_cols))
                 for row in a.entries)
    return Matrix(a.semiring, a.n_rows, b.n_cols, rows)


def series_by_entries(w: WeightedAutomaton, word):
    """final * t_ak * ... * t_a1 * init through the per-entry products."""
    v = w.init
    for a in word:
        v = mat_vec_by_entries(w.mats[a], v)
    return dot_by_entries(w.semiring, w.final, v)


def afa_accepts_recursive(a: AlternatingAutomaton, word) -> bool:
    """Literal recursion: delta'_eps(A) = A, delta'_{aw}(A)(s) = delta_a(s)(delta'_w(A))."""

    def delta_prime(rest, subset):
        if not rest:
            return subset
        inner = delta_prime(rest[1:], subset)
        return frozenset(s for s in range(a.n) if holds(a.delta[rest[0]][s], inner))

    return holds(a.iota, delta_prime(tuple(word), a.finals))


def _leaf_name(node) -> str:
    """The name a leaf of a formula's tree spells: the keywords True, False
    and None parse as constants, yet read as states of those names."""
    return str(node.value) if isinstance(node, ast.Constant) else node.id


def formula_holds(formula: str, state_names, subset) -> bool:
    """Interpret an and/or/not formula on one subset of state indices; a state
    name is membership in the subset and shadows the constants true/false,
    True/False and None."""
    index = {name: i for i, name in enumerate(state_names)}

    def ev(node) -> bool:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BoolOp):
            op = all if isinstance(node.op, ast.And) else any
            return op(ev(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return not ev(node.operand)
        name = _leaf_name(node)
        if name in index:
            return index[name] in subset
        return name in ("true", "True")

    return ev(ast.parse(formula, mode="eval"))


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


def formula_table_by_tables(formula: str, state_names) -> int:
    """The truth table of an and/or/not formula, evaluated once on whole
    tables of 2^n bits: a state name is the table of its bit and shadows the
    constants as in formula_holds.  A chain of nots is walked in a loop, one
    complement per not, so that chains past the recursion limit evaluate."""
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
            nots = 0
            while isinstance(node, ast.UnaryOp):
                node, nots = node.operand, nots + 1
            table = ev(node)
            for _ in range(nots):
                table ^= ones
            return table
        name = _leaf_name(node)
        if name in index:
            return _variable(n, index[name])
        return ones if name in ("true", "True") else 0

    return ev(ast.parse(formula, mode="eval"))


def gauss_rank(rows) -> int:
    """Rank over Q by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rref(rows, n_cols):
    """Nonzero rows of the reduced row echelon form over Q, by plain Gauss-Jordan."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(n_cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][c]
        m[rank] = [x / inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return tuple(tuple(row) for row in m[:rank])


def hnf_batch(entries, n_cols):
    """Row-style Hermite normal form of an integer matrix, all rows at once.

    Returns (h, u) as tuples of rows with u * a = h and u unimodular, h in
    canonical shape with its zero rows at the bottom.  Each column is cleared
    below the pivot by repeatedly taking the smallest absolute nonzero entry
    as pivot; the entries above each pivot are then reduced into [0, pivot).
    """
    m, n = len(entries), n_cols
    work = [list(row) for row in entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap(i, j):
        if i != j:
            work[i], work[j] = work[j], work[i]
            u[i], u[j] = u[j], u[i]

    def submul(i, j, q):
        # row_i -= q * row_j
        if q:
            wi, wj = work[i], work[j]
            for k in range(n):
                wi[k] -= q * wj[k]
            ui, uj = u[i], u[j]
            for k in range(m):
                ui[k] -= q * uj[k]

    def negate(i):
        work[i] = [-x for x in work[i]]
        u[i] = [-x for x in u[i]]

    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            live = [i for i in range(r, m) if work[i][c] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(work[i][c]))
            swap(r, best)
            done = True
            for i in range(r + 1, m):
                q = work[i][c] // work[r][c]
                submul(i, r, q)
                if work[i][c] != 0:
                    done = False
            if done:
                break
        if work[r][c] != 0:
            if work[r][c] < 0:
                negate(r)
            for i in range(r):
                submul(i, r, work[i][c] // work[r][c])
            r += 1

    return tuple(map(tuple, work)), tuple(map(tuple, u))


def det_perm(entries) -> int:
    """Determinant by permutation expansion (fine up to 5x5)."""
    n = len(entries)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= entries[i][perm[i]]
        total += term
    return total


def smallest_equivalent_dfa(m: MooreAutomaton, probe_len: int = 8) -> int:
    """Minimum state count over all DFAs bounded-equivalent to m (exhaustive).

    Only usable for tiny alphabets and candidates; bounded word comparison up
    to probe_len is exact here because candidate and target sizes stay small.
    """
    ws = words(m.alphabet, probe_len)
    target = [run_by_hand(m, w) for w in ws]
    for k in range(1, m.n + 1):
        for trans_choice in product(product(range(k), repeat=k), repeat=len(m.alphabet)):
            trans = dict(zip(m.alphabet, trans_choice))
            for accepting_mask in range(1 << k):
                accepting = [s for s in range(k) if accepting_mask >> s & 1]
                for init in range(k):
                    cand = MooreAutomaton.dfa(k, m.alphabet, trans, init, accepting)
                    if [run_by_hand(cand, w) for w in ws] == target:
                        return k
    return m.n


def moore_document(m: MooreAutomaton) -> dict:
    """The DFA or Moore document of m as a dict of names: emit writes these
    documents straight from m's arrays and builds no dict."""
    names = list(m.state_names or (f"s{i}" for i in range(m.n)))
    trans = {a: {names[s]: names[m.trans[a][s]] for s in range(m.n)} for a in m.alphabet}
    if m.outputs == DFA_OUTPUTS:
        return {"type": "dfa", "alphabet": list(m.alphabet), "states": names,
                "initial": names[m.init], "transitions": trans,
                "finals": [names[s] for s in range(m.n) if m.out[s] == 1]}
    return {"type": "moore", "alphabet": list(m.alphabet), "states": names,
            "initial": names[m.init], "transitions": trans,
            "outputs": list(m.outputs),
            "out": {names[s]: m.outputs[m.out[s]] for s in range(m.n)}}


def emit_json(obj) -> str:
    """The canonical text through json.dumps, as emit wrote it before it
    streamed: the same document, serialised in one piece.  A DFA or Moore
    document is built here (`moore_document`), so for those kinds the
    reference shares no code with the writer it checks."""
    doc = moore_document(obj) if isinstance(obj, MooreAutomaton) else _document(obj)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def names_by_sets(subsets, names, n):
    """The subset-naming rule spelled out on sets of states: the members'
    labels (their names, or s0, s1, ... without names) in ascending order,
    joined by "+", or by "," when some label holds a "+"; "empty" for the
    empty set.  None when two names collide."""
    labels = list(names) if names else [f"s{i}" for i in range(n)]
    sep = "," if any("+" in label for label in labels) else "+"
    out = tuple(sep.join(labels[s] for s in sorted(subset)) if subset else "empty"
                for subset in subsets)
    return out if len(set(out)) == len(out) else None


def dual_by_tuples(m: MooreAutomaton) -> MooreAutomaton:
    """The dual automaton with every predicate a tuple of output indices,
    explored breadth first with letters in alphabet order; states are named
    by `names_by_sets` when m is a DFA (its outputs are DFA_OUTPUTS), and
    unnamed otherwise.  Applied twice it is `dual` twice, with nested names;
    applied to the first pass with its names dropped, it is a double
    reversal, named by first-pass index."""
    index = {tuple(m.out): 0}
    order = [tuple(m.out)]
    trans = {a: [] for a in m.alphabet}
    for phi in order:
        for a in m.alphabet:
            nxt = tuple(phi[t] for t in m.trans[a])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[a].append(index[nxt])
    names = None
    if m.outputs == DFA_OUTPUTS:
        names = names_by_sets([{s for s in range(m.n) if phi[s]} for phi in order],
                              m.state_names, m.n)
    return MooreAutomaton(len(order), m.alphabet, {a: tuple(ts) for a, ts in trans.items()},
                          0, tuple(phi[m.init] for phi in order), m.outputs, names)


def eval_trace_by_preimages(k, formula) -> frozenset:
    """A trace formula's extension, right to left: the observation's
    extension as a frozenset, then the frozenset preimage under each letter
    of the reversed word.  An unknown observation or letter is a ValueError
    with the library's message."""
    if formula.obs not in k.obs:
        raise ValueError(f"unknown observation {formula.obs!r}")
    current = frozenset(s for s in range(k.n) if formula.obs in k.gamma[s])
    for a in reversed(formula.word):
        if a not in k.delta:
            raise ValueError(f"unknown letter {a!r}")
        row = k.delta[a]
        current = frozenset(s for s in range(k.n) if row[s] in current)
    return current


def closure_by_preimages(k) -> frozenset:
    """The definable closure of a Kripke model: the observation extensions
    closed under transition preimages, each set a frozenset, by a plain
    worklist."""
    states = range(k.n)
    found = {frozenset(s for s in states if w in k.gamma[s]) for w in k.obs}
    todo = list(found)
    while todo:
        cur = todo.pop()
        for a in k.alphabet:
            pre = frozenset(s for s in states if k.delta[a][s] in cur)
            if pre not in found:
                found.add(pre)
                todo.append(pre)
    return frozenset(found)


def row_sets(rows) -> frozenset:
    """A family of 0/1 rows (definable_closure's form) decoded into a
    frozenset of member sets: row r gives the states s with r[s] nonzero."""
    return frozenset(frozenset(s for s, member in enumerate(row) if member) for row in rows)


def closure_text_by_sets(family, labels) -> str:
    """The `closure` verb's output from a family of frozensets: one line per
    set, sorted by (size, sorted members), each the set's members' shown
    labels in ascending order between braces."""
    return "".join("{" + ",".join(_shown(labels[s]) for s in sorted(subset)) + "}\n"
                   for subset in sorted(family, key=lambda s: (len(s), sorted(s))))


def minimise_dkm_by_atoms(k):
    """The Kripke quotient by the Boolean atoms of the definable closure,
    through the closure listed as rows."""
    return quotient_dkm(k, boolean_atoms(definable_closure(k), k.n))


def duality_minimise_by_atoms(m):
    """The reachable part of a Moore automaton quotiented by the Boolean atoms
    of its definable closure, read as a Kripke model with one observation per
    output: the duality route that lists the whole closure."""
    m = reach(m)
    obs = tuple(map(str, range(len(m.outputs))))
    k = Dkm(m.n, m.alphabet, obs, tuple(frozenset({obs[o]}) for o in m.out), dict(m.trans))
    return quotient_moore(m, boolean_atoms(definable_closure(k), m.n))


def hankel_basis_by_pairs(w: WeightedAutomaton, max_len: int) -> FieldBasis:
    """Echelon basis of the Hankel block H[u][v] = series(u.v), |u|,|v| <=
    max_len, with each entry a Fraction dot product of the backward vector of
    v and the forward vector of u, and the rows inserted in word order."""
    mats = {a: Matrix(RATIONAL, w.n, w.n, tuple(tuple(map(Fraction, row)) for row in m.entries))
            for a, m in w.mats.items()}
    ws = words(w.alphabet, max_len)
    forward = {(): tuple(map(Fraction, w.init))}
    backward = {(): tuple(map(Fraction, w.final))}
    for word in ws[1:]:
        forward[word] = mat_vec_by_entries(mats[word[-1]], forward[word[:-1]])
        backward[word] = vec_mat_by_entries(backward[word[1:]], mats[word[0]])
    basis = FieldBasis(len(ws))
    for u in ws:
        basis, _ = basis.insert(tuple(dot_by_entries(RATIONAL, backward[v], forward[u])
                                      for v in ws))
    return basis


def hankel_basis_by_block(w: WeightedAutomaton, max_len: int) -> FieldBasis:
    """The row space of the whole Hankel block, |u|,|v| <= max_len, rows
    inserted in word order: every forward and backward vector, the backward
    ones over one common denominator and each forward one over its own, so
    that row u is H's row u times a nonzero integer."""
    ws = words(w.alphabet, max_len)
    mats = {a: Matrix(RATIONAL, w.n, w.n, tuple(tuple(map(Fraction, row)) for row in m.entries))
            for a, m in w.mats.items()}
    forward = {(): tuple(map(Fraction, w.init))}
    backward = {(): tuple(map(Fraction, w.final))}
    for word in ws[1:]:
        forward[word] = mat_vec(mats[word[-1]], forward[word[:-1]])
        backward[word] = vec_mat(backward[word[1:]], mats[word[0]])
    back = Matrix(RATIONAL, len(ws), w.n, tuple(backward[v] for v in ws)).kernel_rows[0]
    basis = FieldBasis(len(ws))
    for u in ws:
        f = over_lcm(forward[u])[0]
        basis, _ = basis.insert(tuple(sum(map(mul, b, f)) for b in back))
    return basis


def equiv_by_bfs(m1: MooreAutomaton, m2: MooreAutomaton) -> bool:
    """Moore equivalence by a breadth-first walk over the reachable pairs of
    states with a deque and a seen set, stopping at the first pair whose
    outputs differ."""
    start = (m1.init, m2.init)
    seen = {start}
    queue = deque([start])
    while queue:
        s1, s2 = queue.popleft()
        if m1.out[s1] != m2.out[s2]:
            return False
        for a in m1.alphabet:
            nxt = (m1.trans[a][s1], m2.trans[a][s2])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def determinise_by_sets(n: Nfa) -> MooreAutomaton:
    """The subset construction with every subset a frozenset, explored
    breadth first with letters in alphabet order; states are named by
    `names_by_sets`."""
    start = frozenset(n.inits)
    index, order = {start: 0}, [start]
    trans = {a: [] for a in n.alphabet}
    for cur in order:
        for a in n.alphabet:
            nxt = frozenset(t for s in cur for t in n.trans[a][s])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[a].append(index[nxt])
    names = names_by_sets(order, n.state_names, n.n)
    return MooreAutomaton(len(order), n.alphabet, {a: tuple(ts) for a, ts in trans.items()},
                          0, tuple(1 if subset & n.finals else 0 for subset in order),
                          DFA_OUTPUTS, names)


def minimise_by_determinising(n: Nfa, max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """Boolean minimisation in three passes: the subset DFA of the NFA, built
    unnamed, then the dual taken twice."""
    return brzozowski_minimise(subset_dfa(n, max_states, named=False), max_states)


def minimal_dfa_for_afa_by_composition(a: AlternatingAutomaton,
                                       max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """An AFA's minimal DFA as one dual pass over the reachable part of its
    reversed DFA, built unnamed, so that the dual names its states by
    reversed-DFA index (`s0+s3`)."""
    return dual_automaton(subset_dfa(a, max_states, named=False), max_states)


def equiv_by_difference(a: WeightedAutomaton, b: WeightedAutomaton) -> bool:
    """Weighted equivalence over Q or Z through the block-diagonal difference
    automaton, with initial vector (i_a, i_b) and final vector (f_a, -f_b): it
    recognises series(a) - series(b), which is zero iff its final vector
    vanishes on the reachable submodule (over Z, the reachable lattice), that
    is iff the restricted automaton's final vector is zero."""
    sr = a.semiring
    zero = sr.zero
    n = a.n + b.n
    mats = {x: Matrix(sr, n, n, tuple(row + (zero,) * b.n for row in a.mats[x].entries)
                      + tuple((zero,) * a.n + row for row in b.mats[x].entries))
            for x in a.alphabet}
    diff = WeightedAutomaton(n, a.alphabet, sr, mats, a.init + b.init,
                             a.final + tuple(-x for x in b.final))
    return all(x == zero for x in reach_restrict(diff).automaton.final)


def stable_partition_rounds(keys, trans, alphabet) -> Partition:
    """The coarsest partition that separates different keys and is stable
    under every letter's successor map, refined in rounds: blocks start from
    equal keys, and each round splits them on the blocks of the successors,
    until a round splits nothing.  A chain needs one round per state."""
    rows = [trans[a] for a in alphabet]
    part = Partition.from_signatures(keys)
    while True:
        b = part.block_of
        refined = Partition.from_signatures(zip(b, *(map(b.__getitem__, row) for row in rows)))
        if refined.n_blocks == part.n_blocks:
            return part
        part = refined


def dkm_equiv_by_union(k1, k2) -> bool:
    """Two Kripke models' initial states are bisimilar iff they share a block
    of the coarsest stable partition of the disjoint union of the models
    (the second model's states shifted by k1.n), refined in rounds."""
    gamma = k1.gamma + k2.gamma
    delta = {a: tuple(k1.delta[a]) + tuple(t + k1.n for t in k2.delta[a]) for a in k1.alphabet}
    block_of = stable_partition_rounds(gamma, delta, k1.alphabet).block_of
    return block_of[k1.init] == block_of[k1.n + k2.init]


def identity(semiring: Semiring, n: int) -> Matrix:
    one, zero = semiring.one, semiring.zero
    rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return Matrix(semiring, n, n, rows)


def zeros(semiring: Semiring, n_rows: int, n_cols: int) -> Matrix:
    zero = semiring.zero
    return Matrix(semiring, n_rows, n_cols, tuple((zero,) * n_cols for _ in range(n_rows)))


def always(n: int, value: bool) -> BoolFun:
    """The constant Boolean function over n states."""
    return BoolFun.from_table(n, _ones(n) if value else 0)


def reachable_reverse_dfa(a: AlternatingAutomaton,
                          max_states: int = DEFAULT_MAX_STATES) -> MooreAutomaton:
    """reach(reverse_dfa(a)), built from the final set without the unreachable
    subsets; the same states in the same order.  State names are decided on
    the reachable subsets alone, so they survive where only an unreachable
    subset would collide."""
    return subset_dfa(a, max_states)


def reverse_dfa_by_tables(n: int, alphabet, tables, iota: int, finals) -> MooreAutomaton:
    """The reversed DFA on all 2^n subsets of an AFA whose conditions are
    given as truth tables, tables[a][s] and iota: state `mask` is the subset
    with that bitmask, and its step on a collects the states whose table has
    bit `mask` set."""
    trans = {a: tuple(sum(1 << s for s, table in enumerate(tables[a]) if table >> mask & 1)
                      for mask in range(1 << n))
             for a in alphabet}
    out = tuple(iota >> mask & 1 for mask in range(1 << n))
    return MooreAutomaton(1 << n, tuple(alphabet), trans, _mask(n, finals), out, DFA_OUTPUTS)


def holds(f: BoolFun, subset) -> bool:
    """Whether the subset satisfies f, asked of f on the subset's bitmask."""
    try:
        return bool(f.at(_mask(f.n, subset)))
    except ValueError:  # a subset with an unknown state satisfies nothing
        return False


def afa_of_dfa(m: MooreAutomaton) -> AlternatingAutomaton:
    """Embed a DFA: delta_a(s) holds on A iff t_a(s) in A, iota holds iff init in A."""
    variables = [BoolFun.from_table(m.n, _variable(m.n, i)) for i in range(m.n)]
    delta = {a: tuple(variables[t] for t in m.trans[a]) for a in m.alphabet}
    return AlternatingAutomaton(m.n, m.alphabet, delta, variables[m.init], m.accepting(),
                                m.state_names)


def replace(obj, **changes):
    """A copy of a record with the given fields changed, built (and so
    checked) by its constructor from the record's field list."""
    return type(obj)(**{f: changes.pop(f, getattr(obj, f)) for f in obj._fields}, **changes)


def is_dfa(m: MooreAutomaton) -> bool:
    return m.outputs == DFA_OUTPUTS


def closure_names(m: MooreAutomaton) -> set[str]:
    """The definable closure of a DFA read as a model, each set named by its
    members as the dual names its states."""
    return set(subset_names(definable_closure(Dkm.from_dfa(m)), m.state_names, m.n))


def one_state_automata():
    """One-state automata: DFAs over one and three letters, accepting or not,
    and Moore automata with three and with 300 outputs."""
    for letters in (("a",), ("a", "b", "c")):
        for accepting in ([], [0]):
            yield MooreAutomaton.dfa(1, letters, {a: (0,) for a in letters}, 0, accepting,
                                     state_names=("only",))
    yield MooreAutomaton(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, (2,), ("u", "v", "w"))
    yield MooreAutomaton(1, ("a",), {"a": (0,)}, 0, (299,), tuple(f"o{i}" for i in range(300)))


def random_nfa(rng, max_n: int = 6, max_letters: int = 2) -> Nfa:
    n = rng.randint(1, max_n)
    alphabet = _alphabet(rng, max_letters)
    trans = {a: tuple(frozenset(t for t in range(n) if rng.random() < 0.3)
                      for _ in range(n))
             for a in alphabet}
    inits = frozenset(s for s in range(n) if rng.random() < 0.4)
    finals = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Nfa(n, alphabet, trans, inits, finals)
