"""Independent brute-force oracles and shared fixtures for the test suite.

Everything here deliberately avoids the library's own algorithms: languages
are compared by enumerating words, weighted values by summing over explicit
paths, ranks by plain Gaussian elimination, determinants by permutation
expansion, AFA acceptance by the literal recursive definition, and AFA
formulas by interpreting their syntax tree on one subset at a time.
"""

import ast
from fractions import Fraction
from itertools import permutations, product

from dualmin import AlternatingAutomaton, MooreAutomaton, Nfa, WeightedAutomaton


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
    total = sr.zero()
    word = tuple(word)
    for path in product(range(w.n), repeat=len(word) + 1):
        value = w.init[path[0]]
        for i, a in enumerate(word):
            value = sr.mul(w.mats[a].entries[path[i + 1]][path[i]], value)
        total = sr.add(total, sr.mul(w.final[path[-1]], value))
    return total


def afa_accepts_recursive(a: AlternatingAutomaton, word) -> bool:
    """Literal recursion: delta'_eps(A) = A, delta'_{aw}(A)(s) = delta_a(s)(delta'_w(A))."""

    def delta_prime(rest, subset):
        if not rest:
            return subset
        inner = delta_prime(rest[1:], subset)
        return frozenset(s for s in range(a.n) if a.delta[rest[0]][s](inner))

    return a.iota(delta_prime(tuple(word), a.finals))


def formula_holds(formula: str, state_names, subset) -> bool:
    """Interpret an and/or/not formula on one subset of state indices; a state
    name is membership in the subset and shadows the constants true/false."""
    index = {name: i for i, name in enumerate(state_names)}

    def ev(node) -> bool:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.BoolOp):
            op = all if isinstance(node.op, ast.And) else any
            return op(ev(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return not ev(node.operand)
        if isinstance(node, ast.Constant):
            return node.value
        if node.id in index:
            return index[node.id] in subset
        return node.id == "true"

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
