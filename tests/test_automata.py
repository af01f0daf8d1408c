import random
import re

import pytest

from dualmin import (AlternatingAutomaton, BoolFun, Dkm, MooreAutomaton, Nfa, StateGuardError,
                     determinise, dual_automaton, equiv_exact, iso_check,
                     partition_refinement_minimise, reach, reverse, reverse_dfa, run)
from dualmin.automata import (Partition, bounded_words, by_rows, explore, mask_row, pair_walk,
                              quotient_rows, stable_partition, state_labels, subset_names,
                              walk)
from dualmin.errors import DEFAULT_MAX_STATES, NonCongruenceError
from dualmin.sampling import random_afa, random_dfa, random_dkm, random_moore

from oracles import (determinise_by_sets, dkm_equiv_by_union, dual_by_tuples, ends_with_a_dfa,
                     equiv_by_bfs, holds, names_by_sets, nfa_accepts_paths, random_nfa,
                     reachable_reverse_dfa, replace, reverse_dfa_by_tables, run_by_hand,
                     smallest_equivalent_dfa, stable_partition_rounds, words)


def test_run_examples():
    m = ends_with_a_dfa()
    assert run(m, ("a",)) == 1
    assert run(m, ()) == 0
    assert run(m, ("a", "b")) == 0


def test_dfa_accepting_states_may_be_a_generator():
    m = MooreAutomaton.dfa(3, ("a",), {"a": (1, 2, 0)}, 0, (x for x in [1, 2]))
    assert m.out == (0, 1, 1)


def test_run_unknown_letter():
    with pytest.raises(ValueError):
        run(ends_with_a_dfa(), ("q",))


def test_reverse_ends_with_a():
    n = reverse(ends_with_a_dfa())
    x, y, z = 0, 1, 2
    assert n.inits == frozenset({y, z})
    assert n.finals == frozenset({x})
    assert n.trans["a"] == (frozenset(), frozenset({y, z}), frozenset({x}))
    assert n.trans["b"] == (frozenset({x, y, z}), frozenset(), frozenset())


def test_reverse_trivial_shapes():
    rejecting = MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [])
    rev = reverse(rejecting)
    assert rev.inits == frozenset() and rev.finals == frozenset({0})
    accepting_loop = MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [0])
    flipped = reverse(accepting_loop)
    assert flipped.trans["a"] == (frozenset({0}),)
    assert flipped.inits == frozenset({0})


def test_determinise_full_and_reachable():
    n = reverse(ends_with_a_dfa())
    # full subset closure over all 8 subsets of {x,y,z}
    x, y, z = 0, 1, 2
    f = frozenset
    step = n.view()[2]

    def members(mask):
        return f(s for s in range(3) if mask >> s & 1)

    closure = {members(mask): {a: members(step(mask, a)) for a in "ab"} for mask in range(8)}
    assert len(closure) == 8
    assert {s for s, row in closure.items() if row["a"] == f({y, z})} == {f({y}), f({x, y})}
    assert closure[f({x, z})] == {"a": f({x}), "b": f({x, y, z})}
    assert closure[f({x})] == {"a": f(), "b": f({x, y, z})}
    assert closure[f({z})] == {"a": f({x}), "b": f()}
    assert closure[f({y, z})] == {"a": f({x, y, z}), "b": f()}
    assert closure[f({x, y, z})] == {"a": f({x, y, z}), "b": f({x, y, z})}
    assert closure[f()] == {"a": f(), "b": f()}
    det = determinise(n)
    assert det.n == 3
    assert set(det.state_names) == {"y+z", "x+y+z", "empty"}
    assert run(det, ()) == 0  # {y,z} does not contain x


def test_reverse_needs_two_outputs():
    moore = MooreAutomaton(1, ("a",), {"a": (0,)}, 0, (0,), ("u", "v", "w"))
    with pytest.raises(ValueError):
        reverse(moore)


def test_determinise_deterministic_nfa_is_iso():
    rng = random.Random(4)
    for _ in range(50):
        m = random_dfa(rng, max_n=5)
        func = Nfa(m.n, m.alphabet,
                   {a: tuple(frozenset({m.trans[a][s]}) for s in range(m.n))
                    for a in m.alphabet},
                   frozenset({m.init}), m.accepting())
        assert iso_check(determinise(func), reach(m))


def test_determinise_empty_inits():
    n = Nfa(2, ("a",), {"a": (frozenset({1}), frozenset())}, frozenset(), frozenset({1}))
    det = determinise(n)
    assert det.n == 1
    assert det.out == (0,)


def test_determinise_matches_path_search():
    rng = random.Random(12)
    for _ in range(60):
        n = random_nfa(rng)
        det = determinise(n)
        for w in words(n.alphabet, 6):
            assert (run(det, w) == 1) == nfa_accepts_paths(n, w) == walk(n.view(), w, n.alphabet)


def _named(rng, n: Nfa) -> Nfa:
    """n with state names, some of them holding '+', or n unnamed."""
    if rng.random() < 0.5:
        return n
    names = tuple(f"q{s}" + ("+" if rng.random() < 0.2 else "") for s in range(n.n))
    return Nfa(n.n, n.alphabet, n.trans, n.inits, n.finals, names)


def test_determinise_matches_the_frozenset_oracle():
    rng = random.Random(14)
    shapes = set()
    for _ in range(400):
        n = _named(rng, random_nfa(rng))
        det, oracle = determinise(n), determinise_by_sets(n)
        assert det == oracle and det.state_names == oracle.state_names
        shapes.add((n.n == 1, not n.inits))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def _nfa_renumbered(rng, n: Nfa) -> Nfa:
    perm = list(range(n.n))
    rng.shuffle(perm)
    inv = {p: s for s, p in enumerate(perm)}
    trans = {a: tuple(frozenset(perm[t] for t in row[inv[p]]) for p in range(n.n))
             for a, row in n.trans.items()}
    return Nfa(n.n, n.alphabet, trans, frozenset(perm[s] for s in n.inits),
               frozenset(perm[s] for s in n.finals))


def _nfa_duplicated(rng, n: Nfa) -> Nfa:
    """n with a new state n.n that copies state s: its arcs, its finality,
    its initiality, and every arc into s; the language stays the same."""
    s = rng.randrange(n.n)

    def lift(targets):
        return targets | {n.n} if s in targets else targets

    trans = {a: tuple(map(lift, row)) + (lift(row[s]),) for a, row in n.trans.items()}
    return Nfa(n.n + 1, n.alphabet, trans, lift(n.inits), lift(n.finals))


def test_nfa_pair_walk_matches_the_determinised_oracle():
    rng = random.Random(15)
    verdicts = []
    for i in range(1000):
        n = random_nfa(rng)
        kind = i % 4
        if kind == 0:
            other = _nfa_renumbered(rng, n)
        elif kind == 1:
            other = _nfa_duplicated(rng, n)
        elif kind == 2:  # one state's finality flipped, which may not matter
            other = Nfa(n.n, n.alphabet, n.trans, n.inits, n.finals ^ {rng.randrange(n.n)})
        else:  # an independent draw over the same letters
            other = random_nfa(rng)
            if other.alphabet != n.alphabet:
                continue
        verdict = pair_walk(n.view(), other.view(), n.alphabet)
        assert verdict == equiv_by_bfs(determinise_by_sets(n), determinise_by_sets(other))
        assert verdict == pair_walk(other.view(), n.view(), n.alphabet)
        if kind < 2:
            assert verdict
        verdicts.append(verdict)
    assert verdicts.count(False) >= 100 and verdicts.count(True) >= 100


def test_reach_trivial_and_sink():
    m = ends_with_a_dfa()
    assert iso_check(reach(m), m)
    with_sink = MooreAutomaton.dfa(4, ("a", "b"),
                                   {"a": (2, 1, 1, 3), "b": (0, 0, 0, 3)}, 0, [1, 2])
    assert reach(with_sink).n == 3
    assert iso_check(reach(with_sink), m)


def test_reach_of_reversal():
    det = determinise(reverse(ends_with_a_dfa()))
    r = reach(det)
    assert r.n == 3


def test_reach_preserves_language():
    rng = random.Random(8)
    for _ in range(50):
        m = random_moore(rng, max_n=6)
        r = reach(m)
        for w in words(m.alphabet, 5):
            assert run(r, w) == run_by_hand(m, w)


def test_refinement_ends_with_a():
    mini = partition_refinement_minimise(ends_with_a_dfa())
    assert mini.n == 2
    assert equiv_exact(mini, ends_with_a_dfa())


def test_refinement_already_minimal():
    two = MooreAutomaton.dfa(2, ("a",), {"a": (1, 0)}, 0, [1])
    assert iso_check(partition_refinement_minimise(two), two)


def test_refinement_merges_twins():
    m = MooreAutomaton.dfa(3, ("a",), {"a": (1, 2, 1)}, 0, [1, 2])
    assert partition_refinement_minimise(m).n == 2


def test_refinement_is_minimal_exhaustively():
    rng = random.Random(31)
    for _ in range(40):
        m = random_dfa(rng, max_n=3, max_letters=2)
        assert partition_refinement_minimise(m).n == smallest_equivalent_dfa(m)


def _permuted(rng, keys, rows):
    """The same keyed structure with its states renumbered at random: state i
    is the old state old[i]."""
    old = list(range(len(keys)))
    rng.shuffle(old)
    new = {s: i for i, s in enumerate(old)}
    return (tuple(keys[s] for s in old),
            {a: tuple(new[row[s]] for s in old) for a, row in rows.items()})


def _chain(n, b_resets=True):
    """a steps right, b resets to the start (or stays put); only the last
    state differs.  All n states are distinguishable, and refinement in
    rounds splits one block per round."""
    return (tuple(int(i == n - 1) for i in range(n)),
            {"a": tuple(min(i + 1, n - 1) for i in range(n)),
             "b": tuple(0 if b_resets else i for i in range(n))})


def _kth_from_end(k, parity=False):
    """The last k letters read (and, with `parity`, whether the length read is
    odd, which the key ignores); the key is whether the k-th letter from
    the end was an a."""
    mask = (1 << k) - 1
    states = [(w, p) for p in range(1 + parity) for w in range(1 << k)]
    index = {s: i for i, s in enumerate(states)}
    rows = {a: tuple(index[((w << 1 | (a == "a")) & mask, (p + 1) % (1 + parity))]
                     for w, p in states) for a in "ab"}
    return tuple(w >> (k - 1) & 1 for w, _ in states), rows


def test_hopcroft_matches_refinement_in_rounds():
    """stable_partition against the round-based oracle, partition by
    partition: random keyed structures with 1-3 letters, 1-4 keys and every
    n from 0 to 40 (half of them with successors in a few states, so that
    blocks merge), random Kripke models, chains and k-th-from-end DFAs."""
    rng = random.Random(20)
    cases = []
    for i in range(369):
        n = i % 41
        alphabet = "abc"[:rng.randint(1, 3)]
        n_keys = rng.randint(1, 4)
        targets = n if i % 2 else min(n, rng.randint(1, 4))
        cases.append((tuple(rng.randrange(n_keys) for _ in range(n)),
                      {a: tuple(rng.randrange(targets) for _ in range(n)) for a in alphabet},
                      alphabet))
    for _ in range(100):
        k = random_dkm(rng, max_n=12, max_letters=3, max_obs=3)
        cases.append((k.gamma, k.delta, k.alphabet))
    for n in (1, 2, 3, 40, 200):
        for b_resets in (True, False):
            cases.append((*_permuted(rng, *_chain(n, b_resets)), "ab"))
    for k in range(1, 7):
        for parity in (False, True):
            cases.append((*_permuted(rng, *_kth_from_end(k, parity)), "ab"))
    blocks = set()
    for keys, rows, alphabet in cases:
        part = stable_partition(keys, rows, alphabet)
        assert part == stable_partition_rounds(keys, rows, alphabet), (keys, rows)
        blocks.add((len(keys), part.n_blocks))
    assert (0, 0) in blocks and (1, 1) in blocks and (200, 200) in blocks
    assert (64, 32) in blocks  # the parity twins of the 5th-from-end DFA merge


def test_iso_check_basics():
    m = ends_with_a_dfa()
    assert iso_check(m, m)
    assert not iso_check(m, partition_refinement_minimise(m))


def test_iso_check_ignores_state_names():
    rng = random.Random(15)
    for _ in range(40):
        m = random_moore(rng, max_n=5, max_letters=2, max_outputs=2)
        perm = list(range(m.n))
        rng.shuffle(perm)
        inv = {p: s for s, p in enumerate(perm)}
        moved = MooreAutomaton(m.n, m.alphabet,
                               {a: tuple(perm[m.trans[a][inv[p]]] for p in range(m.n))
                                for a in m.alphabet},
                               perm[m.init], tuple(m.out[inv[p]] for p in range(m.n)),
                               m.outputs, tuple(f"r{inv[p]}" for p in range(m.n)))
        assert iso_check(m, moved) and iso_check(moved, m)
        assert iso_check(moved, MooreAutomaton(m.n, m.alphabet, m.trans, m.init, m.out,
                                               m.outputs))


def test_iso_is_equivalence_and_implies_equiv():
    rng = random.Random(14)
    autos = [random_moore(rng, max_n=4, max_letters=2, max_outputs=2) for _ in range(20)]
    for m1 in autos:
        assert iso_check(m1, m1)
        for m2 in autos:
            if m1.alphabet != m2.alphabet or m1.outputs != m2.outputs:
                continue
            left = iso_check(m1, m2)
            assert left == iso_check(m2, m1)
            if left:
                assert equiv_exact(m1, m2)


def test_equiv_exact_basics():
    m = ends_with_a_dfa()
    assert equiv_exact(m, m)
    assert equiv_exact(m, partition_refinement_minimise(m))
    yes = MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [0])
    no = MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [])
    assert not equiv_exact(yes, no)


def test_equiv_exact_mismatch_errors():
    m = ends_with_a_dfa()
    other = MooreAutomaton.dfa(1, ("c",), {"c": (0,)}, 0, [0])
    with pytest.raises(ValueError):
        equiv_exact(m, other)
    with pytest.raises(ValueError, match="^equiv_exact: kinds differ$"):
        equiv_exact(m, reverse(m))
    # output labels that differ are a verdict, not an error
    moore = MooreAutomaton(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, (0,), ("u", "v", "w"))
    assert equiv_exact(m, moore) is False


def test_equiv_exact_agrees_with_bounded_enumeration():
    rng = random.Random(40)
    for _ in range(60):
        m1 = random_dfa(rng, max_n=3, max_letters=2)
        m2 = random_dfa(rng, max_n=3, max_letters=2)
        if m1.alphabet != m2.alphabet:
            continue
        # the product has at most 9 states, so words up to length 8 decide
        brute = all(run_by_hand(m1, w) == run_by_hand(m2, w)
                    for w in words(m1.alphabet, 8))
        assert equiv_exact(m1, m2) == brute


def _with_unreachable(rng, m: MooreAutomaton) -> MooreAutomaton:
    """m plus one to three states that no state of m steps into."""
    extra = rng.randint(1, 3)
    n = m.n + extra
    trans = {a: m.trans[a] + tuple(rng.randrange(n) for _ in range(extra)) for a in m.alphabet}
    out = m.out + tuple(rng.randrange(len(m.outputs)) for _ in range(extra))
    return MooreAutomaton(n, m.alphabet, trans, m.init, out, m.outputs)


def _renumbered(rng, m: MooreAutomaton) -> MooreAutomaton:
    perm = list(range(m.n))
    rng.shuffle(perm)
    inv = {p: s for s, p in enumerate(perm)}
    return MooreAutomaton(m.n, m.alphabet,
                          {a: tuple(perm[m.trans[a][inv[p]]] for p in range(m.n))
                           for a in m.alphabet},
                          perm[m.init], tuple(m.out[inv[p]] for p in range(m.n)), m.outputs)


def test_equiv_exact_matches_the_bfs_oracle():
    rng = random.Random(41)
    verdicts = []
    for i in range(600):
        m = _with_unreachable(rng, random_moore(rng, max_n=5, max_letters=2, max_outputs=3))
        kind = i % 4
        if kind == 0:  # a renumbered copy, unreachable states included
            other = _renumbered(rng, m)
        elif kind == 1:  # the minimal automaton: no unreachable or equivalent states
            other = partition_refinement_minimise(m)
        elif kind == 2:  # an independent draw over the same letters and outputs
            n = rng.randint(1, 5)
            other = _with_unreachable(rng, MooreAutomaton(
                n, m.alphabet, {a: tuple(rng.randrange(n) for _ in range(n)) for a in m.alphabet},
                rng.randrange(n), tuple(rng.randrange(len(m.outputs)) for _ in range(n)),
                m.outputs))
        else:  # one output changed, which matters only if that state is reachable
            s = rng.randrange(m.n)
            out = list(m.out)
            out[s] = (out[s] + 1) % len(m.outputs)
            other = MooreAutomaton(m.n, m.alphabet, m.trans, m.init, tuple(out), m.outputs)
        verdict = equiv_exact(m, other)
        assert verdict == equiv_by_bfs(m, other) == equiv_exact(other, m)
        if kind < 2:
            assert verdict
        verdicts.append(verdict)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 300


def _perm(rng, n: int) -> tuple[list[int], dict[int, int]]:
    """A random renumbering of n states (old state s becomes perm[s]) and its inverse."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, {p: s for s, p in enumerate(perm)}


def _afa_renumbered(rng, a: AlternatingAutomaton) -> AlternatingAutomaton:
    perm, inv = _perm(rng, a.n)

    def moved(f: BoolFun) -> BoolFun:  # f read on the renumbered masks
        old = [sum(1 << s for s in range(a.n) if mask >> perm[s] & 1) for mask in range(1 << a.n)]
        return BoolFun.from_table(a.n, sum(f.at(m) << mask for mask, m in enumerate(old)))

    delta = {c: tuple(moved(row[inv[p]]) for p in range(a.n)) for c, row in a.delta.items()}
    return AlternatingAutomaton(a.n, a.alphabet, delta, moved(a.iota),
                                frozenset(perm[s] for s in a.finals))


def _dkm_renumbered(rng, k: Dkm) -> Dkm:
    perm, inv = _perm(rng, k.n)
    return Dkm(k.n, k.alphabet, k.obs, tuple(k.gamma[inv[p]] for p in range(k.n)),
               {a: tuple(perm[row[inv[p]]] for p in range(k.n)) for a, row in k.delta.items()},
               perm[k.init])


def _dkm_flipped(rng, k: Dkm) -> Dkm:
    """k with one observation flipped at one state."""
    s = rng.randrange(k.n)
    gamma = list(k.gamma)
    gamma[s] ^= {rng.choice(k.obs)}
    return replace(k, gamma=tuple(gamma))


def _afa_by_tables(a: AlternatingAutomaton) -> MooreAutomaton:
    tables = {c: [f.table for f in row] for c, row in a.delta.items()}
    return reverse_dfa_by_tables(a.n, a.alphabet, tables, a.iota.table, a.finals)


# kind -> (a random file, a renumbered copy, a copy with one final state or
# observation flipped, the oracle's verdict on two files)
EQUIV_KINDS = {
    "nfa": (random_nfa, _nfa_renumbered,
            lambda rng, n: replace(n, finals=n.finals ^ {rng.randrange(n.n)}),
            lambda n1, n2: equiv_by_bfs(determinise_by_sets(n1), determinise_by_sets(n2))),
    "afa": (random_afa, _afa_renumbered,
            lambda rng, a: replace(a, finals=a.finals ^ {rng.randrange(a.n)}),
            lambda a1, a2: equiv_by_bfs(_afa_by_tables(a1), _afa_by_tables(a2))),
    "dkm": (random_dkm, _dkm_renumbered, _dkm_flipped, dkm_equiv_by_union),
}


@pytest.mark.parametrize("kind", EQUIV_KINDS)
def test_equiv_exact_matches_the_oracle_of_each_boolean_kind(kind):
    draw, renumbered, flipped, oracle = EQUIV_KINDS[kind]
    rng = random.Random(f"equiv-{kind}")
    verdicts = []
    for i in range(450):
        x = draw(rng)
        if i % 3 == 0:
            y = renumbered(rng, x)
        elif i % 3 == 1:  # a flip that may not matter
            y = flipped(rng, x)
        else:  # an independent draw over the same letters
            y = draw(rng)
            if y.alphabet != x.alphabet:
                continue
        verdict = equiv_exact(x, y)
        assert verdict == oracle(x, y) == equiv_exact(y, x)
        if i % 3 == 0:
            assert verdict
        verdicts.append(verdict)
    assert verdicts.count(False) >= 75 and verdicts.count(True) >= 150


def test_pair_walk_obeys_the_state_bound():
    m = ends_with_a_dfa()  # compared with itself: 3 reachable pairs
    assert equiv_exact(m, m, max_states=3)
    with pytest.raises(StateGuardError, match="the pair walk stores more than 2 pairs"):
        equiv_exact(m, m, max_states=2)
    # a difference found before the bound is reached still decides
    yes = MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [0])
    no = MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [])
    assert not pair_walk(by_rows(0, yes.out, yes.trans), by_rows(0, no.out, no.trans),
                         ("a",), 1)


def test_bounded_words_counts_before_listing():
    assert list(bounded_words(("a", "b"), 2, 7, "test")) == words(("a", "b"), 2)
    with pytest.raises(StateGuardError, match="test of the words up to length 2 exceeds 6"):
        bounded_words(("a", "b"), 2, 6, "test")
    with pytest.raises(StateGuardError):
        bounded_words(("a",), 10**9, DEFAULT_MAX_STATES, "test")  # refused unlisted


def test_reverse_nfa_twice_is_identity():
    rng = random.Random(5)
    for _ in range(30):
        n = random_nfa(rng, max_n=5)
        flipped = reverse(n)
        assert flipped.inits == n.finals and flipped.finals == n.inits
        assert reverse(flipped) == n


def _walk(x, a):
    return (x + (1 if a == "a" else 2)) % 6


def test_explore_several_starts_in_bfs_order():
    order, trans = explore([3, 0, 3], _walk, ("a", "b"), 6, "walk")
    assert order == [3, 0, 4, 5, 1, 2]
    for a in ("a", "b"):
        assert [order[t] for t in trans[a]] == [_walk(x, a) for x in order]


def test_explore_guard():
    with pytest.raises(StateGuardError, match="walk exceeds 5 states"):
        explore([0], _walk, ("a", "b"), 5, "walk")
    with pytest.raises(StateGuardError):
        explore([0, 1], _walk, ("a",), 1, "walk")  # the starts alone exceed the bound


def test_subset_names_rule():
    assert state_labels(None, 3) == ("s0", "s1", "s2")
    assert state_labels(("x+y", "z"), 2) == ("x+y", "z")
    assert mask_row(0) == b"\0" and mask_row(0b101) == b"\1\0\1"

    def names(masks, labels, n):
        return subset_names(map(mask_row, masks), labels, n)

    assert names([1, 2, 4, 7], None, 3) == ("s0", "s1", "s2", "s0+s1+s2")
    assert names([0, 0b101], None, 3) == ("empty", "s0+s2")
    assert names([1, 3], ("x", "y"), 2) == ("x", "x+y")
    assert names([1, 3], ("x+y", "z"), 2) == ("x+y", "x+y,z")
    assert names([0, 1], ("empty", "z"), 2) is None
    # a label holding the separator "," makes distinct rows collide
    assert names([2, 12], ("a+", "b,c", "b", "c"), 4) is None
    # a dual predicate is already a row
    assert subset_names([b"\1\0\1", (0, 1, 1)], ("x", "y", "z"), 3) == ("x+z", "y+z")
    # a state named "" is told apart from the empty subset
    assert names([0, 1], ("",), 1) == ("empty", "")


# names that test the rule's edges: a "+" forces "," as separator, "" must
# stay apart from the empty subset, and "empty" collides with it
NAME_POOL = ("+", "", "empty", "x", "y", "x+y", "s0", "s1", "u")


def _random_names(rng, n):
    return None if rng.random() < 0.25 else tuple(rng.sample(NAME_POOL, n))


def test_every_subset_state_is_named_as_the_set_oracle_names_it():
    rng = random.Random(18)
    for _ in range(150):
        n = rng.randint(1, 6)
        names = _random_names(rng, n)
        # masks 0 and 2^n - 1, and masks with the top state set; subset_names
        # takes distinct rows, as every caller passes them
        masks = list(dict.fromkeys([0, (1 << n) - 1] + [rng.randrange(1 << (n - 1))
                                                        | 1 << (n - 1) for _ in range(3)]))
        sets = [{s for s in range(n) if mask >> s & 1} for mask in masks]
        assert subset_names(map(mask_row, masks), names, n) == names_by_sets(sets, names, n)

        nfa = random_nfa(rng)
        nfa = replace(nfa, state_names=_random_names(rng, nfa.n))
        det, expected = determinise(nfa), determinise_by_sets(nfa)
        assert det == expected and det.state_names == expected.state_names

        m = random_dfa(rng, max_n=6)
        m = replace(m, state_names=_random_names(rng, m.n))
        dual, expected = dual_automaton(m), dual_by_tuples(m)
        assert dual == expected and dual.state_names == expected.state_names

        a = random_afa(rng, max_n=4)
        a = replace(a, state_names=_random_names(rng, a.n))
        every = [{s for s in range(a.n) if mask >> s & 1} for mask in range(1 << a.n)]
        assert reverse_dfa(a).state_names == names_by_sets(every, a.state_names, a.n)
        # the reachable subsets in BFS order, found by the conditions' truth tables
        start = frozenset(a.finals)
        order = [start]
        for cur in order:
            for c in a.alphabet:
                nxt = frozenset(s for s in range(a.n) if holds(a.delta[c][s], cur))
                if nxt not in order:
                    order.append(nxt)
        assert reachable_reverse_dfa(a).state_names == names_by_sets(order, a.state_names, a.n)


def test_determinise_joins_plus_names_with_commas():
    n = Nfa(2, ("a",), {"a": (frozenset({0, 1}), frozenset())}, frozenset({0}),
            frozenset({1}), ("p+q", "r"))
    d = determinise(n)
    assert d.state_names == ("p+q", "p+q,r")
    with pytest.raises(StateGuardError):
        determinise(n, max_states=1)


def test_one_alphabet_check_for_every_automaton_type():
    from dualmin import INT, AlternatingAutomaton, BoolFun, Dkm, WeightedAutomaton
    f = BoolFun(1, frozenset())
    builds = [lambda ab: MooreAutomaton(1, ab, {"a": (0,)}, 0, (0,)),
              lambda ab: Nfa(1, ab, {"a": (frozenset(),)}, frozenset(), frozenset()),
              lambda ab: Dkm(1, ab, (), (frozenset(),), {"a": (0,)}),
              lambda ab: AlternatingAutomaton(1, ab, {"a": (f,)}, f, frozenset()),
              lambda ab: WeightedAutomaton.build(ab, INT, {"a": [[0]]}, [1], [1])]
    for build in builds:
        with pytest.raises(ValueError, match="alphabet letters must be distinct"):
            build(("a", "a"))
        with pytest.raises(ValueError, match="alphabet must be nonempty"):
            build(())


def test_every_automaton_type_checks_its_transition_letters():
    from dualmin import INT, AlternatingAutomaton, BoolFun, Dkm, Matrix, WeightedAutomaton
    f = BoolFun(1, frozenset())
    # each build takes the alphabet and the letters whose transitions it is given
    builds = [lambda ab, ls: MooreAutomaton(1, ab, dict.fromkeys(ls, (0,)), 0, (0,)),
              lambda ab, ls: Nfa(1, ab, dict.fromkeys(ls, (frozenset(),)), frozenset(),
                                 frozenset()),
              lambda ab, ls: Dkm(1, ab, (), (frozenset(),), dict.fromkeys(ls, (0,))),
              lambda ab, ls: AlternatingAutomaton(1, ab, dict.fromkeys(ls, (f,)), f,
                                                  frozenset()),
              lambda ab, ls: WeightedAutomaton(1, ab, INT,
                                               dict.fromkeys(ls, Matrix(INT, 1, 1, ((0,),))),
                                               (1,), (1,))]
    for build in builds:
        build(("a", "b"), "ab")
        for letters in ("a", "abz"):
            with pytest.raises(ValueError, match="transitions must cover exactly the alphabet"):
                build(("a", "b"), letters)
    # an extra letter is refused, not read past: its target 5 is no state of this NFA
    with pytest.raises(ValueError, match="transitions must cover exactly the alphabet"):
        Nfa(1, ("a",), {"a": (frozenset(),), "z": (frozenset({5}),)}, frozenset(), frozenset())


# call -> (the error it raises, its message); the constructors check their
# fields, and quotient_rows its partition
REFUSALS = {
    "short successor row": (
        lambda: MooreAutomaton(2, ("a",), {"a": (0,)}, 0, (0, 1)),
        ValueError, "bad successor row for letter 'a'"),
    "successor out of range": (
        lambda: MooreAutomaton(2, ("a",), {"a": (0, 2)}, 0, (0, 1)),
        ValueError, "bad successor row for letter 'a'"),
    "initial state out of range": (
        lambda: MooreAutomaton(2, ("a",), {"a": (0, 1)}, 2, (0, 1)),
        ValueError, "initial state out of range"),
    "output index out of range": (
        lambda: MooreAutomaton(2, ("a",), {"a": (0, 1)}, 0, (0, 2)),
        ValueError, "output map must assign every state a valid output"),
    "short output map": (
        lambda: MooreAutomaton(2, ("a",), {"a": (0, 1)}, 0, (0,)),
        ValueError, "output map must assign every state a valid output"),
    "state names of the wrong length": (
        lambda: MooreAutomaton(2, ("a",), {"a": (0, 1)}, 0, (0, 1), state_names=("x",)),
        ValueError, "state_names length mismatch"),
    "short nfa row": (
        lambda: Nfa(2, ("a",), {"a": (frozenset(),)}, frozenset(), frozenset()),
        ValueError, "bad transition row for letter 'a'"),
    "nfa target out of range": (
        lambda: Nfa(2, ("a",), {"a": (frozenset({2}), frozenset())}, frozenset(), frozenset()),
        ValueError, "bad transition row for letter 'a'"),
    "nfa initial state out of range": (
        lambda: Nfa(1, ("a",), {"a": (frozenset(),)}, frozenset({1}), frozenset()),
        ValueError, "initial/final state out of range"),
    "nfa final state out of range": (
        lambda: Nfa(1, ("a",), {"a": (frozenset(),)}, frozenset(), frozenset({-1})),
        ValueError, "initial/final state out of range"),
    "block ids with a gap": (
        lambda: Partition((0, 2), 2), ValueError, "block ids must be dense 0..k-1 and all used"),
    "a block id unused": (
        lambda: Partition((0, 0), 2), ValueError, "block ids must be dense 0..k-1 and all used"),
    "quotient by a partition of other states": (
        lambda: quotient_rows(Partition((0, 0), 1), (0,), {"a": (0,)}, ("a",)),
        ValueError, "partition is over the wrong state count"),
    "quotient by a block whose states step apart": (
        lambda: quotient_rows(Partition((0, 0, 1), 2), (0, 0, 1), {"a": (0, 2, 2)}, ("a",)),
        NonCongruenceError, "states 0 and 1 share a block but step to different blocks on 'a'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    if error is NonCongruenceError:
        assert caught.value.witness == (0, 1)
