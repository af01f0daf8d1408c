import random

import pytest

from dualmin import (BOOL, Dkm, MooreAutomaton, Nfa, StateGuardError, bool_wa_to_nfa,
                     brzozowski_minimise, definable_closure, determinise, dual_automaton, emit,
                     equiv_exact, iso_check, parse, partition_refinement_minimise, reach,
                     reverse, reverse_dfa, run)
from dualmin.cli import main
from dualmin.sampling import random_afa, random_dfa, random_moore, random_wa

from oracles import (determinise_by_sets, dual_by_tuples, duality_minimise_by_atoms,
                     ends_with_a_dfa, is_dfa, minimise_by_determinising, one_state_automata,
                     random_nfa, replace, row_sets, run_by_hand, words)


def test_dual_of_ends_with_a():
    d = dual_automaton(ends_with_a_dfa())
    assert d.n == 3
    assert d.state_names == ("y+z", "x+y+z", "empty")
    assert d.init == 0
    assert d.out == (0, 1, 0)  # only {x,y,z} contains the original initial state
    assert d.trans["a"] == (1, 1, 2)
    assert d.trans["b"] == (2, 1, 2)


def test_dual_single_state():
    m = MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [0])
    d = dual_automaton(m)
    assert d.n == 1
    assert d.out == (1,)


def test_dual_matches_classical_pipeline():
    rng = random.Random(6)
    for _ in range(80):
        m = random_dfa(rng, max_n=6)
        assert iso_check(dual_automaton(m), reach(determinise(reverse(m))))


def test_language_reversal_property():
    rng = random.Random(19)
    for _ in range(60):
        m = random_moore(rng, max_n=6, max_letters=3, max_outputs=3)
        d = dual_automaton(m)
        for w in words(m.alphabet, 5):
            assert run(d, w) == run_by_hand(m, tuple(reversed(w)))


def test_brzozowski_expected_minimal():
    b = brzozowski_minimise(ends_with_a_dfa())
    assert b.n == 2
    assert b.init == 0
    assert b.out == (0, 1)
    assert b.trans["a"] == (1, 1)
    assert b.trans["b"] == (0, 0)
    assert equiv_exact(b, ends_with_a_dfa())
    # named by the first pass's indices: s0 is {y,z} and s1 is {x,y,z}
    assert b.state_names == ("s1", "s0+s1")
    assert dual_automaton(dual_automaton(ends_with_a_dfa())).state_names == ("x+y+z", "y+z,x+y+z")


def test_brzozowski_already_minimal():
    two = MooreAutomaton.dfa(2, ("a", "b"), {"a": (1, 1), "b": (0, 0)}, 0, [1])
    assert iso_check(brzozowski_minimise(two), two)


def test_brzozowski_vs_refinement_moore():
    rng = random.Random(77)
    for _ in range(80):
        m = random_moore(rng, max_n=6, max_letters=3, max_outputs=3)
        b = brzozowski_minimise(m)
        p = partition_refinement_minimise(m)
        assert iso_check(b, p)
        assert equiv_exact(b, m)
        assert b.n == p.n


def test_duality_route_matches_refinement_on_moore():
    rng = random.Random(78)
    for _ in range(400):
        m = random_moore(rng, max_n=6, max_letters=2, max_outputs=4)
        p = partition_refinement_minimise(m)
        # the atoms of the definable closure are the stable partition, block for block
        assert p == duality_minimise_by_atoms(m)
        assert p.outputs == m.outputs and p.init == 0
        assert reach(p) == p  # why partition_refinement_minimise needs no outer reach


def test_dual_involution_on_minimal():
    rng = random.Random(13)
    for _ in range(40):
        minimal = partition_refinement_minimise(random_moore(rng, max_n=5))
        assert iso_check(dual_automaton(dual_automaton(minimal)), minimal)


def test_dual_of_reachable_is_observable():
    rng = random.Random(51)
    for _ in range(40):
        m = reach(random_moore(rng, max_n=5))
        d = dual_automaton(m)
        for s1 in range(d.n):
            for s2 in range(s1 + 1, d.n):
                rerooted1 = MooreAutomaton(d.n, d.alphabet, dict(d.trans), s1, d.out, d.outputs)
                rerooted2 = MooreAutomaton(d.n, d.alphabet, dict(d.trans), s2, d.out, d.outputs)
                assert not equiv_exact(rerooted1, rerooted2)


def test_dual_state_sets_ends_with_a():
    sets = row_sets(definable_closure(Dkm.from_dfa(ends_with_a_dfa())))
    assert sets == frozenset({frozenset({1, 2}), frozenset({0, 1, 2}), frozenset()})


def test_dual_state_sets_accept_nothing():
    m = MooreAutomaton.dfa(2, ("a",), {"a": (1, 0)}, 0, [])
    assert row_sets(definable_closure(Dkm.from_dfa(m))) == frozenset({frozenset()})


def test_state_guard():
    m = ends_with_a_dfa()
    with pytest.raises(StateGuardError):
        dual_automaton(m, max_states=2)
    with pytest.raises(StateGuardError):
        brzozowski_minimise(m, max_states=1)


def many_output_automata(rng):
    """Moore automata whose output indices reach past one byte (and one with
    exactly 256 outputs, the most a byte holds)."""
    for k in (256, 257, 300):
        outputs = tuple(f"o{i}" for i in range(k))
        n = 12  # a shifts the states round, b sends every state to 0
        out = (k - 1, 255, 0) + tuple(rng.randrange(k) for _ in range(n - 3))
        yield MooreAutomaton(n, ("a", "b"), {"a": tuple((s + 1) % n for s in range(n)),
                                             "b": (0,) * n}, 0, out, outputs)
        for _ in range(20):
            m = random_moore(rng, max_n=5, max_letters=2, max_outputs=1)
            out = tuple(rng.choice((k - 1, 255, rng.randrange(k))) for _ in range(m.n))
            yield MooreAutomaton(m.n, m.alphabet, m.trans, m.init, out, outputs)


def byte_step_boundary_automata():
    """Automata on both sides of the byte-table step, which takes at most 256
    states and outputs up to index 255."""
    def rotation(n):  # a rotates the states, b is the identity
        return {"a": tuple((s + 1) % n for s in range(n)), "b": tuple(range(n))}

    for n in (1, 255, 256, 257):
        yield MooreAutomaton.dfa(n, ("a", "b"), rotation(n), 0, [n - 1])
    for n in (256, 257):  # output n - 1 is 255, packed as a byte, or 256, in a tuple
        yield MooreAutomaton(n, ("a", "b"), rotation(n), 0, tuple(range(n)),
                             tuple(f"o{i}" for i in range(n)))
    # "the 9th letter is a", states 0-8 counting letters, then 9 accepting
    # and 10 rejecting for good: its dual, the first pass of a double
    # reversal, is the DFA of "the 9th letter from the end is a", 512 states
    k = 9
    m = MooreAutomaton.dfa(k + 2, ("a", "b"),
                           {c: tuple(range(1, k)) + (k if c == "a" else k + 1, k, k + 1)
                            for c in "ab"}, 0, [k])
    assert dual_automaton(m, named=False).n > 256
    yield m


def test_dual_predicates_match_the_tuple_route():
    rng = random.Random(23)
    cases = list(one_state_automata()) + list(many_output_automata(rng))
    cases += byte_step_boundary_automata()
    cases += [random_moore(rng, max_n=6) for _ in range(40)]
    cases += [random_dfa(rng, max_n=6) for _ in range(40)]
    for m in cases:
        d, first = dual_automaton(m), dual_by_tuples(m)
        assert d == first and d.state_names == first.state_names
        # dual twice nests the member names of the first pass
        twice, expected = dual_automaton(d), dual_by_tuples(first)
        assert twice == expected and twice.state_names == expected.state_names
        # a double reversal names its states by first-pass index
        minimal = brzozowski_minimise(m)
        expected = dual_by_tuples(replace(first, state_names=None))
        assert minimal == expected and minimal.state_names == expected.state_names


def test_only_a_dfa_dual_names_states_by_their_members(capsys, data_dir):
    """Naming a dual state by its members reads output 1 as accepting, which
    holds of a DFA alone.  Here output 1 is reject, so the dual's accepting
    state would be named y after the file's rejecting state."""
    path = data_dir / "moore2_accept_first.json"
    m = parse(path.read_text())
    assert dual_automaton(m).state_names is None
    for verb in ("dual", "minimize"):
        assert main([verb, str(path)]) == 0
        d = parse(capsys.readouterr().out)
        assert d.state_names == ("s0", "s1")
        assert [d.outputs[o] for o in d.out] == ["accept", "reject"]
    as_dfa = MooreAutomaton.dfa(m.n, m.alphabet, m.trans, m.init, [0], m.state_names)
    assert dual_automaton(as_dfa).state_names == ("x", "empty")


def permuted_chain(n: int, rng) -> MooreAutomaton:
    """a moves one step along n states in a random order, b goes back to the
    first, and only the last accepts: all n states are distinguishable."""
    order = list(range(n))
    rng.shuffle(order)
    step = {s: order[min(i + 1, n - 1)] for i, s in enumerate(order)}
    return MooreAutomaton.dfa(n, ("a", "b"), {"a": tuple(step[s] for s in range(n)),
                                              "b": (order[0],) * n}, order[0], [order[-1]])


def test_double_reversal_names_grow_at_most_quadratically():
    # names joining first-pass names would come to about 101 M characters here
    n = 400
    minimal = brzozowski_minimise(permuted_chain(n, random.Random(31)))
    assert minimal.n == n
    assert sum(map(len, minimal.state_names)) < 4 * n * n


def test_a_minimised_chain_prints_under_ten_megabytes():
    minimal = brzozowski_minimise(permuted_chain(600, random.Random(37)))
    assert minimal.n == 600
    assert len(emit(minimal).encode()) < 10 * 2 ** 20


def test_dual_state_sets_of_one_state():
    for m in filter(is_dfa, one_state_automata()):
        assert row_sets(definable_closure(Dkm.from_dfa(m))) == {frozenset(m.accepting())}


def renumbered(n: Nfa, rng) -> Nfa:
    """A copy of n with its states in a random order, state s named q{s}."""
    new = rng.sample(range(n.n), n.n)  # state s becomes new[s]
    rows = {a: [frozenset()] * n.n for a in n.alphabet}
    names = [""] * n.n
    for s in range(n.n):
        names[new[s]] = f"q{s}"
        for a in n.alphabet:
            rows[a][new[s]] = frozenset(new[t] for t in n.trans[a][s])
    return Nfa(n.n, n.alphabet, {a: tuple(row) for a, row in rows.items()},
               frozenset(new[s] for s in n.inits), frozenset(new[s] for s in n.finals),
               tuple(names))


def padded(n: Nfa, rng, extra: int = 3) -> Nfa:
    """n with `extra` states appended that no initial state reaches: they step
    to random states of the whole and some are final, so the reversal reaches
    them while the language stays n's."""
    size = n.n + extra
    trans = {a: row + tuple(frozenset(t for t in range(size) if rng.random() < 0.3)
                            for _ in range(extra))
             for a, row in n.trans.items()}
    finals = n.finals | {s for s in range(n.n, size) if rng.random() < 0.5}
    return Nfa(size, n.alphabet, trans, n.inits, frozenset(finals))


def test_the_dual_of_each_boolean_kind_is_the_subset_dfa_of_its_reversal():
    """dual_automaton is determinise(reverse(x)) for DFAs and NFAs and the
    reachable part of reverse_dfa for AFAs, state names included; renumbered
    and padded copies of an NFA minimise to one automaton."""
    rng = random.Random(83)
    for i in range(150):
        m = random_dfa(rng, max_n=6)
        if i % 2:
            m = replace(m, state_names=tuple(f"x{s}" for s in range(m.n)))
        n = random_nfa(rng, max_n=7)
        copies = (n, renumbered(n, rng), padded(n, rng))
        a = random_afa(rng, max_n=4)
        for x, expected in [(m, determinise(reverse(m))), (a, reach(reverse_dfa(a)))] + \
                [(c, determinise(reverse(c))) for c in copies]:
            dual = dual_automaton(x)
            assert dual == expected and dual.state_names == expected.state_names
        minimal = [brzozowski_minimise(c) for c in copies]
        assert minimal[0] == minimal[1] == minimal[2]


def test_nfa_minimisation_matches_determinising_first():
    rng = random.Random(84)
    for _ in range(200):
        n = random_nfa(rng, max_n=7)
        minimal = brzozowski_minimise(n)
        assert iso_check(minimal, partition_refinement_minimise(determinise_by_sets(n)))
        assert iso_check(minimal, minimise_by_determinising(n))
        # named by the index of their members in the unnamed first pass
        expected = dual_automaton(replace(determinise(reverse(n)), state_names=None))
        assert minimal == expected and minimal.state_names == expected.state_names


def test_boolean_minimize_matches_determinising_first(capsys, tmp_path):
    rng = random.Random(85)
    path = tmp_path / "bool.json"
    for _ in range(60):
        w = random_wa(rng, BOOL, max_n=5)
        path.write_text(emit(w))
        assert main(["minimize", str(path)]) == 0
        minimal, n = parse(capsys.readouterr().out), bool_wa_to_nfa(w)
        assert iso_check(minimal, partition_refinement_minimise(determinise_by_sets(n)))
        assert iso_check(minimal, minimise_by_determinising(n))
