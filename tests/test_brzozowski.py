import random

import pytest

from dualmin import (MooreAutomaton, StateGuardError, brzozowski_minimise,
                     determinise, dual_automaton, dual_state_sets, emit, equiv_exact,
                     iso_check, partition_refinement_minimise, reach, reverse, run)
from dualmin.sampling import random_dfa, random_moore

from oracles import (dual_by_tuples, duality_minimise_by_atoms, ends_with_a_dfa, is_dfa, replace,
                     run_by_hand, words)


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
    sets = dual_state_sets(ends_with_a_dfa())
    assert sets == frozenset({frozenset({1, 2}), frozenset({0, 1, 2}), frozenset()})


def test_dual_state_sets_accept_nothing():
    m = MooreAutomaton.dfa(2, ("a",), {"a": (1, 0)}, 0, [])
    assert dual_state_sets(m) == frozenset({frozenset()})


def test_dual_state_sets_needs_two_outputs():
    moore = MooreAutomaton(1, ("a",), {"a": (0,)}, 0, (0,), ("u", "v", "w"))
    with pytest.raises(ValueError):
        dual_state_sets(moore)


def test_state_guard():
    m = ends_with_a_dfa()
    with pytest.raises(StateGuardError):
        dual_automaton(m, max_states=2)
    with pytest.raises(StateGuardError):
        brzozowski_minimise(m, max_states=1)


def one_state_automata():
    for letters in (("a",), ("a", "b", "c")):
        for accepting in ([], [0]):
            yield MooreAutomaton.dfa(1, letters, {a: (0,) for a in letters}, 0, accepting,
                                     state_names=("only",))
    yield MooreAutomaton(1, ("a", "b"), {"a": (0,), "b": (0,)}, 0, (2,), ("u", "v", "w"))
    yield MooreAutomaton(1, ("a",), {"a": (0,)}, 0, (299,), tuple(f"o{i}" for i in range(300)))


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


def test_dual_predicates_match_the_tuple_route():
    rng = random.Random(23)
    cases = list(one_state_automata()) + list(many_output_automata(rng))
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
    for m in one_state_automata():
        if is_dfa(m):
            assert dual_state_sets(m) == {frozenset(m.accepting())}
