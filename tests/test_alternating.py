import random

import pytest

from dualmin import (AlternatingAutomaton, BoolFun, StateGuardError, afa_accepts,
                     compile_formula, determinise, dual_automaton, equiv_exact, iso_check,
                     minimal_dfa_for_afa, partition_refinement_minimise, reach, reverse,
                     reverse_dfa, run)
from dualmin.alternating import reversed_subsets
from dualmin.automata import pair_walk
from dualmin.sampling import random_afa, random_boolfun

from oracles import (afa_accepts_recursive, afa_of_dfa, always, ends_with_a_dfa, formula_holds,
                     holds, reachable_reverse_dfa, replace, words)


def all_subsets(n: int) -> list[frozenset[int]]:
    """All subsets of {0..n-1} ordered by bitmask value (bit i = state i)."""
    return [frozenset(s for s in range(n) if mask >> s & 1) for mask in range(1 << n)]


def conjunctive_afa() -> AlternatingAutomaton:
    # delta_a(0) asks both states to report 1, delta_a(1) asks state 1 only
    n = 2
    delta = {"a": (BoolFun(n, [{0, 1}]),
                   BoolFun(n, [{1}, {0, 1}]))}
    iota = BoolFun(n, [{0}, {0, 1}])
    return AlternatingAutomaton(n, ("a",), delta, iota, frozenset({1}))


def test_empty_word_acceptance_is_iota_of_finals():
    rng = random.Random(0)
    for _ in range(30):
        a = random_afa(rng)
        assert afa_accepts(a, ()) == holds(a.iota, a.finals)


def test_conjunctive_example_by_brute_force():
    a = conjunctive_afa()
    for w in words(("a",), 6):
        assert afa_accepts(a, w) == afa_accepts_recursive(a, w)
    # delta'_a({1}) = {1} since state 0 needs both reports; iota needs state 0
    assert not afa_accepts(a, ("a",))


def test_dfa_embedding_agrees_with_run():
    m = ends_with_a_dfa()
    a = afa_of_dfa(m)
    for w in words(m.alphabet, 6):
        assert afa_accepts(a, w) == (run(m, w) == 1)


def test_dfa_embedding_agrees_on_random_dfas():
    from dualmin.sampling import random_dfa
    rng = random.Random(9)
    for _ in range(25):
        m = random_dfa(rng, max_n=4, max_letters=2)
        a = afa_of_dfa(m)
        for w in words(m.alphabet, 5):
            assert afa_accepts(a, w) == (run(m, w) == 1)


def test_afa_accepts_unknown_letter():
    with pytest.raises(ValueError):
        afa_accepts(conjunctive_afa(), ("b",))


def test_reverse_dfa_one_state_embedding():
    from dualmin import MooreAutomaton
    one = afa_of_dfa(MooreAutomaton.dfa(1, ("a",), {"a": (0,)}, 0, [0]))
    rev = reverse_dfa(one)
    assert rev.n == 2
    assert reach(rev).n == 1


def test_reverse_dfa_bound_is_the_powerset_size():
    a = afa_of_dfa(ends_with_a_dfa())  # 3 states, 8 subsets
    assert reverse_dfa(a, max_states=8).n == 8
    with pytest.raises(StateGuardError):
        reverse_dfa(a, max_states=7)
    with pytest.raises(StateGuardError):
        minimal_dfa_for_afa(a, max_states=7)


def test_reverse_dfa_state_count_is_powerset():
    rng = random.Random(1)
    for _ in range(20):
        a = random_afa(rng)
        assert reverse_dfa(a).n == 2 ** a.n


def test_reversal_theorem_differential():
    rng = random.Random(2)
    for _ in range(60):
        a = random_afa(rng)
        rev = reverse_dfa(a)
        for w in words(a.alphabet, 6):
            assert (run(rev, w) == 1) == afa_accepts(a, tuple(reversed(w)))


def test_transpose_identity_pointwise():
    rng = random.Random(3)
    for _ in range(20):
        a = random_afa(rng)
        for letter in a.alphabet:
            row = a.delta[letter]
            for subset in all_subsets(a.n):
                transposed = frozenset(s for s in range(a.n) if holds(row[s], subset))
                for s in range(a.n):
                    assert (s in transposed) == holds(row[s], subset)


def test_minimal_dfa_for_embedded_dfa():
    a = afa_of_dfa(ends_with_a_dfa())
    minimal = minimal_dfa_for_afa(a)
    assert minimal.n == 2
    assert iso_check(minimal, partition_refinement_minimise(ends_with_a_dfa()))


def test_minimal_dfa_reject_all():
    a = AlternatingAutomaton(2, ("a",),
                             {"a": (always(2, True), always(2, False))},
                             always(2, False), frozenset({0}))
    minimal = minimal_dfa_for_afa(a)
    assert minimal.n == 1
    assert minimal.out == (0,)


def test_minimal_dfa_matches_oracle_route():
    rng = random.Random(4)
    for _ in range(60):
        a = random_afa(rng)
        oracle = partition_refinement_minimise(determinise(reverse(reverse_dfa(a))))
        assert iso_check(minimal_dfa_for_afa(a), oracle)


def test_formula_compilation():
    names = ("x", "y", "z")
    f = compile_formula("x and (y or not z)", names)
    assert holds(f, {0, 1}) and holds(f, {0, 1, 2}) and holds(f, {0})
    assert not holds(f, {0, 2}) and not holds(f, {1, 2}) and not holds(f, set())
    assert compile_formula("true", names).sats == frozenset(all_subsets(3))
    assert compile_formula("false", names).sats == frozenset()


def test_formula_rejects_bad_syntax():
    with pytest.raises(ValueError):
        compile_formula("x + y", ("x", "y"))
    with pytest.raises(ValueError):
        compile_formula("w", ("x", "y"))
    with pytest.raises(ValueError):
        compile_formula("__import__('os')", ("x",))


def test_formula_errors_quote_at_most_sixty_characters():
    short = "x and " * 9 + "w"  # 55 characters, quoted whole
    with pytest.raises(ValueError) as exc:
        compile_formula(short, ("x",))
    assert str(exc.value) == f"bad formula {short!r}: unknown name 'w'"
    long = "x and " * 10 + "w" * 70
    with pytest.raises(ValueError) as exc:
        compile_formula(long, ("x",))
    assert str(exc.value) == f"bad formula {long[:60]!r}...: unknown name {'w' * 60!r}..."


def test_guard_refuses_large_powersets():
    n = 25
    empty = BoolFun(n, frozenset())
    a = AlternatingAutomaton(n, ("a",), {"a": (empty,) * n}, empty, frozenset())
    with pytest.raises(StateGuardError):
        reverse_dfa(a)
    with pytest.raises(StateGuardError):
        minimal_dfa_for_afa(a)


def random_formula(rng, names, depth=3) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names + ("true", "false"))
    if rng.random() < 0.3:
        return f"not {random_formula(rng, names, depth - 1)}"
    op = rng.choice((" and ", " or "))
    return "(" + op.join(random_formula(rng, names, depth - 1)
                         for _ in range(rng.randint(2, 3))) + ")"


def test_truth_tables_match_the_per_subset_interpreter():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        names = [f"x{i}" for i in range(n)]
        if rng.random() < 0.3:
            names[rng.randrange(n)] = rng.choice(("true", "false"))  # shadows the constant
        names = tuple(names)
        formula = random_formula(rng, names)
        f = compile_formula(formula, names)
        expected = frozenset(s for s in all_subsets(n) if formula_holds(formula, names, s))
        assert f.sats == expected, formula
        for mask, subset in enumerate(all_subsets(n)):
            assert (f.table >> mask & 1) == formula_holds(formula, names, subset)


def test_state_named_true_shadows_the_constant():
    f = compile_formula("true", ("false", "true"))
    assert f.sats == frozenset({frozenset({1}), frozenset({0, 1})})
    assert compile_formula("not false", ("false", "true")) == BoolFun(2, [(), {1}])


def test_boolfun_constructors_agree():
    names = ("x", "y", "z")
    sats = frozenset(s for s in all_subsets(3) if 0 in s and (1 in s or 2 not in s))
    everything = frozenset(all_subsets(3))
    groups = [
        (sats, [BoolFun(3, sats), BoolFun(3, [set(s) for s in sats]),
                compile_formula("x and (y or not z)", names)]),
        (everything, [BoolFun(3, everything), always(3, True), compile_formula("true", names),
                      compile_formula("x or not x", names)]),
        (frozenset(), [BoolFun(3, frozenset()), BoolFun(3, []),
                       always(3, False), compile_formula("false", names),
                       compile_formula("y and not y", names)]),
    ]
    for expected, funs in groups:
        for f in funs:
            assert f == funs[0] and hash(f) == hash(funs[0])
            assert f.sats == expected
    assert always(2, False) != always(3, False)
    with pytest.raises(ValueError):
        BoolFun(2, [{2}])
    with pytest.raises(ValueError):
        BoolFun.from_table(2, 1 << 4)


def test_reachable_reverse_dfa_is_the_reachable_part_of_reverse_dfa():
    rng = random.Random(5)
    afas = [random_afa(rng, max_n=4) for _ in range(80)]
    afas.append(afa_of_dfa(ends_with_a_dfa()))  # named states
    for a in afas:
        full = reach(reverse_dfa(a))
        part = reachable_reverse_dfa(a)
        assert part == full and part.state_names == full.state_names
        minimal, expected = minimal_dfa_for_afa(a), dual_automaton(replace(full, state_names=None))
        assert minimal == expected and minimal.state_names == expected.state_names


def test_reversal_and_acceptance_match_the_per_subset_interpreter():
    """reverse_dfa steps and outputs, and afa_accepts, on AFAs of up to 7
    states (truth tables of up to 16 bytes) against formula_holds."""
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 7)
        names = tuple(f"x{i}" for i in range(n))
        conditions = {c: [random_formula(rng, names) for _ in range(n)] for c in "ab"}
        iota = random_formula(rng, names)
        finals = frozenset(s for s in range(n) if rng.random() < 0.5)
        a = AlternatingAutomaton(n, ("a", "b"),
                                 {c: tuple(compile_formula(f, names) for f in fs)
                                  for c, fs in conditions.items()},
                                 compile_formula(iota, names), finals, names)
        subsets = all_subsets(n)
        steps = {c: [frozenset(s for s in range(n) if formula_holds(fs[s], names, subset))
                     for subset in subsets]
                 for c, fs in conditions.items()}
        accepts = [formula_holds(iota, names, subset) for subset in subsets]
        d = reverse_dfa(a)
        for mask, subset in enumerate(subsets):
            assert d.out[mask] == accepts[mask]
            for c in "ab":
                assert subsets[d.trans[c][mask]] == steps[c][mask]
        for w in words("ab", 5):
            subset = finals
            for c in reversed(w):
                subset = steps[c][subsets.index(subset)]
            assert afa_accepts(a, w) == accepts[subsets.index(subset)]


def _padded(rng, a: AlternatingAutomaton) -> AlternatingAutomaton:
    """a with one more state, which no condition of the other states and not
    iota reads: the same language from a larger powerset."""
    def lift(f):  # the masks with bit n set repeat the table
        return BoolFun.from_table(a.n + 1, f.table | f.table << (1 << a.n))

    delta = {c: tuple(map(lift, row)) + (random_boolfun(rng, a.n + 1),)
             for c, row in a.delta.items()}
    finals = a.finals | {a.n} if rng.random() < 0.5 else a.finals
    return AlternatingAutomaton(a.n + 1, a.alphabet, delta, lift(a.iota), finals)


def test_lazy_equiv_matches_the_built_reversed_dfas():
    rng = random.Random(23)
    verdicts = []
    for i in range(400):
        a = random_afa(rng)
        if i % 2:
            b = _padded(rng, a)
        else:  # an independent draw of another size over the same letters
            b = random_afa(rng, max_n=4)
            if b.alphabet != a.alphabet or b.n == a.n:
                continue
        verdict = pair_walk(reversed_subsets(a), reversed_subsets(b), a.alphabet)
        assert verdict == equiv_exact(reachable_reverse_dfa(a), reachable_reverse_dfa(b))
        if i % 2:
            assert verdict
        verdicts.append(verdict)
    assert verdicts.count(False) >= 50 and verdicts.count(True) >= 150
