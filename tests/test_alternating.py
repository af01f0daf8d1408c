import json
import random
import re

import pytest

from dualmin import (AlternatingAutomaton, BoolFun, StateGuardError, afa_accepts,
                     compile_formula, dual_automaton, emit, equiv_exact,
                     minimal_dfa_for_afa, parse, partition_refinement_minimise, reach,
                     reverse, reverse_dfa, run)
from dualmin.alternating import MAX_FORMULA_DEPTH
from dualmin.automata import pair_walk
from dualmin.sampling import random_afa, random_boolfun

from oracles import (afa_accepts_recursive, afa_of_dfa, afa_reverse_dfa_by_tables, always,
                     determinise_by_sets, ends_with_a_dfa, formula_holds, formula_table_by_tables,
                     holds, iso_check, minimal_dfa_for_afa_by_composition, reachable_reverse_dfa,
                     reverse_dfa_by_tables, words)


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
    a = afa_of_dfa(ends_with_a_dfa())  # 3 states, 8 subsets, 3 of them reachable
    assert reverse_dfa(a, max_states=8).n == 8
    with pytest.raises(StateGuardError):
        reverse_dfa(a, max_states=7)
    # minimisation stores the reachable subsets alone
    assert reachable_reverse_dfa(a).n == 3
    assert minimal_dfa_for_afa(a, max_states=7).n == 2


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
        reversed_dfa = afa_reverse_dfa_by_tables(a)
        oracle = partition_refinement_minimise(determinise_by_sets(reverse(reversed_dfa)))
        minimal = emit(minimal_dfa_for_afa(a))
        assert minimal == emit(minimal_dfa_for_afa_by_composition(a)) == emit(oracle)


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
    # a formula that does not parse; the parser's own message varies by version
    with pytest.raises(ValueError, match=r"^bad formula 'x and': "):
        compile_formula("x and", ("x",))


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
    minimal = minimal_dfa_for_afa(a)  # the one reachable subset is the empty one
    assert minimal.n == 1 and minimal.out == (0,)


def random_formula(rng, names, depth=3) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names + ("true", "false", "True", "False"))
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


def test_compiled_tables_match_the_table_route():
    """compile_formula's function on masks, tabulated, against the formula
    evaluated on whole truth tables; states may shadow true, false and the
    keywords True, False and None."""
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 6)
        names = [f"x{i}" for i in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            names[rng.randrange(n)] = rng.choice(("true", "false", "True", "False", "None"))
        names = tuple(dict.fromkeys(names))  # a shadowing name drawn twice counts once
        formula = random_formula(rng, names)
        assert compile_formula(formula, names).table == \
            formula_table_by_tables(formula, names), (formula, names)
    # a chain of nots folds to its parity, up to the deepest formula accepted
    # (the two operators of `x and not y` count too)
    for nots in (300, 301, MAX_FORMULA_DEPTH - 3, MAX_FORMULA_DEPTH - 2):
        formula = "not " * nots + "(x and not y)"
        assert compile_formula(formula, ("x", "y")).table == \
            formula_table_by_tables(formula, ("x", "y"))


def _nested(frames: int, call):
    """call() from `frames` more frames down the stack."""
    return call() if frames == 0 else _nested(frames - 1, call)


@pytest.mark.parametrize("frames", [0, 300])
def test_formula_depth_cap_does_not_depend_on_the_callers_stack(frames):
    names = ("x", "y")
    deepest = "not " * (MAX_FORMULA_DEPTH - 1) + "(x and y)"
    # operators nested in parentheses count alike (the tokenizer allows 200 levels)
    bracketed = "not " * (MAX_FORMULA_DEPTH - 200) + "(x and not " * 100 + "y" + ")" * 100
    for formula in (deepest, "not " * MAX_FORMULA_DEPTH + "x", bracketed):
        got = _nested(frames, lambda: compile_formula(formula, names))
        assert got.table == formula_table_by_tables(formula, names)
    for formula in ("not " + deepest, "not " * (MAX_FORMULA_DEPTH + 1) + "x",
                    bracketed.replace("y", "(x or y)")):
        with pytest.raises(ValueError, match="nested too deeply"):
            _nested(frames, lambda: compile_formula(formula, names))


def test_state_named_true_shadows_the_constant():
    f = compile_formula("true", ("false", "true"))
    assert f.sats == frozenset({frozenset({1}), frozenset({0, 1})})
    assert compile_formula("not false", ("false", "true")) == BoolFun(2, [(), {1}])
    # the keywords True, False and None parse as constants, yet name states too
    names = ("x", "True", "None", "False")
    assert compile_formula("True", names) == BoolFun(4, [s for s in all_subsets(4) if 1 in s])
    assert compile_formula("None and not False", names) == \
        BoolFun(4, [s for s in all_subsets(4) if 2 in s and 3 not in s])
    assert compile_formula("True or False", ("x",)) == always(1, True)
    with pytest.raises(ValueError, match="only true/false constants"):
        compile_formula("None", ("x",))


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
        assert emit(minimal_dfa_for_afa(a)) == emit(dual_automaton(full, named=False))


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


def test_reverse_dfa_matches_the_truth_table_step():
    """reverse_dfa, which asks each condition about one mask at a time,
    against the reversed DFA stepped through truth tables, on AFAs whose
    conditions mix formulas and lists of satisfying subsets."""
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(1, 5)
        names = tuple(f"x{i}" for i in range(n))

        def condition():  # a BoolFun and its truth table, built apart
            if rng.random() < 0.5:
                formula = random_formula(rng, names)
                return compile_formula(formula, names), formula_table_by_tables(formula, names)
            sats = [frozenset(s for s in range(n) if rng.random() < 0.5)
                    for _ in range(rng.randint(0, 4))]
            return BoolFun(n, sats), sum({1 << sum(1 << s for s in subset) for subset in sats})

        rows = {c: [condition() for _ in range(n)] for c in "ab"}
        iota, iota_table = condition()
        finals = frozenset(s for s in range(n) if rng.random() < 0.5)
        a = AlternatingAutomaton(n, ("a", "b"), {c: tuple(f for f, _ in row)
                                                 for c, row in rows.items()},
                                 iota, finals, names)
        tables = {c: [table for _, table in row] for c, row in rows.items()}
        assert reverse_dfa(a) == reverse_dfa_by_tables(n, "ab", tables, iota_table, finals)


def counter_family(n: int, order=None) -> dict:
    """An n-state AFA file whose reversed DFA reaches few of its 2^n subsets:
    s_i steps on a to s(i+1) or s(i+2) and on b to s(i+1) and not s0.  `order`
    lists the states in another order, which renumbers them."""
    names = [f"s{i}" for i in range(n)]
    return {"type": "afa", "alphabet": ["a", "b"], "states": order or names,
            "finals": [names[-1]], "iota": "s0 and not s1",
            "transitions": {
                "a": {f"s{i}": f"s{(i + 1) % n} or s{(i + 2) % n}" for i in range(n)},
                "b": {f"s{i}": f"s{(i + 1) % n} and not s0" for i in range(n)}}}


def test_minimize_and_equiv_of_40_states_store_reachable_subsets_only():
    a = parse(json.dumps(counter_family(40)))
    b = parse(json.dumps(counter_family(40, [f"s{i}" for i in reversed(range(40))])))
    with pytest.raises(StateGuardError):
        reverse_dfa(a)
    assert minimal_dfa_for_afa(a).n == 711
    assert pair_walk(a.view(), b.view(), a.alphabet)
    with pytest.raises(StateGuardError):
        pair_walk(a.view(), b.view(), a.alphabet, max_states=100)


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
        verdict = pair_walk(a.view(), b.view(), a.alphabet)
        assert verdict == equiv_exact(reachable_reverse_dfa(a), reachable_reverse_dfa(b))
        if i % 2:
            assert verdict
        verdicts.append(verdict)
    assert verdicts.count(False) >= 50 and verdicts.count(True) >= 150


# call -> the message of the ValueError it raises
REFUSALS = {
    "short delta row": (
        lambda: AlternatingAutomaton(2, ("a",), {"a": (always(2, True),)}, always(2, True),
                                     frozenset()),
        "bad delta row for letter 'a'"),
    "a condition over other states": (
        lambda: AlternatingAutomaton(2, ("a",), {"a": (always(2, True), always(3, True))},
                                     always(2, True), frozenset()),
        "bad delta row for letter 'a'"),
    "iota over other states": (
        lambda: AlternatingAutomaton(1, ("a",), {"a": (always(1, True),)}, always(2, True),
                                     frozenset()),
        "iota is over the wrong state count"),
    "final state out of range": (
        lambda: AlternatingAutomaton(1, ("a",), {"a": (always(1, True),)}, always(1, True),
                                     frozenset({1})),
        "final state out of range"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
