import random
import re
import tracemalloc

import pytest

from dualmin import (Dkm, MooreAutomaton, NonCongruenceError, Partition, TraceFormula,
                     bisimulation_oracle, boolean_atoms, definable_closure,
                     dual_automaton, eval_trace, minimise_dkm, quotient_dkm)
from dualmin.sampling import random_dfa, random_dkm

from dualmin.automata import DFA_OUTPUTS, by_rows, pair_walk

from oracles import (closure_by_preimages, closure_names, dkm_equiv_by_union, ends_with_a_dfa,
                     eval_trace_by_preimages, is_dfa, iso_check, minimise_dkm_by_atoms,
                     one_state_automata, replace, row_sets, words)


def ends_with_a_dkm() -> Dkm:
    return Dkm.from_dfa(ends_with_a_dfa())


def dkm_to_dfa(k: Dkm) -> MooreAutomaton:
    """Decode a single-observation model with an initial state back to a DFA."""
    if len(k.obs) != 1 or k.init is None:
        raise ValueError("to_dfa needs one observation and an initial state")
    p = k.obs[0]
    out = tuple(1 if p in g else 0 for g in k.gamma)
    return MooreAutomaton(k.n, k.alphabet, dict(k.delta), k.init, out, DFA_OUTPUTS,
                          k.state_names)


def as_sets(part: Partition) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(b) for b in part.blocks())


def test_eval_trace_examples():
    k = ends_with_a_dkm()
    x, y, z = 0, 1, 2
    assert eval_trace(k, TraceFormula((), "p")) == frozenset({y, z})
    assert eval_trace(k, TraceFormula(("a",), "p")) == frozenset({x, y, z})
    assert eval_trace(k, TraceFormula(("b",), "p")) == frozenset()


def test_eval_trace_unknowns():
    k = ends_with_a_dkm()
    with pytest.raises(ValueError):
        eval_trace(k, TraceFormula((), "q"))
    with pytest.raises(ValueError):
        eval_trace(k, TraceFormula(("c",), "p"))


def test_eval_trace_matches_the_preimage_oracle():
    """eval_trace walks the dual's predicate step, the oracle takes frozenset
    preimages: every word up to length 4 on seeded models of 0 to 6 states,
    each with an observation that holds nowhere, and the same refusals."""
    rng = random.Random(41)
    obs = ("p", "q", "nowhere")
    for n in range(7):
        for _ in range(8):
            alphabet = ("a", "b")[:rng.randint(1, 2)]
            gamma = tuple(frozenset(w for w in obs[:2] if rng.random() < 0.5) for _ in range(n))
            delta = {a: tuple(rng.randrange(n) for _ in range(n)) for a in alphabet}
            k = Dkm(n, alphabet, obs, gamma, delta)
            for w in words(alphabet, 4):
                for p in obs:
                    formula = TraceFormula(tuple(w), p)
                    assert eval_trace(k, formula) == eval_trace_by_preimages(k, formula)
            for formula, message in [(TraceFormula(("a",), "r"), "unknown observation 'r'"),
                                     (TraceFormula(("c", "a"), "r"), "unknown observation 'r'"),
                                     (TraceFormula(("a", "c", "a"), "p"), "unknown letter 'c'"),
                                     (TraceFormula(("c",), "nowhere"), "unknown letter 'c'")]:
                for evaluate in (eval_trace, eval_trace_by_preimages):
                    with pytest.raises(ValueError) as refused:
                        evaluate(k, formula)
                    assert str(refused.value) == message


def test_definable_closure_ends_with_a():
    assert row_sets(definable_closure(ends_with_a_dkm())) == frozenset({
        frozenset(), frozenset({1, 2}), frozenset({0, 1, 2})})


def test_definable_closure_constant_gamma():
    k = Dkm(3, ("a",), ("p",), (frozenset({"p"}),) * 3, {"a": (1, 2, 0)}, 0)
    assert row_sets(definable_closure(k)) == frozenset({frozenset({0, 1, 2})})
    empty = Dkm(2, ("a",), ("p",), (frozenset(), frozenset()), {"a": (0, 1)}, 0)
    assert row_sets(definable_closure(empty)) == frozenset({frozenset()})


def test_closure_equals_trace_formula_extensions():
    rng = random.Random(5)
    for _ in range(30):
        k = random_dkm(rng, max_n=3)
        family = row_sets(definable_closure(k))
        # preimage chains in the worklist have depth < 2^n, so words up to
        # that length realise every member of the closure
        by_formula = {eval_trace(k, TraceFormula(w, p))
                      for w in words(k.alphabet, 2 ** k.n) for p in k.obs}
        assert family == by_formula


def test_closure_is_stable_and_small():
    rng = random.Random(6)
    for _ in range(50):
        k = random_dkm(rng)
        family = row_sets(definable_closure(k))
        assert len(family) <= 2 ** k.n
        for subset in family:
            for a in k.alphabet:
                pre = frozenset(s for s in range(k.n) if k.delta[a][s] in subset)
                assert pre in family


def test_closure_matches_dual_state_sets():
    """The dual's states are the definable sets of the DFA read as a model."""
    rng = random.Random(7)
    cases = [random_dfa(rng, max_n=6) for _ in range(50)]
    cases += [ends_with_a_dfa(), MooreAutomaton.dfa(2, ("a",), {"a": (1, 0)}, 0, [])]
    cases += filter(is_dfa, one_state_automata())
    for m in cases:
        assert closure_names(m) == set(dual_automaton(m).state_names)


def _closure_case(rng, i):
    """A seeded model of 0-6 states (0 and 1 for the first two) and 1-3
    observations; every fourth one has an observation that holds nowhere."""
    n = (0, 1)[i] if i < 2 else rng.randint(0, 6)
    alphabet = ("a", "b", "c")[:rng.randint(1, 3)]
    obs = tuple(f"p{j}" for j in range(rng.randint(1, 3)))
    never = obs[-1] if i % 4 == 3 else None
    gamma = tuple(frozenset(w for w in obs if w != never and rng.random() < 0.5)
                  for _ in range(n))
    delta = {a: tuple(rng.randrange(n) for _ in range(n)) for a in alphabet}
    return Dkm(n, alphabet, obs, gamma, delta, rng.randrange(n) if n else None)


def test_closure_matches_preimage_oracle():
    rng = random.Random(10)
    sizes = set()
    for i in range(320):
        k = _closure_case(rng, i)
        sizes.add(k.n)
        rows = definable_closure(k)
        family = row_sets(rows)
        assert family == closure_by_preimages(k)
        # the atoms do not depend on the order of the family
        by_sorted = Partition.from_signatures(
            tuple(s in subset for subset in sorted(family, key=sorted)) for s in range(k.n))
        assert boolean_atoms(rows, k.n) == by_sorted
        if k.n:
            assert by_sorted == bisimulation_oracle(k)
    assert sizes == set(range(7))


def test_closure_of_empty_and_one_state_models():
    empty = Dkm(0, ("a",), ("p", "q"), (), {"a": ()})
    assert row_sets(definable_closure(empty)) == frozenset({frozenset()})
    assert row_sets(definable_closure(Dkm(0, ("a",), (), (), {"a": ()}))) == frozenset()
    one = Dkm(1, ("a", "b"), ("p", "q"), (frozenset({"p"}),), {"a": (0,), "b": (0,)}, 0)
    assert row_sets(definable_closure(one)) == frozenset({frozenset({0}), frozenset()})


def test_the_closure_stays_packed():
    """definable_closure keeps each set as its 0/1 row: under tracemalloc its
    peak stays below 300 bytes a set on a random 30-state model with 35,753
    definable sets (a frozenset of frozensets peaked at about 1,280)."""
    rng = random.Random(2)
    n = 30
    gamma = tuple(frozenset(w for w in "pq" if rng.random() < 0.5) for _ in range(n))
    delta = {a: tuple(rng.randrange(n) for _ in range(n)) for a in "ab"}
    k = Dkm(n, ("a", "b"), ("p", "q"), gamma, delta, 0)
    tracemalloc.start()
    try:
        rows = definable_closure(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 35_753
    assert peak < 300 * len(rows)


def _decode_dual_name(name, index_of):
    if name == "empty":
        return frozenset()
    return frozenset(index_of[part] for part in name.split("+"))


def test_eval_trace_matches_dual_automaton_states():
    m = ends_with_a_dfa()
    k = Dkm.from_dfa(m)
    d = dual_automaton(m)
    index_of = {"x": 0, "y": 1, "z": 2}
    for w in words(m.alphabet, 4):
        state = 0
        for a in reversed(w):
            state = d.trans[a][state]
        # decode the dual state reached by the reversed word as a subset
        decoded = eval_trace(k, TraceFormula(tuple(w), "p"))
        assert decoded == _decode_dual_name(d.state_names[state], index_of)


def test_eval_trace_matches_dual_automaton_random():
    rng = random.Random(77)
    for _ in range(25):
        m = random_dfa(rng, max_n=5, max_letters=2)
        k = Dkm.from_dfa(m)
        d = dual_automaton(m)
        index_of = {f"s{i}": i for i in range(m.n)}
        for w in words(m.alphabet, 4):
            state = 0
            for a in reversed(w):
                state = d.trans[a][state]
            assert eval_trace(k, TraceFormula(tuple(w), "p")) == \
                _decode_dual_name(d.state_names[state], index_of)


def test_boolean_atoms_examples():
    rows = [b"\0\0\0", b"\0\1\1", b"\1\1\1"]  # {}, {1, 2} and {0, 1, 2}
    atoms = boolean_atoms(rows, 3)
    assert as_sets(atoms) == frozenset({frozenset({0}), frozenset({1, 2})})
    assert boolean_atoms([], 3).n_blocks == 1
    singletons = [bytes(s == t for t in range(3)) for s in range(3)]
    assert boolean_atoms(singletons, 3).n_blocks == 3


def test_quotient_identity_partition():
    k = ends_with_a_dkm()
    ident = Partition(tuple(range(k.n)), k.n)
    assert quotient_dkm(k, ident) == Dkm(k.n, k.alphabet, k.obs, k.gamma,
                                         dict(k.delta), k.init)


def test_quotient_ends_with_a_blocks():
    k = ends_with_a_dkm()
    part = Partition((0, 1, 1), 2)
    q = quotient_dkm(k, part)
    assert q.n == 2
    assert q.gamma == (frozenset(), frozenset({"p"}))
    assert q.delta["a"] == (1, 1)
    assert q.delta["b"] == (0, 0)
    assert q.init == 0


def test_quotient_non_congruence_witness():
    k = ends_with_a_dkm()
    bad = Partition((0, 0, 1), 2)  # merges x with y, which observe differently
    with pytest.raises(NonCongruenceError) as exc:
        quotient_dkm(k, bad)
    assert exc.value.witness == (0, 1)


def test_minimise_ends_with_a():
    q = minimise_dkm(ends_with_a_dkm())
    assert q.n == 2
    assert q.gamma == (frozenset(), frozenset({"p"}))
    assert q.delta["a"] == (1, 1) and q.delta["b"] == (0, 0)
    # matches the two-state result of double reversal on the same automaton
    from dualmin import brzozowski_minimise
    assert iso_check(dkm_to_dfa(q), brzozowski_minimise(ends_with_a_dfa()))


def test_minimise_already_minimal():
    k = minimise_dkm(ends_with_a_dkm())
    assert minimise_dkm(k) == k


def test_minimise_matches_oracle():
    rng = random.Random(8)
    for _ in range(60):
        k = random_dkm(rng)
        assert boolean_atoms(definable_closure(k), k.n) == bisimulation_oracle(k)
        minimal = minimise_dkm(k)
        assert minimise_dkm(minimal) == minimal


def test_bisimulation_oracle_examples():
    const = Dkm(3, ("a",), ("p",), (frozenset({"p"}),) * 3, {"a": (0, 1, 2)}, 0)
    assert bisimulation_oracle(const).n_blocks == 1
    assert as_sets(bisimulation_oracle(ends_with_a_dkm())) == frozenset({
        frozenset({0}), frozenset({1, 2})})
    discrete = Dkm(2, ("a",), ("p", "q"),
                   (frozenset({"p"}), frozenset({"q"})), {"a": (0, 1)}, 0)
    assert bisimulation_oracle(discrete).n_blocks == 2


def test_quotient_preserves_trace_semantics():
    rng = random.Random(9)
    for _ in range(30):
        k = random_dkm(rng, max_n=5)
        minimal = minimise_dkm(k)
        part = boolean_atoms(definable_closure(k), k.n)
        for w in words(k.alphabet, 3):
            for p in k.obs:
                big = eval_trace(k, TraceFormula(w, p))
                small = eval_trace(minimal, TraceFormula(w, p))
                assert small == frozenset(part.block_of[s] for s in big)
                saturated = frozenset(s for s in range(k.n) if part.block_of[s] in small)
                assert saturated == big


def test_minimise_matches_the_set_family_route_and_bisimulation():
    """minimise_dkm, which refines without listing the closure, against the
    quotient by the atoms of the closure as a set family."""
    none = frozenset()
    cases = [Dkm(0, ("a",), ("p",), (), {"a": ()}),
             Dkm(0, ("a",), (), (), {"a": ()}),
             Dkm(1, ("a",), ("p",), (frozenset({"p"}),), {"a": (0,)}, 0),
             Dkm(1, ("a",), ("p",), (none,), {"a": (0,)}, 0),
             Dkm(1, ("a",), (), (none,), {"a": (0,)})]
    rng = random.Random(22)
    for _ in range(300):
        k = random_dkm(rng)
        cases += [k, replace(k, obs=k.obs + ("never",)),
                  replace(k, obs=(), gamma=(none,) * k.n)]
    for k in cases:
        minimal = minimise_dkm(k)
        assert minimal == minimise_dkm_by_atoms(k)
        if not k.obs:
            assert minimal.n == min(k.n, 1)


def test_pair_walk_matches_the_disjoint_union_oracle():
    rng = random.Random(61)
    verdicts = []
    for i in range(600):
        k1 = random_dkm(rng, max_n=5, max_letters=2, max_obs=2)
        if i % 3 == 0:  # the bisimulation quotient: always equivalent
            k2 = minimise_dkm(k1)
        else:
            k2 = random_dkm(rng, max_n=5, max_letters=2, max_obs=2)
            if k2.alphabet != k1.alphabet:
                continue
        verdict = pair_walk(by_rows(k1.init, k1.gamma, k1.delta),
                            by_rows(k2.init, k2.gamma, k2.delta), k1.alphabet)
        assert verdict == dkm_equiv_by_union(k1, k2)
        if i % 3 == 0:
            assert verdict
        verdicts.append(verdict)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 200


# call -> the message of the ValueError it raises
REFUSALS = {
    "repeated observation": (
        lambda: Dkm(1, ("a",), ("p", "p"), (frozenset(),), {"a": (0,)}),
        "observations must be distinct"),
    "short gamma": (
        lambda: Dkm(2, ("a",), ("p",), (frozenset(),), {"a": (0, 1)}),
        "gamma must assign every state a subset of the observations"),
    "unknown observation in gamma": (
        lambda: Dkm(1, ("a",), ("p",), (frozenset({"q"}),), {"a": (0,)}),
        "gamma must assign every state a subset of the observations"),
    "a three-output Moore automaton as a model": (
        lambda: Dkm.from_dfa(MooreAutomaton(1, ("a",), {"a": (0,)}, 0, (0,), ("u", "v", "w"))),
        "accepting states need the outputs reject and accept"),
    "a two-output Moore automaton that is not a DFA as a model": (
        lambda: Dkm.from_dfa(MooreAutomaton(1, ("a",), {"a": (0,)}, 0, (0,),
                                            ("accept", "reject"))),
        "accepting states need the outputs reject and accept"),
    "atoms of a family over other states": (
        lambda: boolean_atoms([b"\1\0\1"], 2),
        "family row length mismatch"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
