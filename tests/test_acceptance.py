"""Acceptance criteria, one test per criterion, at the stated scales and
tolerances (everything here is exact equality; stated wall-clock budgets are
asserted where given).  Each test prints one PASS line with its measured time.
"""

import random
import time

from dualmin import (INT, RATIONAL, Dkm, IntegerBasis, bisimulation_oracle,
                     boolean_atoms, brzozowski_minimise, definable_closure, det_int,
                     determinise, dual_automaton, equiv_exact,
                     hankel_rank_oracle, hnf, is_hnf_shape, iso_check, mat_mul,
                     mat_vec, minimal_dfa_for_afa, minimise_dkm, minimise_wa,
                     partition_refinement_minimise, parse, reverse, reverse_dfa, run)
from dualmin.sampling import (random_afa, random_dfa, random_dkm, random_int_matrix,
                              random_moore, random_wa)

from oracles import afa_accepts_recursive, closure_names, ends_with_a_dfa, row_sets, words


def _moore_sample(count):
    rng = random.Random("acceptance-moore")
    return [random_moore(rng, max_n=8, max_letters=3, max_outputs=3) for _ in range(count)]


def test_criterion_1_golden_ends_with_a(data_dir):
    t0 = time.monotonic()
    m = parse((data_dir / "ends_with_a.json").read_bytes())
    assert m == ends_with_a_dfa()

    dual = dual_automaton(m)
    assert dual.n == 3
    x, y, z = 0, 1, 2
    assert row_sets(definable_closure(Dkm.from_dfa(m))) == frozenset({frozenset({y, z}),
                                                                      frozenset({x, y, z}),
                                                                      frozenset()})

    minimal = brzozowski_minimise(m)
    expected_minimal = parse((data_dir / "ends_with_a_min.json").read_bytes())
    assert minimal.n == 2
    assert iso_check(minimal, expected_minimal)
    assert equiv_exact(minimal, m)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: golden (a+b)*a test ({elapsed:.3f}s)")


def test_criterion_2_moore_differential_suite():
    t0 = time.monotonic()
    sample = _moore_sample(500)
    for m in sample:
        brz = brzozowski_minimise(m)
        ref = partition_refinement_minimise(m)
        assert iso_check(brz, ref)
        assert equiv_exact(brz, ref)
        assert equiv_exact(brz, m)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: 500/500 Moore automata, double reversal == refinement "
          f"({elapsed:.1f}s)")


def test_criterion_3_language_reversal():
    t0 = time.monotonic()
    sample = _moore_sample(500)
    for m in sample:
        dual = dual_automaton(m)
        init = m.init

        # depth-first over all words up to length 8, carrying the dual state
        # and the composed map g[s] = target of s under the reversed word
        def walk(dual_state, g, depth):
            assert dual.out[dual_state] == m.out[g[init]]
            if depth == 8:
                return
            for a in m.alphabet:
                step = m.trans[a]
                walk(dual.trans[a][dual_state], tuple(g[step[s]] for s in range(m.n)),
                     depth + 1)

        walk(dual.init, tuple(range(m.n)), 0)
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 3: reversal run(dual, w) == run(M, rev w), |w| <= 8 "
          f"({elapsed:.1f}s)")


def _eval_agreement(original, minimal, max_len):
    # walk the word tree once, carrying both state vectors
    sr = original.semiring

    def walk(v_orig, v_min, depth):
        assert sr.dot(original.final, v_orig) == sr.dot(minimal.final, v_min)
        if depth == max_len:
            return
        for a in original.alphabet:
            walk(mat_vec(original.mats[a], v_orig), mat_vec(minimal.mats[a], v_min),
                 depth + 1)

    walk(original.init, minimal.init, 0)


def test_criterion_4_weighted_rationals():
    t0 = time.monotonic()
    rng = random.Random("acceptance-weighted-q")
    for _ in range(200):
        w = random_wa(rng, RATIONAL, max_n=4, max_letters=2, lo=-2, hi=2)
        minimal = minimise_wa(w)
        assert minimal.dimension == hankel_rank_oracle(w, 4)
        _eval_agreement(w, minimal.automaton, 6)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 4: 200/200 rational automata, dimension == Hankel rank "
          f"({elapsed:.1f}s)")


def test_criterion_5_weighted_integers():
    t0 = time.monotonic()
    rng = random.Random("acceptance-weighted-z")
    for _ in range(200):
        w = random_wa(rng, INT, max_n=4, max_letters=2, lo=-2, hi=2)
        minimal = minimise_wa(w)
        assert minimal.dimension <= w.n
        _eval_agreement(w, minimal.automaton, 6)
        assert minimise_wa(minimal.automaton).dimension == minimal.dimension
        assert hankel_rank_oracle(w, 4) <= minimal.dimension
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 5: 200/200 integer automata, PID minimisation sound "
          f"({elapsed:.1f}s)")


def test_criterion_6_hnf_property_suite():
    t0 = time.monotonic()
    rng = random.Random("acceptance-hnf")
    for _ in range(1000):
        a = random_int_matrix(rng, 4, 4, -9, 9)
        h, u = hnf(a)
        assert mat_mul(u, a) == h
        assert abs(det_int(u)) == 1
        lattice_rows = tuple(r for r in h.entries if any(r))
        assert is_hnf_shape(lattice_rows)
        basis = IntegerBasis(4, lattice_rows)
        for row in a.entries:
            assert basis.coordinates(row) is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 6: 1000/1000 Hermite normal forms verified ({elapsed:.1f}s)")


def test_criterion_7_alternating():
    t0 = time.monotonic()
    rng = random.Random("acceptance-afa")
    for _ in range(200):
        a = random_afa(rng, max_n=3, max_letters=2)
        rev = reverse_dfa(a)
        for w in words(a.alphabet, 6):
            assert (run(rev, w) == 1) == afa_accepts_recursive(a, tuple(reversed(w)))
        oracle = partition_refinement_minimise(determinise(reverse(rev)))
        assert iso_check(minimal_dfa_for_afa(a), oracle)
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 7: 200/200 alternating automata, reversal theorem and "
          f"minimisation ({elapsed:.1f}s)")


def test_criterion_8_dkm_duality_quotient():
    t0 = time.monotonic()
    rng = random.Random("acceptance-dkm")
    for _ in range(200):
        k = random_dkm(rng, max_n=6, max_letters=2, max_obs=2)
        assert boolean_atoms(definable_closure(k), k.n) == bisimulation_oracle(k)
        minimal = minimise_dkm(k)
        assert minimise_dkm(minimal) == minimal
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 8: 200/200 Kripke models, atoms == bisimulation "
          f"({elapsed:.1f}s)")


def test_criterion_9_cross_module_coherence():
    t0 = time.monotonic()
    rng = random.Random("acceptance-cross")
    for _ in range(100):
        m = random_dfa(rng, max_n=6, max_letters=2)
        assert closure_names(m) == set(dual_automaton(m).state_names)
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 9: 100/100 DFAs, definable closure == dual states "
          f"({elapsed:.1f}s)")
