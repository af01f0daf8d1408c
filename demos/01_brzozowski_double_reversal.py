"""Double-reversal minimisation of a DFA, step by step.

The running example is the 3-state automaton for (a+b)*a: from state x, an
'a' moves towards acceptance and a 'b' resets.  States y and z accept but
behave identically, which is exactly the redundancy minimisation removes.
"""

from itertools import compress

from dualmin import (Dkm, MooreAutomaton, brzozowski_minimise, definable_closure, determinise,
                     dual_automaton, equiv_exact, partition_refinement_minimise, reach,
                     reverse, run)


def show(title, m):
    names = m.state_names or tuple(f"s{i}" for i in range(m.n))
    print(f"\n{title}")
    print(f"  states   : {', '.join(names)}  (initial {names[m.init]})")
    for a in m.alphabet:
        arrows = ", ".join(f"{names[s]}-{a}->{names[m.trans[a][s]]}" for s in range(m.n))
        print(f"  on {a}     : {arrows}")
    print(f"  accepting: {', '.join(names[s] for s in range(m.n) if m.out[s]) or '-'}")


dfa = MooreAutomaton.dfa(
    3, ("a", "b"),
    {"a": (2, 1, 1), "b": (0, 0, 0)},
    0, [1, 2], state_names=("x", "y", "z"))

show("Start: the DFA for (a+b)*a", dfa)
for w in ("", "a", "ab", "ba", "bba"):
    verdict = "accept" if run(dfa, tuple(w)) else "reject"
    print(f"  run {w or '(empty)'}: {verdict}")

# The dual automaton lives on predicates over the states.  For a DFA these
# decode to subsets, and only three of the eight are ever reached.  They are
# the definable sets of the DFA read as a Kripke model with one observation,
# "accepting": the sets that the trace formulas <a1>...<ak>p pick out.  The
# closure lists each as a 0/1 row over x, y, z, decoded here to be printed.
dual = dual_automaton(dfa)
show("First reversal: the dual automaton (accepts the reversed language)", dual)
print("  dual states = definable closure of the DFA as a Kripke model:",
      sorted("{" + ",".join(compress("xyz", row)) + "}"
             for row in definable_closure(Dkm.from_dfa(dfa))))
print("  check: dual on 'ab' =", run(dual, ("a", "b")),
      " original on 'ba' =", run(dfa, ("b", "a")))

# The same three subsets come out of the classical route.
classical = reach(determinise(reverse(dfa)))
print("\nClassical reverse-determinise-trim gives the same machine:",
      reach(dual) == reach(classical))

# A second reversal lands on the minimal automaton.  Its states are sets of
# dual states, named here by nesting the dual's names.  brzozowski_minimise
# builds the same automaton (== ignores names) but names it by dual-state
# index, s1 and s0+s1, so that its names stay short on large inputs.
minimal = dual_automaton(dual)
assert minimal == brzozowski_minimise(dfa)
show("Second reversal: the minimal DFA", minimal)
print("\n  same language as the start:", equiv_exact(minimal, dfa))
print("  agrees with partition refinement:",
      reach(minimal) == reach(partition_refinement_minimise(dfa)))
