"""Alternating automata and their dual DFA.

An AFA's transition for a state is a Boolean condition over which successor
states report acceptance; running one word spawns a whole tree of processes.
Transposing the transition conditions yields an ordinary DFA on subsets of
states whose language is exactly the reverse, and from there the usual
double-reversal machinery produces the minimal DFA for the AFA's language.
"""

from dualmin import (AlternatingAutomaton, BoolFun, afa_accepts, compile_formula,
                     minimal_dfa_for_afa, reach, reverse_dfa, run, words_up_to)

names = ("s0", "s1")
# s0 demands both successors accept on 'a'; s1 just propagates itself.
# On 'b' the two states swap roles.
delta = {
    "a": (compile_formula("s0 and s1", names), compile_formula("s1", names)),
    "b": (compile_formula("s1", names), compile_formula("s0 or s1", names)),
}
iota = compile_formula("s0", names)
afa = AlternatingAutomaton(2, ("a", "b"), delta, iota, frozenset({1}), names)

print("A 2-state alternating automaton (conjunctive on 'a'):")
for w in words_up_to(afa.alphabet, 3):
    if afa_accepts(afa, w):
        print(f"  accepts {''.join(w) or '(empty)'}")

rev = reverse_dfa(afa)
print(f"\nThe dual DFA lives on all 2^{afa.n} = {rev.n} subsets; "
      f"{reach(rev).n} are reachable.")
print("Reversal theorem on every word up to length 6:",
      all((run(rev, w) == 1) == afa_accepts(afa, tuple(reversed(w)))
          for w in words_up_to(afa.alphabet, 6)))

minimal = minimal_dfa_for_afa(afa)
print(f"\nMinimal DFA for the AFA's own language: {minimal.n} states")
print("  language agrees up to length 6:",
      all((run(minimal, w) == 1) == afa_accepts(afa, w)
          for w in words_up_to(afa.alphabet, 6)))

# Extensional Boolean functions work just as well as formulas.
parity = AlternatingAutomaton(
    2, ("a",),
    {"a": (BoolFun(2, [{1}, {0, 1}]), BoolFun(2, [{0}]))},
    BoolFun(2, [{0}, {0, 1}]), frozenset({0}))
print("\nA hand-built AFA accepts:",
      [''.join(w) or '(empty)' for w in words_up_to(("a",), 5) if afa_accepts(parity, w)])
print("Its minimal DFA has", minimal_dfa_for_afa(parity).n, "states")
