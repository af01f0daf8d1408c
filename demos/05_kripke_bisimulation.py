"""Bisimulation quotients of deterministic Kripke models via trace logic.

A trace formula <a1>...<ak>w asks whether the observation w holds after the
given action sequence.  Collecting the extensions of all trace formulas and
closing under preimages gives a family of subsets whose Boolean atoms are
precisely the bisimulation classes, so the quotient needs no explicit
partner-matching at all.
"""

from itertools import compress

from dualmin import (Dkm, TraceFormula, bisimulation_oracle, boolean_atoms,
                     definable_closure, eval_trace, minimise_dkm, quotient_dkm)

names = ("hall", "door", "room", "attic")
model = Dkm(
    4, ("go", "up"),
    obs=("light",),
    gamma=(frozenset(), frozenset({"light"}), frozenset({"light"}), frozenset()),
    delta={"go": (1, 2, 1, 3), "up": (3, 3, 3, 0)},
    init=0, state_names=names)

print("A 4-state model; 'light' is visible at door and room.")
for formula in (TraceFormula((), "light"),
                TraceFormula(("go",), "light"),
                TraceFormula(("go", "go"), "light"),
                TraceFormula(("up",), "light")):
    sat = eval_trace(model, formula)
    print(f"  [[{formula}]] = {{{', '.join(names[s] for s in sorted(sat))}}}")

# The closure is listed as 0/1 rows, byte s of a row being 1 iff state s is
# a member; they are decoded into member lists only to be printed.
closure = definable_closure(model)
print(f"\nDefinable closure has {len(closure)} subsets:")
members = (list(compress(range(model.n), row)) for row in closure)
for subset in sorted(members, key=lambda m: (len(m), m)):
    print("  {" + ", ".join(names[s] for s in subset) + "}")

atoms = boolean_atoms(closure, model.n)
print(f"\nBoolean atoms partition the states into {atoms.n_blocks} blocks:")
for block in atoms.blocks():
    print("  {" + ", ".join(names[s] for s in block) + "}")
print("Partition refinement finds the same blocks:",
      atoms == bisimulation_oracle(model))

quotient = minimise_dkm(model)
print(f"\nQuotient model: {quotient.n} states, initial block {quotient.init}")
for a in quotient.alphabet:
    print(f"  on {a}: {quotient.delta[a]}")
print(f"  observations per block: {[sorted(g) for g in quotient.gamma]}")
print("Quotienting again changes nothing:", minimise_dkm(quotient) == quotient)

# The quotient map really is a congruence; merging observably different
# states is rejected with a witness.
from dualmin import NonCongruenceError, Partition

try:
    quotient_dkm(model, Partition((0, 0, 1, 2), 3))
except NonCongruenceError as err:
    print(f"\nMerging hall with door fails: {err}")
