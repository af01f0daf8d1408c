"""A fixed unit of Python work that paces the machine for bench/run.py.

    python3 bench/reference.py

It starts an interpreter, imports the standard modules dualmin uses, and
does a fixed mix of the work dualmin's jobs do: integer and Fraction
arithmetic, dict and set building, JSON parsing and printing.  It imports
nothing from dualmin, so its time depends on the machine alone: run.py times
it between every two jobs and scales each job by it (see `Pace` there).
It prints nothing and exits 0.
"""

import argparse  # noqa: F401  the imports are part of the fixed work
import dataclasses  # noqa: F401
import json
import random
from collections import deque
from fractions import Fraction


def main() -> None:
    rng = random.Random(0)
    table = {f"q{i:04d}": [rng.randrange(600) for _ in range(2)] for i in range(600)}
    text = json.dumps({"states": list(table), "delta": table})
    doc = json.loads(text)
    seen, todo = {"q0000"}, deque(["q0000"])
    while todo:  # breadth-first search over the table, as reach does
        for nxt in doc["delta"][todo.popleft()]:
            name = f"q{nxt:04d}"
            if name not in seen:
                seen.add(name)
                todo.append(name)
    subsets = {frozenset(rng.sample(range(40), 5)) for _ in range(3000)}
    rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(10)]
            for _ in range(10)]
    for i in range(10):  # Fraction elimination, as the Q bases do
        pivot = next((r for r in range(i, 10) if rows[r][i]), None)
        if pivot is None:
            continue
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for r in range(i + 1, 10):
            f = rows[r][i] / rows[i][i]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    json.dumps([len(seen), len(subsets), str(rows[9][9])])


if __name__ == "__main__":
    main()
