"""Seeded inputs, job lists and expected answers for the dualmin benchmark.

    python3 bench/gen.py --workload dfa --seed 0 --out .bench_work/dfa

writes one JSON file per automaton into the output directory's `inputs/`
and the job list into its `jobs.json`.
Every job names a `dualmin` verb with its arguments, the exit code it must
return, and a check whose expected values (state counts, dimensions, ranks,
verdicts, series values) come from `oracle`, not from dualmin.  The same
workload and seed always give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import Det

WORKLOADS = ("dfa", "weighted", "powerset")

# Sizes.  Each workload's job list runs in about 3 to 8 s of CLI time on a
# 2-core machine; the reasons for each size are in bench/README.md.
CHAIN_REFINE = 300        # round-based refinement needs n rounds on a chain
CHAIN_BRZOZOWSKI = 150    # double reversal prints O(n^3) characters of names
KTH_BIG = 10              # 2^10 states; pass 2 names make 116 MB of JSON
BOOL_KTH = 6              # the same language as a Boolean weighted file
BIG_DFA = 5000            # parse is quadratic in the state count at seed
# Random families are drawn until a fixed budget of exploration is spent
# (see `pool`), each candidate explored at most up to a cap, and those whose
# blow-up lies nearest a target are kept: about the same set-up work and
# about the same job work whatever the seed.  Sizes and budgets count
# predicates, subsets or state sets explored.
DUAL_TARGET = 15_000      # first dual pass of the random 28-32 state DFAs
DUAL_BUDGET = 150_000
SMALL_DUAL_TARGET = 2_000  # the random DFA that goes through both passes
SMALL_DUAL_BUDGET = 30_000
MOORE_TARGET = 1_000      # first dual pass of the random 12-state Moore automata
MOORE_BUDGET = 20_000
CLOSURE_TARGET = 6_000    # definable closure of the random 24-28 state DKMs
CLOSURE_BUDGET = 60_000
SUBSET_TARGET = 10        # subset construction of the random Boolean files
BOOL_POOL = 6             # at most 2^8 subsets each, so a fixed count of draws


def pool(draw, size, target: int, budget: int) -> list:
    """(candidate, size) pairs drawn until `budget` is spent.

    `size(candidate, limit)` explores up to `limit` and returns None above it.
    Each candidate may explore up to twice the target, or what is left of the
    budget if that is less; one that goes over is charged its whole limit.
    """
    found, spent = [], 0
    while spent < budget:
        candidate = draw()
        limit = min(2 * target, budget - spent)
        found.append((candidate, size(candidate, limit)))
        spent += limit if found[-1][1] is None else found[-1][1]
    return found


def nearest(pool: list, target: int, k: int) -> list:
    """The k (candidate, size) pairs of the pool whose size is nearest the
    target; a size of None (over the exploration limit) is never kept."""
    fits = [p for p in pool if p[1] is not None]
    chosen = sorted(fits, key=lambda p: abs(p[1] - target))[:k]
    if len(chosen) < k:
        raise RuntimeError("too few candidates within the exploration limit")
    return chosen


class Workload:
    """Files and jobs being built for one workload."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        self.files: dict[str, dict] = {}
        self.jobs: list[dict] = []

    def file(self, name: str, doc: dict) -> str:
        self.files[name] = doc
        return name

    def job(self, family: str, args: list, check: dict, exit: int = 0, fault: dict | None = None):
        """`fault`, for a job kept failing on a known fault of the program, is
        {"why", "exit", "stdout"}: the failure counts as known only when the
        job exits and prints exactly that."""
        self.jobs.append({"id": f"{self.name}-{len(self.jobs):02d}", "family": family,
                          "args": [str(a) for a in args], "exit": exit,
                          "check": check, "known_fault": fault})

    def word(self, lo: int, hi: int) -> str:
        return "".join(self.rng.choice("ab") for _ in range(self.rng.randint(lo, hi)))


# ---------------------------------------------------------------- deterministic


def _names(prefix: str, n: int) -> list[str]:
    """Fixed-width names, so that the text of names built from subsets of
    them has the same length whatever the seed's state numbering."""
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def det_doc(d: Det, prefix: str = "q") -> dict:
    names = _names(prefix, d.n)
    trans = {a: {names[s]: names[d.trans[a][s]] for s in range(d.n)} for a in d.alphabet}
    doc = {"alphabet": list(d.alphabet), "states": names, "initial": names[d.init],
           "transitions": trans}
    if set(d.out) <= {"accept", "reject"}:
        doc.update(type="dfa", finals=[names[s] for s in range(d.n) if d.out[s] == "accept"])
    else:
        doc.update(type="moore", outputs=sorted(set(d.out)),
                   out={names[s]: d.out[s] for s in range(d.n)})
    return doc


def dkm_doc(d: Det, obs: list, prefix: str = "k") -> dict:
    names = _names(prefix, d.n)
    return {"type": "dkm", "alphabet": list(d.alphabet), "states": names, "obs": obs,
            "gamma": {names[s]: list(d.out[s]) for s in range(d.n)},
            "transitions": {a: {names[s]: names[d.trans[a][s]] for s in range(d.n)}
                            for a in d.alphabet},
            "initial": names[d.init]}


def permuted(d: Det, rng: random.Random, extra: int = 0) -> Det:
    """Same automaton with states renumbered at random, plus `extra`
    unreachable states with random transitions and labels."""
    n = d.n + extra
    perm = list(range(n))
    rng.shuffle(perm)
    labels = sorted(set(d.out))
    out = [None] * n
    trans = {a: [0] * n for a in d.alphabet}
    for s in range(n):
        for a in d.alphabet:
            t = d.trans[a][s] if s < d.n else rng.randrange(n)
            trans[a][perm[s]] = perm[t]
        out[perm[s]] = d.out[s] if s < d.n else rng.choice(labels)
    return Det(list(d.alphabet), trans, perm[d.init], out)


def random_det(n: int, rng: random.Random, labels=("reject", "accept")) -> Det:
    return Det(["a", "b"], {a: [rng.randrange(n) for _ in range(n)] for a in "ab"}, 0,
               [rng.choice(labels) for _ in range(n)])


def chain(n: int) -> Det:
    """a moves one step right, b resets; only the last state accepts.  All n
    states are distinguishable, and refinement splits one block per round."""
    return Det(["a", "b"], {"a": [min(i + 1, n - 1) for i in range(n)], "b": [0] * n}, 0,
               ["accept" if i == n - 1 else "reject" for i in range(n)])


def kth_with_parity(k: int) -> Det:
    """The k-th-letter-from-the-end language on 2^(k+1) states: the window
    plus the parity of the length read, which the language ignores."""
    mask = (1 << k) - 1
    return oracle.explore(["a", "b"], (0, 0),
                          lambda s, a: (((s[0] << 1) | (a == "a")) & mask, s[1] ^ 1),
                          lambda s: "accept" if s[0] >> (k - 1) & 1 else "reject")


def det_check(ref: dict, states: int) -> dict:
    return {"kind": "det", "ref": ref, "states": states}


def gen_dfa(w: Workload):
    rng = w.rng
    c300 = w.file("chain300.json", det_doc(permuted(chain(CHAIN_REFINE), rng)))
    c150 = w.file("chain150.json", det_doc(permuted(chain(CHAIN_BRZOZOWSKI), rng)))
    w.job("chain", ["minimize", c300, "--method", "refine"],
          det_check({"input": c300}, CHAIN_REFINE))
    w.job("chain", ["minimize", c300, "--method", "duality"],
          det_check({"input": c300}, CHAIN_REFINE))
    w.job("chain", ["minimize", c150], det_check({"input": c150}, CHAIN_BRZOZOWSKI))
    w.job("chain", ["stats", c300], {"kind": "line", "text":
          f"moore states={CHAIN_REFINE} letters=2 outputs=2 reachable={CHAIN_REFINE}"})

    kth = {k: w.file(f"kth{k}.json", det_doc(permuted(oracle.kth_from_end_dfa(k), rng)))
           for k in (8, 9, KTH_BIG)}
    # with the parity bit every state has a twin, so a method that skips
    # minimisation cannot pass on these
    parity = {k: w.file(f"kth{k}_parity.json", det_doc(permuted(kth_with_parity(k), rng)))
              for k in (8, 9)}
    w.job("kth", ["minimize", kth[KTH_BIG]], det_check({"kth": KTH_BIG}, 2 ** KTH_BIG))
    w.job("kth", ["minimize", kth[KTH_BIG], "--method", "refine"],
          det_check({"kth": KTH_BIG}, 2 ** KTH_BIG))
    w.job("kth", ["minimize", parity[8]], det_check({"kth": 8}, 2 ** 8))
    w.job("kth", ["minimize", parity[9], "--method", "refine"], det_check({"kth": 9}, 2 ** 9))
    w.job("kth", ["minimize", parity[9], "--method", "duality"], det_check({"kth": 9}, 2 ** 9))
    kth8_reverse = oracle.reverse_language_dfa(oracle.kth_from_end_dfa(8))
    w.job("kth", ["dual", kth[8]], det_check({"reverse_of": kth[8]}, kth8_reverse.n))
    w.job("kth", ["equiv", kth[9], parity[9]], {"kind": "line", "text": "equivalent"})

    # random DFAs whose first dual pass is large, drawn as a pool (see `pool`)
    def drawn(lo, hi):
        return lambda: random_det(rng.randint(lo, hi), rng)

    rand = []
    for i, (d, size) in enumerate(nearest(pool(drawn(28, 32), oracle.dual_size, DUAL_TARGET,
                                               DUAL_BUDGET), DUAL_TARGET, 3)):
        rand.append((w.file(f"rand{i}.json", det_doc(d)), d, size))
        w.job("random", ["dual", rand[-1][0]], det_check({"reverse_of": rand[-1][0]}, size))
    (r0, d0, _), (r1, d1, _), (r2, d2, _) = rand
    (d, _), = nearest(pool(drawn(22, 26), oracle.dual_size, SMALL_DUAL_TARGET, SMALL_DUAL_BUDGET),
                      SMALL_DUAL_TARGET, 1)
    name = w.file("rand_small.json", det_doc(d))
    w.job("random", ["minimize", name], det_check({"input": name}, oracle.minimal_states(d)))
    w.job("random", ["minimize", r1, "--method", "refine"],
          det_check({"input": r1}, oracle.minimal_states(d1)))
    word = w.word(20, 40)
    w.job("random", ["run", r2, "-w", word], {"kind": "line", "text": oracle.det_run(d2, word)})
    w.job("random", ["reach", r2], det_check({"input": r2}, len(oracle.reachable(d2))))
    flipped = Det(d0.alphabet, d0.trans, d0.init, list(d0.out))
    s = rng.choice(oracle.reachable(d0))
    flipped.out[s] = "reject" if flipped.out[s] == "accept" else "accept"
    r0x = w.file("rand0_flip.json", det_doc(flipped))
    same = oracle.equivalent(d0, flipped)[0]
    w.job("random", ["equiv", r0, r0x], {"kind": "line",
          "text": "equivalent" if same else "not equivalent"}, exit=0 if same else 1)

    big = random_det(BIG_DFA, rng)
    big_copy = permuted(big, rng, extra=BIG_DFA // 50)
    b = w.file("big.json", det_doc(big))
    bc = w.file("big_copy.json", det_doc(big_copy))
    reach_n = len(oracle.reachable(big))
    w.job("big", ["stats", b], {"kind": "line", "text":
          f"moore states={BIG_DFA} letters=2 outputs=2 reachable={reach_n}"})
    w.job("big", ["reach", b], det_check({"input": b}, reach_n))
    w.job("big", ["minimize", b, "--method", "refine"],
          det_check({"input": b}, oracle.minimal_states(big)))
    same = oracle.equivalent(big, big_copy)[0]
    w.job("big", ["equiv", b, bc], {"kind": "line",
          "text": "equivalent" if same else "not equivalent"}, exit=0 if same else 1)

    def drawn_moore():
        d = random_det(12, rng, ("x", "y", "z"))
        d.out[:3] = rng.sample(("x", "y", "z"), 3)  # every output occurs
        return d

    moore = [(w.file(f"moore{i}.json", det_doc(d, "m")), d) for i, (d, _) in enumerate(
        nearest(pool(drawn_moore, oracle.dual_size, MOORE_TARGET, MOORE_BUDGET), MOORE_TARGET, 2))]
    (m0, e0), (m1, e1) = moore
    w.job("moore", ["minimize", m0], det_check({"input": m0}, oracle.minimal_states(e0)))
    w.job("moore", ["minimize", m0, "--method", "refine"],
          det_check({"input": m0}, oracle.minimal_states(e0)))
    word = w.word(10, 30)
    w.job("moore", ["run", m1, "-w", word], {"kind": "line", "text": oracle.det_run(e1, word)})


# ---------------------------------------------------------------- weighted


def _emit(ring: str, v):
    if ring == "rational":
        v = Fraction(v)
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def wa_doc(wa: oracle.Wa) -> dict:
    n = wa.n
    return {"type": "weighted", "semiring": wa.ring, "alphabet": list(wa.alphabet),
            "states": _names("w", n),
            "initial": [_emit(wa.ring, v) for v in wa.init],
            "final": [_emit(wa.ring, v) for v in wa.final],
            "transitions": {a: [[_emit(wa.ring, v) for v in row] for row in wa.mats[a]]
                            for a in wa.alphabet}}


def _entry(ring: str, rng: random.Random):
    if ring == "rational":
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return rng.randint(-3, 3)


def dense_wa(n: int, ring: str, rng: random.Random) -> oracle.Wa:
    return oracle.Wa(["a", "b"], ring,
                     {a: [[_entry(ring, rng) for _ in range(n)] for _ in range(n)] for a in "ab"},
                     [_entry(ring, rng) for _ in range(n)], [_entry(ring, rng) for _ in range(n)])


def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def unimodular(n: int, rng: random.Random) -> tuple[list, list]:
    """A random integer matrix of determinant +-1 and its integer inverse,
    as a product of a permutation and elementary row additions."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in t]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        t[i] = [x + c * y for x, y in zip(t[i], t[j])]          # T <- E T
        for row in inv:                                          # T^-1 <- T^-1 E^-1
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    t = [t[p] for p in perm]
    inv = [[row[p] for p in perm] for row in inv]
    if _matmul(t, inv) != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise RuntimeError("unimodular inverse is wrong")
    return t, inv


def padded_wa(r: int, unobs: int, unreach: int, ring: str, rng: random.Random):
    """A minimal r-dimensional automaton, padded and conjugated.

    Blocks are ordered core | unobservable | unreachable.  Unobservable
    states have final weight 0 and feed only each other; unreachable states
    have initial weight 0 and no arcs in from the other blocks.  The result is
    conjugated by a random unimodular matrix, so its minimal dimension is r.
    Returns (padded, core).
    """
    while True:
        core = dense_wa(r, "int", rng)
        if oracle.hankel_rank(core) == r:
            break
    n = r + unobs + unreach
    blocks = [range(r), range(r, r + unobs), range(r + unobs, n)]
    allowed = {(0, 0), (1, 0), (1, 1), (0, 2), (1, 2), (2, 2)}  # (row block, column block)

    def block_of(i):
        return next(b for b, rg in enumerate(blocks) if i in rg)

    mats = {}
    for a in "ab":
        m = [[0] * n for _ in range(n)]
        for y in range(n):
            for x in range(n):
                by, bx = block_of(y), block_of(x)
                if by == bx == 0:
                    m[y][x] = core.mats[a][y][x]
                elif (by, bx) in allowed:
                    m[y][x] = rng.randint(-2, 2)
        mats[a] = m
    init = core.init + [rng.randint(-2, 2) for _ in range(unobs)] + [0] * unreach
    final = core.final + [0] * unobs + [rng.randint(-2, 2) for _ in range(unreach)]
    t, tinv = unimodular(n, rng)
    conj = {a: _matmul(_matmul(t, mats[a]), tinv) for a in "ab"}
    init = [sum(x * y for x, y in zip(row, init)) for row in t]
    final = [sum(f * tinv[i][j] for i, f in enumerate(final)) for j in range(n)]
    core = oracle.Wa(core.alphabet, ring, core.mats, core.init, core.final)
    return oracle.Wa(["a", "b"], ring, conj, init, final), core


def bounded_equiv(why: str) -> dict:
    """The known fault of `equiv` on weighted and AFA files: it compares
    words up to --max-len 6 only, then prints a bare "equivalent", exit 0."""
    return {"why": "bounded equiv on " + why, "exit": 0, "stdout": "equivalent\n"}


SERIES_LEN = 6   # words up to this length are compared exactly after minimize/reach


def gen_weighted(w: Workload):
    rng = w.rng

    def wa_check(name, wa, dim):
        return {"kind": "wa", "input": name, "dim": dim, "max_len": SERIES_LEN}

    dense = {}
    for key, ring, n in (("q_big", "rational", 24),
                         ("q_mid", "rational", 16),
                         ("z_big", "int", 24),
                         ("q_reach", "rational", 20),
                         ("z_hankel", "int", 16)):
        wa = dense_wa(n, ring, rng)
        dense[key] = (w.file(f"dense_{key}.json", wa_doc(wa)), wa)
    for key in ("q_big", "q_mid", "z_big"):
        name, wa = dense[key]
        w.job("dense", ["minimize", name], wa_check(name, wa, oracle.hankel_rank(wa)))
    name, wa = dense["q_reach"]
    w.job("dense", ["reach", name], wa_check(name, wa, len(oracle.forward_space(wa))))
    name, wa = dense["z_hankel"]
    w.job("dense", ["hankel", name, "-L", 4],
          {"kind": "line", "text": str(oracle.hankel_block_rank(wa, 4))})
    for key in ("q_big", "z_big"):
        name, wa = dense[key]
        word = w.word(6, 12)
        w.job("dense", ["run", name, "-w", word],
              {"kind": "value", "value": str(oracle.series(wa, word))})

    padded = []
    for i, (r, unobs, unreach, ring) in enumerate(((4, 5, 5, "int"), (5, 6, 6, "int"),
                                                   (3, 5, 5, "rational"), (4, 4, 4, "int"))):
        wa, core = padded_wa(r, unobs, unreach, ring, rng)
        padded.append((w.file(f"padded{i}.json", wa_doc(wa)), wa, r,
                       w.file(f"core{i}.json", wa_doc(core)), core))
    for name, wa, r, _, _ in padded[:3]:
        w.job("padded", ["minimize", name], wa_check(name, wa, r))
    name, wa, _, core_name, _ = padded[3]
    w.job("padded", ["reach", name], wa_check(name, wa, len(oracle.forward_space(wa))))
    w.job("padded", ["equiv", name, core_name], {"kind": "line", "text": "equivalent"})
    # the same core with one final weight moved: the series moves at the empty word
    name, wa, _, _, core = padded[2]
    j = next(i for i, x in enumerate(core.init) if x)
    moved = oracle.Wa(core.alphabet, core.ring, core.mats, core.init,
                      [x + (i == j) for i, x in enumerate(core.final)])
    w.job("padded", ["equiv", name, w.file("core2_moved.json", wa_doc(moved))],
          {"kind": "line", "text": "not equivalent"}, exit=1)
    name, wa, _, _, _ = padded[0]
    word = w.word(6, 12)
    w.job("padded", ["run", name, "-w", word],
          {"kind": "value", "value": str(oracle.series(wa, word))})

    def drawn_bool():
        n = rng.randint(6, 8)
        wa = oracle.Wa(["a", "b"], "bool",
                       {a: [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(n)]
                        for a in "ab"},
                       [int(x == 0) for x in range(n)], [int(rng.random() < 0.4) for _ in range(n)])
        return wa, oracle.bool_wa_subset_dfa(wa).n

    for i, (wa, _) in enumerate(nearest([drawn_bool() for _ in range(BOOL_POOL)],
                                        SUBSET_TARGET, 2)):
        name = w.file(f"bool{i}.json", wa_doc(wa))
        w.job("bool", ["minimize", name],
              det_check({"bool_wa": name}, oracle.minimal_states(oracle.bool_wa_subset_dfa(wa))))
    # "the k-th letter from the end is a" as a Boolean automaton on k+1
    # states: 2^k subsets, and an output whose size does not depend on the seed
    k = BOOL_KTH
    p = list(range(k + 1))
    rng.shuffle(p)
    arcs = {(0, 0, "a"), (0, 0, "b"), (0, 1, "a")} | {(i, i + 1, a) for i in range(1, k)
                                                       for a in "ab"}
    wa = oracle.Wa(["a", "b"], "bool",
                   {a: [[int((p.index(x), p.index(y), a) in arcs) for x in range(k + 1)]
                        for y in range(k + 1)] for a in "ab"},
                   [int(x == p[0]) for x in range(k + 1)], [int(x == p[k]) for x in range(k + 1)])
    w.job("bool", ["minimize", w.file("bool_kth.json", wa_doc(wa))], det_check({"kth": k}, 2 ** k))

    # Known fault: equiv on weighted files compares words up to --max-len 6
    # only.  The shift chain's series is 1 at a^7 alone, so the right verdict
    # is "not equivalent".  Fixed inputs, so it fails on every seed.
    shift = oracle.Wa(["a", "b"], "int",
                      {"a": [[int(y == x + 1) for x in range(8)] for y in range(8)],
                       "b": [[0] * 8 for _ in range(8)]},
                      [1] + [0] * 7, [0] * 7 + [1])
    zero = oracle.Wa(["a", "b"], "int", {"a": [[0]], "b": [[0]]}, [0], [0])
    w.job("fault", ["equiv", w.file("shift8.json", wa_doc(shift)),
                    w.file("zero.json", wa_doc(zero))],
          {"kind": "line", "text": "not equivalent"}, exit=1,
          fault=bounded_equiv("weighted files: series differ only at aaaaaaa"))


# ---------------------------------------------------------------- powerset


def afa_doc(names: list, delta: dict, iota: str, finals: list) -> dict:
    return {"type": "afa", "alphabet": ["a", "b"], "states": names, "finals": finals,
            "iota": iota, "transitions": delta}


def _literal(rng, names):
    v = rng.choice(names)
    return v if rng.random() < 0.6 else f"not {v}"


def random_formula(rng, names, terms=(1, 2), width=(1, 2)) -> str:
    parts = [" and ".join(_literal(rng, names) for _ in range(rng.randint(*width)))
             for _ in range(rng.randint(*terms))]
    return " or ".join(f"({p})" for p in parts)


def counter_afa(counters: list, iota: str, rng: random.Random) -> dict:
    """Modular counters as an AFA: names[i] steps to names[i+1] on its letter,
    stays on the other, and only names[0] is final."""
    order = [n for _, names in counters for n in names]
    rng.shuffle(order)
    delta = {a: {} for a in "ab"}
    for letter, names in counters:
        p = len(names)
        for i, n in enumerate(names):
            for a in "ab":
                delta[a][n] = names[(i + 1) % p] if a == letter else n
    return afa_doc(order, delta, iota, [names[0] for _, names in counters])


def de_morgan(formula: str) -> str:
    """An equivalent rewriting: f == not (not f)."""
    return f"not (not ({formula}))"


def gen_powerset(w: Workload):
    rng = w.rng
    counter_files = []
    for i, spec in enumerate(((("a", 5), ("b", 7)), (("a", 4), ("b", 3), ("a", 3)))):
        counters = [(letter, [f"{'uvw'[j]}{k}" for k in range(p)])
                    for j, (letter, p) in enumerate(spec)]
        names = [n for _, ns in counters for n in ns]
        iota = random_formula(rng, names, terms=(2, 3), width=(2, 2))
        doc = counter_afa(counters, iota, rng)
        counter_files.append((w.file(f"counter{i}.json", doc), counters, iota, doc))
    for name, counters, iota, _ in counter_files:
        ref = {"counters": counters, "iota": iota}
        w.job("counter", ["minimize", name], det_check(
            ref, oracle.minimal_states(oracle.counter_product_dfa(counters, iota))))
    name, counters, iota, doc = counter_files[1]
    w.job("counter", ["reverse", name],
          det_check({"afa_reverse": name}, 2 ** len(doc["states"])))
    name, counters, iota, doc = counter_files[0]
    word = w.word(10, 20)
    verdict = oracle.afa_accepts(oracle.afa_from_doc(doc), word)
    if verdict != (oracle.det_run(oracle.counter_product_dfa(counters, iota), word) == "accept"):
        raise RuntimeError("reference AFA semantics disagree")
    w.job("counter", ["run", name, "-w", word],
          {"kind": "line", "text": "accept" if verdict else "reject"})
    rewritten = counter_afa(counters, de_morgan(iota), rng)
    w.job("counter", ["equiv", name, w.file("counter0_rewritten.json", rewritten)],
          {"kind": "line", "text": "equivalent"})

    tiny = []
    for i in range(3):
        names = [f"t{k}" for k in range(rng.randint(3, 4))]
        doc = afa_doc(names, {a: {s: random_formula(rng, names) for s in names} for a in "ab"},
                      random_formula(rng, names), [s for s in names if rng.random() < 0.5])
        tiny.append((w.file(f"tiny{i}.json", doc), doc))
    for name, doc in tiny[:2]:
        ref = oracle.afa_language_dfa(oracle.afa_from_doc(doc))
        w.job("tiny", ["minimize", name], det_check({"afa": name}, oracle.minimal_states(ref)))
    name, doc = tiny[2]
    word = w.word(8, 16)
    w.job("tiny", ["run", name, "-w", word], {"kind": "line", "text":
          "accept" if oracle.afa_accepts(oracle.afa_from_doc(doc), word) else "reject"})
    name, doc = tiny[0]
    negated = dict(doc, iota=f"not ({doc['iota']})")
    w.job("tiny", ["equiv", name, w.file("tiny0_negated.json", negated)],
          {"kind": "line", "text": "not equivalent"}, exit=1)

    for k in (10, 12):
        names = [f"p{i}" for i in range(k + 1)]
        rng.shuffle(names)
        trans = {a: {names[0]: [names[0]] + ([names[1]] if a == "a" else [])} for a in "ab"}
        for i in range(1, k):
            for a in "ab":
                trans[a][names[i]] = [names[i + 1]]
        doc = {"type": "nfa", "alphabet": ["a", "b"], "states": sorted(names),
               "initial": [names[0]], "transitions": trans, "finals": [names[k]]}
        if oracle.nfa_subset_dfa(doc).n != 2 ** k:
            raise RuntimeError("k-th-from-end NFA has the wrong subset count")
        w.job("nfa", ["determinize", w.file(f"nfa_kth{k}.json", doc)],
              det_check({"kth": k}, 2 ** k))

    def drawn_dkm():
        n = rng.randint(24, 28)
        return Det(["a", "b"], {a: [rng.randrange(n) for _ in range(n)] for a in "ab"}, 0,
                   [tuple(o for o in "pq" if rng.random() < 0.5) for _ in range(n)])

    dkms = [(w.file(f"dkm{i}.json", dkm_doc(d, ["p", "q"])), d) for i, (d, _) in enumerate(
        nearest(pool(drawn_dkm, lambda d, limit: oracle.closure_size(d, ["p", "q"], limit),
                     CLOSURE_TARGET, CLOSURE_BUDGET), CLOSURE_TARGET, 3))]
    for name, d in dkms:
        w.job("dkm", ["minimize", name], {"kind": "dkm", "input": name,
                                          "states": oracle.quotient_states(d)})

    n = CHAIN_REFINE
    line = Det(["a", "b"], {"a": [min(i + 1, n - 1) for i in range(n)], "b": list(range(n))}, 0,
               [("p",) if i == n - 1 else () for i in range(n)])
    line = permuted(line, rng)
    name = w.file("dkm_chain.json", dkm_doc(line, ["p"]))
    w.job("dkm_chain", ["minimize", name, "--method", "refine"],
          {"kind": "dkm", "input": name, "states": oracle.quotient_states(line)})
    w.job("dkm_chain", ["closure", name], {"kind": "closure", "input": name,
                                          "sets": len(oracle.closure_masks(line, ["p"]))})
    word = w.word(2, 5)
    formula = "".join(f"<{a}>" for a in word) + "p"
    names = dkm_doc(line, ["p"])["states"]
    w.job("dkm_chain", ["trace-eval", name, "-f", formula], {"kind": "names", "names": sorted(
        names[s] for s in oracle.trace_extension(line, word, "p"))})

    # Known fault: equiv on AFA files compares words up to --max-len 6 only.
    # "#a = 0 mod 7" and "no a" first differ at aaaaaaa.  Fixed inputs.
    mod7 = [f"m{i}" for i in range(7)]
    delta7 = {"a": {s: mod7[(i + 1) % 7] for i, s in enumerate(mod7)},
              "b": {s: s for s in mod7}}
    no_a = afa_doc(["z"], {"a": {"z": "false"}, "b": {"z": "z"}}, "z", ["z"])
    w.job("fault", ["equiv", w.file("mod7.json", afa_doc(mod7, delta7, "m0", ["m0"])),
                    w.file("no_a.json", no_a)],
          {"kind": "line", "text": "not equivalent"}, exit=1,
          fault=bounded_equiv("AFA files: languages differ only at aaaaaaa"))


GENERATORS = {"dfa": gen_dfa, "weighted": gen_weighted, "powerset": gen_powerset}


def generate(workload: str, seed: int, out: Path) -> list[dict]:
    """Write the workload's files and jobs.json into `out`; return the jobs."""
    w = Workload(workload, seed)
    GENERATORS[workload](w)
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    for name, doc in w.files.items():
        (out / "inputs" / name).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    (out / "jobs.json").write_text(json.dumps(w.jobs, indent=1) + "\n")
    return w.jobs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
