"""Command-line surface tying the library together.

Verbs operate on JSON automaton files (see io.py for the schema) and write
automata back as JSON on stdout.  Exit codes: 0 success (or "equivalent"),
1 negative verdicts and data errors, 2 usage errors, 3 state-bound guards.
"""

from __future__ import annotations

import argparse
import re
import sys

from .alternating import (AlternatingAutomaton, afa_accepts, minimal_dfa_for_afa,
                          reachable_reverse_dfa, reverse_dfa)
from .automata import (MooreAutomaton, Nfa, determinise, equiv_exact, nfa_step,
                       partition_refinement_minimise, reach, reverse, run, words_up_to)
from .brzozowski import brzozowski_minimise, dual_automaton
from .dkm import Dkm, TraceFormula, bisimulation_oracle, definable_closure, eval_trace, \
    minimise_dkm, quotient_dkm
from .errors import FormatError, StateGuardError, resolve_max_states
from .io import emit, emit_value, parse
from .selftest import run_selftest
from .semiring import BOOL, semiring_by_name
from .weighted import (WeightedAutomaton, bool_wa_to_nfa, dual_wa, equiv_wa, eval_series,
                       hankel_rank_oracle, minimise_wa, reach_restrict)

USAGE_EXIT = 2
GUARD_EXIT = 3


def _load(path: str, semiring_override: str | None = None):
    with open(path, "rb") as fh:
        obj = parse(fh.read())
    if semiring_override and isinstance(obj, WeightedAutomaton):
        target = semiring_by_name(semiring_override)
        mats = {a: [[target.coerce(v) for v in row] for row in m.entries]
                for a, m in obj.mats.items()}
        obj = WeightedAutomaton.build(obj.alphabet, target, mats,
                                      [target.coerce(v) for v in obj.init],
                                      [target.coerce(v) for v in obj.final],
                                      obj.state_names)
    return obj


def _word(raw: str, alphabet) -> tuple[str, ...]:
    """Single-character letters concatenate; multi-character letters use commas."""
    if raw == "":
        return ()
    letters = raw.split(",") if "," in raw else list(raw)
    for a in letters:
        if a not in alphabet:
            raise ValueError(f"letter {a!r} is not in the alphabet")
    return tuple(letters)


def _print_moore_verdict(m: MooreAutomaton, value: int):
    print(m.outputs[value])


def _cmd_run(args) -> int:
    obj = _load(args.file, args.semiring)
    if isinstance(obj, MooreAutomaton):
        word = _word(args.word, obj.alphabet)
        _print_moore_verdict(obj, run(obj, word))
    elif isinstance(obj, Nfa):
        word = _word(args.word, obj.alphabet)
        cur = obj.inits
        for a in word:
            cur = nfa_step(obj, cur, a)
        print("accept" if cur & obj.finals else "reject")
    elif isinstance(obj, WeightedAutomaton):
        word = _word(args.word, obj.alphabet)
        value = eval_series(obj, word)
        print(emit_value(obj.semiring, value))
    elif isinstance(obj, AlternatingAutomaton):
        word = _word(args.word, obj.alphabet)
        print("accept" if afa_accepts(obj, word) else "reject")
    elif isinstance(obj, Dkm):
        if obj.init is None:
            raise ValueError("this model has no initial state")
        word = _word(args.word, obj.alphabet)
        s = obj.init
        for a in word:
            s = obj.delta[a][s]
        print(" ".join(sorted(obj.gamma[s])) or "-")
    else:
        raise ValueError("run: unsupported file type")
    return 0


def _cmd_reverse(args) -> int:
    """reverse and dual: the two verbs differ only on Moore and NFA files."""
    obj = _load(args.file, args.semiring)
    if isinstance(obj, WeightedAutomaton):
        result = dual_wa(obj)
    elif isinstance(obj, AlternatingAutomaton):
        result = reverse_dfa(obj, args.max_states)
    elif args.verb == "reverse" and isinstance(obj, (MooreAutomaton, Nfa)):
        result = reverse(obj)
    elif args.verb == "dual" and isinstance(obj, MooreAutomaton):
        result = dual_automaton(obj, args.max_states)
    else:
        raise ValueError(f"{args.verb}: unsupported file type")
    sys.stdout.write(emit(result))
    return 0


def _cmd_determinize(args) -> int:
    obj = _load(args.file, args.semiring)
    if isinstance(obj, Nfa):
        sys.stdout.write(emit(determinise(obj, args.max_states)))
        return 0
    if isinstance(obj, WeightedAutomaton) and obj.semiring is BOOL:
        sys.stdout.write(emit(determinise(bool_wa_to_nfa(obj), args.max_states)))
        return 0
    raise ValueError("determinize expects an nfa (or a Boolean weighted automaton)")


def _cmd_reach(args) -> int:
    obj = _load(args.file, args.semiring)
    if isinstance(obj, MooreAutomaton):
        sys.stdout.write(emit(reach(obj)))
    elif isinstance(obj, WeightedAutomaton):
        sys.stdout.write(emit(reach_restrict(obj)))
    else:
        raise ValueError("reach: unsupported file type")
    return 0


def _cmd_minimize(args) -> int:
    obj = _load(args.file, args.semiring)
    method = args.method
    if isinstance(obj, MooreAutomaton):
        if method == "refine":
            sys.stdout.write(emit(partition_refinement_minimise(obj)))
        elif method == "duality":
            if len(obj.outputs) != 2:
                raise ValueError("duality minimisation of a Moore file needs two outputs")
            sys.stdout.write(emit(minimise_dkm(Dkm.from_dfa(obj), args.max_states).to_dfa()))
        else:
            sys.stdout.write(emit(brzozowski_minimise(obj, args.max_states)))
    elif isinstance(obj, WeightedAutomaton):
        if obj.semiring is BOOL:
            # join-semilattices are not PIDs: determinise classically, then double reversal
            sys.stdout.write(emit(brzozowski_minimise(
                determinise(bool_wa_to_nfa(obj), args.max_states), args.max_states)))
        elif method == "refine":
            raise ValueError("refine applies to deterministic automata, not weighted ones")
        else:
            sys.stdout.write(emit(minimise_wa(obj)))
    elif isinstance(obj, AlternatingAutomaton):
        sys.stdout.write(emit(minimal_dfa_for_afa(obj, max_states=args.max_states)))
    elif isinstance(obj, Dkm):
        if method == "refine":
            sys.stdout.write(emit(quotient_dkm(obj, bisimulation_oracle(obj))))
        else:
            sys.stdout.write(emit(minimise_dkm(obj, args.max_states)))
    else:
        raise ValueError("minimize: unsupported file type")
    return 0


def _cmd_equiv(args) -> int:
    a = _load(args.file1, args.semiring)
    b = _load(args.file2, args.semiring)
    bound = None
    if isinstance(a, MooreAutomaton) and isinstance(b, MooreAutomaton):
        verdict = equiv_exact(a, b)
    elif isinstance(a, WeightedAutomaton) and isinstance(b, WeightedAutomaton):
        if a.alphabet != b.alphabet or a.semiring is not b.semiring:
            raise ValueError("equiv: alphabet or semiring mismatch")
        if a.semiring is BOOL:
            verdict = equiv_exact(determinise(bool_wa_to_nfa(a), args.max_states),
                                  determinise(bool_wa_to_nfa(b), args.max_states))
        elif a.semiring.is_ring:
            verdict = equiv_wa(a, b)
        else:
            # tropical equivalence is undecidable (Krob 1994): compare short words only
            bound = args.max_len
            verdict = all(eval_series(a, w) == eval_series(b, w)
                          for w in words_up_to(a.alphabet, bound))
    elif isinstance(a, AlternatingAutomaton) and isinstance(b, AlternatingAutomaton):
        if a.alphabet != b.alphabet:
            raise ValueError("equiv: alphabet mismatch")
        # languages are equal iff their reversals are
        verdict = equiv_exact(reachable_reverse_dfa(a, args.max_states),
                              reachable_reverse_dfa(b, args.max_states))
    else:
        raise ValueError("equiv: files must hold comparable automata")
    suffix = "" if bound is None else f" up to length {bound}"
    print(f"equivalent{suffix}" if verdict else "not equivalent")
    return 0 if verdict else 1


_FORMULA_RE = re.compile(r"^((?:<[^<>]+>)*)([^<>]+)$")


def parse_trace_formula(raw: str) -> TraceFormula:
    m = _FORMULA_RE.match(raw.strip())
    if not m:
        raise ValueError(f"bad trace formula {raw!r} (expected <a><b>obs)")
    word = tuple(re.findall(r"<([^<>]+)>", m.group(1)))
    return TraceFormula(word, m.group(2).strip())


def _as_dkm(obj) -> Dkm:
    if isinstance(obj, Dkm):
        return obj
    if isinstance(obj, MooreAutomaton) and len(obj.outputs) == 2:
        return Dkm.from_dfa(obj)
    raise ValueError("expected a dkm (or dfa) file")


def _cmd_trace_eval(args) -> int:
    k = _as_dkm(_load(args.file))
    formula = parse_trace_formula(args.formula)
    names = k.state_names or tuple(f"s{i}" for i in range(k.n))
    sat = eval_trace(k, formula)
    print(" ".join(names[s] for s in sorted(sat)) if sat else "-")
    return 0


def _cmd_closure(args) -> int:
    k = _as_dkm(_load(args.file))
    names = k.state_names or tuple(f"s{i}" for i in range(k.n))
    family = sorted(definable_closure(k, args.max_states), key=lambda s: (len(s), sorted(s)))
    for subset in family:
        print("{" + ",".join(names[s] for s in sorted(subset)) + "}")
    return 0


def _cmd_hankel(args) -> int:
    obj = _load(args.file, args.semiring)
    if not isinstance(obj, WeightedAutomaton):
        raise ValueError("hankel expects a weighted file")
    print(hankel_rank_oracle(obj, args.length))
    return 0


def _cmd_stats(args) -> int:
    obj = _load(args.file, args.semiring)
    kind = type(obj).__name__
    if isinstance(obj, MooreAutomaton):
        print(f"moore states={obj.n} letters={len(obj.alphabet)} "
              f"outputs={len(obj.outputs)} reachable={reach(obj).n}")
    elif isinstance(obj, Nfa):
        print(f"nfa states={obj.n} letters={len(obj.alphabet)} "
              f"initial={len(obj.inits)} final={len(obj.finals)}")
    elif isinstance(obj, WeightedAutomaton):
        print(f"weighted states={obj.n} letters={len(obj.alphabet)} semiring={obj.semiring.name}")
    elif isinstance(obj, AlternatingAutomaton):
        print(f"afa states={obj.n} letters={len(obj.alphabet)} finals={len(obj.finals)}")
    elif isinstance(obj, Dkm):
        print(f"dkm states={obj.n} letters={len(obj.alphabet)} observations={len(obj.obs)}")
    else:
        raise ValueError(f"stats: unsupported {kind}")
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest(args.seed, args.cases) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dualmin",
                                  description="duality-based automata minimisation toolkit")
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--max-states", type=int, default=None,
                       help="abort constructions beyond this many states")
        p.add_argument("--semiring", default=None,
                       help="override the semiring of a weighted file")
        return p

    p = add("run", _cmd_run, help="evaluate a word")
    p.add_argument("file")
    p.add_argument("-w", "--word", required=True,
                   help="letters concatenated, or comma-separated for multi-char letters")

    for name, fn, hlp in (("reverse", _cmd_reverse, "reverse the automaton"),
                          ("determinize", _cmd_determinize, "subset construction"),
                          ("reach", _cmd_reach, "reachable part / reachable submodule"),
                          ("dual", _cmd_reverse, "dual automaton")):
        p = add(name, fn, help=hlp)
        p.add_argument("file")

    p = add("minimize", _cmd_minimize, help="minimise the automaton")
    p.add_argument("file")
    p.add_argument("--method", choices=("brzozowski", "refine", "duality"),
                   default="brzozowski")

    p = add("equiv", _cmd_equiv, help="compare two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--max-len", type=int, default=6,
                   help="word-length bound for tropical weighted comparison")

    p = add("trace-eval", _cmd_trace_eval, help="evaluate a trace formula on a dkm")
    p.add_argument("file")
    p.add_argument("-f", "--formula", required=True, help="formula like '<a><b>p'")

    p = add("closure", _cmd_closure, help="trace-definable subsets of a dkm")
    p.add_argument("file")

    p = add("hankel", _cmd_hankel, help="rank of the truncated Hankel block")
    p.add_argument("file")
    p.add_argument("-L", "--length", type=int, required=True)

    p = add("stats", _cmd_stats, help="one-line summary of a file")
    p.add_argument("file")

    p = add("selftest", _cmd_selftest, help="run the differential property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        args.max_states = resolve_max_states(args.max_states)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return args.fn(args)
    except StateGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD_EXIT
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
