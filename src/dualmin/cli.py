"""Command-line surface tying the library together.

Verbs operate on JSON automaton files (see io.py for the schema).  `main`
reads the files a verb names and hands it the automata; a verb that builds
an automaton returns it, and `main` writes it as JSON on stdout, while a
verb that prints lines returns its exit code.  Exit codes: 0 success (or
"equivalent"), 1 negative verdicts and data errors, 2 usage errors, 3
state-bound guards.  `main` also resolves the state bound, once: the
library's constructions take it as an argument and read no environment.
A verb imports the library module of a construction only on the branch that
runs it, so each call loads the code of the file kind it reads and no more.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import automata, io
from .errors import FormatError, StateGuardError, resolve_max_states

USAGE_EXIT = 2
GUARD_EXIT = 3


def _load(path: str, semiring: str | None = None):
    with open(path, "rb") as fh:
        return io.parse(fh.read(), semiring)


def _word(raw: str, alphabet) -> tuple[str, ...]:
    """Single-character letters concatenate; multi-character letters use commas."""
    if raw == "":
        return ()
    letters = raw.split(",") if "," in raw else list(raw)
    for a in letters:
        if a not in alphabet:
            raise ValueError(f"letter {a!r} is not in the alphabet")
    return tuple(letters)


def _shown(name: str) -> str:
    """A state or observation name as the verbs that list names print it: as
    is, or as a JSON string when it is empty, is "-" or holds whitespace, ",",
    "{", "}" or '"', so that no two different lists print alike."""
    if name in ("", "-") or any(c.isspace() or c in ',{}"' for c in name):
        return json.dumps(name)
    return name


def _cmd_run(args, obj) -> int:
    word = _word(args.word, obj.alphabet)
    if obj.kind == "moore":
        print(obj.outputs[automata.run(obj, word)])
    elif obj.kind == "nfa":
        cur, accepts, step = automata.subsets(obj)
        for a in word:
            cur = step(cur, a)
        print("accept" if accepts(cur) else "reject")
    elif obj.kind == "weighted":
        from .weighted import eval_series
        print(io.emit_value(obj.semiring, eval_series(obj, word)))
    elif obj.kind == "afa":
        from .alternating import afa_accepts
        print("accept" if afa_accepts(obj, word) else "reject")
    else:  # a dkm
        if obj.init is None:
            raise ValueError("this model has no initial state")
        s = obj.init
        for a in word:
            s = obj.delta[a][s]
        print(" ".join(map(_shown, sorted(obj.gamma[s]))) or "-")
    return 0


def _cmd_reverse(args, obj):
    """reverse and dual: the two verbs differ only on Moore and NFA files."""
    if obj.kind == "weighted":
        from .weighted import dual_wa
        return dual_wa(obj)
    if obj.kind == "afa":
        from .alternating import reverse_dfa
        return reverse_dfa(obj, args.max_states)
    if args.verb == "reverse" and obj.kind in ("moore", "nfa"):
        return automata.reverse(obj)
    if args.verb == "dual" and obj.kind == "moore":
        from .brzozowski import dual_automaton
        return dual_automaton(obj, args.max_states)
    raise ValueError(f"{args.verb}: unsupported file type")


def _cmd_determinize(args, obj):
    if obj.kind == "weighted" and obj.semiring.name == "bool":
        from .weighted import bool_wa_to_nfa
        obj = bool_wa_to_nfa(obj)
    if obj.kind != "nfa":
        raise ValueError("determinize expects an nfa (or a Boolean weighted automaton)")
    return automata.determinise(obj, args.max_states)


def _cmd_reach(args, obj):
    if obj.kind == "moore":
        return automata.reach(obj)
    if obj.kind == "weighted":
        from .weighted import reach_restrict
        return reach_restrict(obj)
    raise ValueError("reach: unsupported file type")


def _cmd_minimize(args, obj):
    method, bound = args.method, args.max_states
    if obj.kind == "moore":
        if method != "brzozowski":  # the duality atoms are the stable partition
            return automata.partition_refinement_minimise(obj)
        from .brzozowski import brzozowski_minimise
        return brzozowski_minimise(obj, bound)
    if obj.kind == "weighted":
        if method == "refine":
            raise ValueError("refine applies to deterministic automata, not weighted ones")
        if obj.semiring.name == "bool":
            # join-semilattices are not PIDs: determinise classically, then double
            # reversal, whose unnamed first pass reads no subset names, so none are built
            from .brzozowski import brzozowski_minimise
            from .weighted import bool_wa_to_nfa
            nfa = bool_wa_to_nfa(obj)
            dfa = automata.subset_dfa(nfa, automata.subsets(nfa), bound, named=False)
            return brzozowski_minimise(dfa, bound)
        from .weighted import minimise_wa
        return minimise_wa(obj)
    if obj.kind == "afa":
        if method == "refine":
            raise ValueError("refine applies to deterministic automata, not alternating ones")
        from .alternating import minimal_dfa_for_afa
        return minimal_dfa_for_afa(obj, bound)
    if obj.kind == "dkm":
        from .dkm import minimise_dkm
        return minimise_dkm(obj)
    raise ValueError("minimize: unsupported file type")


def _cmd_equiv(args, a, b) -> int:
    if a.kind != b.kind:
        raise ValueError("equiv: files must hold comparable automata")
    if a.alphabet != b.alphabet:
        raise ValueError("equiv: alphabet mismatch")
    bound = None
    if a.kind == "weighted":
        if a.semiring is not b.semiring:
            raise ValueError("equiv: semiring mismatch")
        if a.semiring.name == "bool":
            from .weighted import bool_wa_to_nfa
            a, b = bool_wa_to_nfa(a), bool_wa_to_nfa(b)
    if a.kind == "moore":
        verdict = automata.equiv_exact(a, b, args.max_states)
    elif a.kind == "weighted" and a.semiring.is_ring:
        from .weighted import equiv_wa
        verdict = equiv_wa(a, b)
    elif a.kind == "weighted":
        # tropical equivalence is undecidable (Krob 1994): compare short words only
        from .weighted import eval_series
        bound = args.max_len
        words = automata.bounded_words(a.alphabet, bound, args.max_states, "tropical comparison")
        verdict = all(eval_series(a, w) == eval_series(b, w) for w in words)
    else:
        # one walk over reachable pairs: of NFA subsets, of AFA reversed-DFA
        # subsets (equal languages have equal reversals), or of DKM states
        if a.kind == "nfa":
            first, second = map(automata.subsets, (a, b))
        elif a.kind == "afa":
            from .alternating import reversed_subsets
            first, second = (reversed_subsets(k, args.max_states) for k in (a, b))
        else:
            for k, path in ((a, args.file1), (b, args.file2)):
                if k.init is None:
                    raise ValueError(f"equiv: {path} has no initial state")
            first, second = (automata.by_rows(k.init, k.gamma, k.delta) for k in (a, b))
        verdict = automata.pair_walk(first, second, a.alphabet, args.max_states)
    suffix = "" if bound is None else f" up to length {bound}"
    print(f"equivalent{suffix}" if verdict else "not equivalent")
    return 0 if verdict else 1


_FORMULA_RE = re.compile(r"^((?:<[^<>]+>)*)([^<>]+)$")


def parse_trace_formula(raw: str):
    """The TraceFormula of `<a><b>obs`."""
    from .dkm import TraceFormula
    m = _FORMULA_RE.match(raw.strip())
    if not m:
        raise ValueError(f"bad trace formula {raw!r} (expected <a><b>obs)")
    word = tuple(re.findall(r"<([^<>]+)>", m.group(1)))
    return TraceFormula(word, m.group(2).strip())


def _as_dkm(obj):
    from .dkm import Dkm
    if obj.kind == "dkm":
        return obj
    if obj.kind == "moore" and len(obj.outputs) == 2:
        return Dkm.from_dfa(obj)
    raise ValueError("expected a dkm (or dfa) file")


def _cmd_trace_eval(args, obj) -> int:
    from .dkm import eval_trace
    k = _as_dkm(obj)
    formula = parse_trace_formula(args.formula)
    names = list(map(_shown, automata.state_labels(k.state_names, k.n)))
    sat = eval_trace(k, formula)
    print(" ".join(names[s] for s in sorted(sat)) if sat else "-")
    return 0


def _cmd_closure(args, obj) -> int:
    from .dkm import definable_closure
    k = _as_dkm(obj)
    names = list(map(_shown, automata.state_labels(k.state_names, k.n)))
    family = sorted(definable_closure(k, args.max_states), key=lambda s: (len(s), sorted(s)))
    for subset in family:
        print("{" + ",".join(names[s] for s in sorted(subset)) + "}")
    return 0


def _cmd_hankel(args, obj) -> int:
    if obj.kind != "weighted":
        raise ValueError("hankel expects a weighted file")
    from .weighted import hankel_rank_oracle
    print(hankel_rank_oracle(obj, args.length))
    return 0


# what stats prints of each kind of file after its states and letters
_STATS = {
    "moore": lambda m: f"outputs={len(m.outputs)} reachable={automata.reach(m).n}",
    "nfa": lambda n: f"initial={len(n.inits)} final={len(n.finals)}",
    "weighted": lambda w: f"semiring={w.semiring.name}",
    "afa": lambda a: f"finals={len(a.finals)}",
    "dkm": lambda k: f"observations={len(k.obs)}",
}


def _cmd_stats(args, obj) -> int:
    print(f"{obj.kind} states={obj.n} letters={len(obj.alphabet)} {_STATS[obj.kind](obj)}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return 0 if run_selftest(args.seed, args.cases) else 1


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def check(raw: str) -> int:
        if int(raw) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {raw}")
        return int(raw)
    check.__name__ = "int"  # argparse's message for a non-integer: "invalid int value"
    return check


# each verb: (its function, its help, its file positionals, whether it takes
# --max-states and --semiring, and its own flags as add_argument arguments)
_VERBS = {
    "run": (_cmd_run, "evaluate a word", ("file",), False, True, [
        (("-w", "--word"), dict(required=True, help="letters concatenated, or "
                                "comma-separated for multi-char letters"))]),
    "reverse": (_cmd_reverse, "reverse the automaton", ("file",), True, True, []),
    "determinize": (_cmd_determinize, "subset construction", ("file",), True, True, []),
    "reach": (_cmd_reach, "reachable part / reachable submodule", ("file",), False, True, []),
    "dual": (_cmd_reverse, "dual automaton", ("file",), True, True, []),
    "minimize": (_cmd_minimize, "minimise the automaton", ("file",), True, True, [
        (("--method",), dict(choices=("brzozowski", "refine", "duality"),
                             default="brzozowski"))]),
    "equiv": (_cmd_equiv, "compare two automata", ("file1", "file2"), True, True, [
        (("--max-len",), dict(type=_at_least(0), default=6,
                              help="word-length bound for tropical weighted comparison"))]),
    "trace-eval": (_cmd_trace_eval, "evaluate a trace formula on a dkm", ("file",), False,
                   False, [(("-f", "--formula"), dict(required=True,
                                                     help="formula like '<a><b>p'"))]),
    "closure": (_cmd_closure, "trace-definable subsets of a dkm", ("file",), True, False, []),
    "hankel": (_cmd_hankel, "rank of the truncated Hankel block", ("file",), False, True, [
        (("-L", "--length"), dict(type=_at_least(0), required=True))]),
    "stats": (_cmd_stats, "one-line summary of a file", ("file",), False, True, []),
    "selftest": (_cmd_selftest, "run the differential property suites", (), False, False, [
        (("--seed",), dict(type=int, default=0)),
        (("--cases",), dict(type=_at_least(1), default=50))]),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or only of `verb` when it names one: a call
    parses one verb, and the usage line still lists them all."""
    top = argparse.ArgumentParser(prog="dualmin",
                                  description="duality-based automata minimisation toolkit")
    one = verb in _VERBS
    sub = top.add_subparsers(dest="verb", required=True,
                             metavar="{" + ",".join(_VERBS) + "}" if one else None)
    for name, (fn, hlp, files, bound, semiring, flags) in _VERBS.items():
        if one and name != verb:
            continue
        p = sub.add_parser(name, help=hlp)
        p.set_defaults(fn=fn, files=files, max_states=None, semiring=None, bounded=bound)
        for dest in files:
            p.add_argument(dest)
        if bound:
            p.add_argument("--max-states", type=int, default=None,
                           help="abort constructions beyond this many states")
        if semiring:
            p.add_argument("--semiring", default=None,
                           help="override the semiring of a weighted file")
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
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
        result = args.fn(args, *(_load(getattr(args, dest), args.semiring)
                                 for dest in args.files))
        if isinstance(result, int):  # a verb that printed its lines: its exit code
            return result
        io.emit(result, sys.stdout)
        return 0
    except BrokenPipeError:
        # the reader closed stdout early (`dualmin ... | head`): stop quietly,
        # and point stdout at devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except StateGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD_EXIT
    except (MemoryError, SystemError) as exc:
        # near an address-space cap CPython may raise SystemError instead;
        # advice only where the verb takes the bound
        what = f" ({exc!r})" if isinstance(exc, SystemError) else ""
        advice = "; lower --max-states" if args.bounded else ""
        print(f"error: out of memory{what}{advice}", file=sys.stderr)
        return GUARD_EXIT
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
