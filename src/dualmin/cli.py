"""Command-line surface tying the library together.

Verbs operate on JSON automaton files (see io.py for the schema).  `main`
reads the files a verb names and hands it the automata; a verb that builds
an automaton returns it, and `main` writes it as JSON on stdout, while a
verb that prints lines returns its exit code.  Exit codes: 0 success (or
"equivalent"), 1 negative verdicts and data errors, 2 usage errors, 3
state-bound guards.  The state bound is `--max-states`, checked like every
numeric flag by argparse; the library's constructions take it as an argument.
This module imports only `io` and `errors`: a verb reads every construction,
and every automaton class, as `dualmin.<name>`, loaded on first use by the
package's name table, so a call loads the code of its file kind and no more
(a weighted call over Q or Z loads no automata.py, and a Boolean one no
linear algebra).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import compress
from operator import methodcaller

import dualmin

from . import io
from .errors import DEFAULT_MAX_STATES, DFA_OUTPUTS, FormatError, StateGuardError, state_labels

GUARD_EXIT = 3


def _load(path: str, semiring: str | None = None):
    with open(path, "rb") as fh:
        return io.parse(fh.read(), semiring)


def _word(raw: str, alphabet) -> tuple[str, ...]:
    """A word that is itself a letter is that one letter; otherwise letters are
    comma-separated, or without a comma each character is a letter."""
    if raw == "":
        return ()
    letters = [raw] if raw in alphabet else raw.split(",") if "," in raw else list(raw)
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
    if obj.kind == "weighted":
        print(io.emit_value(obj.semiring, dualmin.eval_series(obj, word)))
        return 0
    key = (dualmin.afa_accepts(obj, word) if obj.kind == "afa"
           else dualmin.walk(obj.view(), word, obj.alphabet))
    if obj.kind == "dkm":  # the observation set of the state reached
        print(" ".join(map(_shown, sorted(key))) or "-")
    else:  # an output label, or whether the word is accepted
        print(key if obj.kind == "moore" else "accept" if key else "reject")
    return 0


def _cmd_reverse(args, obj):
    """reverse and dual: the two verbs differ on Moore, NFA and AFA files."""
    if obj.kind == "weighted":
        return dualmin.dual_wa(obj)
    if obj.kind not in ("moore", "nfa", "afa"):
        raise ValueError(f"{args.verb}: unsupported file type")
    if args.verb == "dual":
        return dualmin.dual_automaton(obj, args.max_states)
    if obj.kind == "afa":
        return dualmin.reverse_dfa(obj, args.max_states)
    return dualmin.reverse(obj)


def _cmd_determinize(args, obj):
    if obj.kind == "weighted" and obj.semiring.name == "bool":
        obj = dualmin.bool_wa_to_nfa(obj)
    if obj.kind != "nfa":
        raise ValueError("determinize expects an nfa (or a Boolean weighted automaton)")
    return dualmin.determinise(obj, args.max_states)


def _cmd_reach(args, obj):
    if obj.kind == "moore":
        return dualmin.reach(obj)
    if obj.kind == "weighted":
        return dualmin.reach_restrict(obj)
    raise ValueError("reach: unsupported file type")


def _cmd_minimize(args, obj):
    if obj.kind == "dkm":
        return dualmin.minimise_dkm(obj)
    if obj.kind == "moore" and args.method != "brzozowski":
        return dualmin.partition_refinement_minimise(obj)  # the duality atoms
    if args.method == "refine":
        kind = {"weighted": "weighted", "afa": "alternating"}.get(obj.kind, "nondeterministic")
        raise ValueError(f"refine applies to deterministic automata, not {kind} ones")
    if obj.kind == "weighted":
        if obj.semiring.name != "bool":
            return dualmin.minimise_wa(obj)
        obj = dualmin.bool_wa_to_nfa(obj)
    return dualmin.brzozowski_minimise(obj, args.max_states)


def _cmd_equiv(args, a, b) -> int:
    if a.kind != b.kind:
        raise ValueError("equiv: files must hold comparable automata")
    if a.alphabet != b.alphabet:
        raise ValueError("equiv: alphabet mismatch")
    for k, path in ((a, args.file1), (b, args.file2)):
        if k.kind == "dkm" and k.init is None:
            raise ValueError(f"equiv: {path} has no initial state")
    bound = None
    if a.kind == "weighted":
        if a.semiring is not b.semiring:
            raise ValueError("equiv: semiring mismatch")
        if a.semiring.name == "bool":
            a, b = map(dualmin.bool_wa_to_nfa, (a, b))
    if a.kind == "weighted" and a.semiring.is_ring:
        verdict = dualmin.equiv_wa(a, b)
    elif a.kind == "weighted":
        # tropical equivalence is undecidable (Krob 1994): compare short words only
        bound = args.max_len
        words = dualmin.bounded_words(a.alphabet, bound, args.max_states, "tropical comparison")
        verdict = all(dualmin.eval_series(a, w) == dualmin.eval_series(b, w) for w in words)
    else:  # every Boolean kind: one pair walk of the two files' views
        verdict = dualmin.equiv_exact(a, b, args.max_states)
    suffix = "" if bound is None else f" up to length {bound}"
    print(f"equivalent{suffix}" if verdict else "not equivalent")
    return 0 if verdict else 1


_FORMULA_RE = re.compile(r"^((?:<[^<>]+>)*)([^<>]+)$")


def parse_trace_formula(raw: str):
    """The TraceFormula of `<a><b>obs`."""
    m = _FORMULA_RE.match(raw.strip())
    if not m:
        raise ValueError(f"bad trace formula {raw!r} (expected <a><b>obs)")
    word = tuple(re.findall(r"<([^<>]+)>", m.group(1)))
    return dualmin.TraceFormula(word, m.group(2).strip())


def _as_dkm(obj):
    if obj.kind == "dkm":
        return obj
    if obj.kind == "moore" and obj.outputs == DFA_OUTPUTS:
        return dualmin.Dkm.from_dfa(obj)
    raise ValueError("expected a dkm (or dfa) file")


def _cmd_trace_eval(args, obj) -> int:
    k = _as_dkm(obj)
    formula = parse_trace_formula(args.formula)
    names = list(map(_shown, state_labels(k.state_names, k.n)))
    sat = dualmin.eval_trace(k, formula)
    print(" ".join(names[s] for s in sorted(sat)) if sat else "-")
    return 0


def _cmd_closure(args, obj) -> int:
    """The definable sets by size, then by members: of two rows of one size,
    the one holding the first state where they differ comes first, which is
    descending byte order.  Lines go out through io.write_chunks, since with
    stdout unbuffered each print is a system call."""
    k = _as_dkm(obj)
    names = list(map(_shown, state_labels(k.state_names, k.n)))
    rows = dualmin.definable_closure(k, args.max_states)
    rows.sort(reverse=True)
    rows.sort(key=methodcaller("count", 1))
    io.write_chunks(("{" + ",".join(compress(names, row)) + "}\n" for row in rows), sys.stdout)
    return 0


def _cmd_hankel(args, obj) -> int:
    if obj.kind != "weighted":
        raise ValueError("hankel expects a weighted file")
    print(dualmin.hankel_rank_oracle(obj, args.length))
    return 0


# what stats prints of each kind of file after its states and letters
_STATS = {
    "moore": lambda m: f"outputs={len(m.outputs)} reachable={dualmin.reach(m).n}",
    "nfa": lambda n: f"initial={len(n.inits)} final={len(n.finals)}",
    "weighted": lambda w: f"semiring={w.semiring.name}",
    "afa": lambda a: f"finals={len(a.finals)}",
    "dkm": lambda k: f"observations={len(k.obs)}",
}


def _cmd_stats(args, obj) -> int:
    print(f"{obj.kind} states={obj.n} letters={len(obj.alphabet)} {_STATS[obj.kind](obj)}")
    return 0


def _cmd_selftest(args) -> int:
    return 0 if dualmin.run_selftest(args.seed, args.cases) else 1


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
        (("--method",), dict(choices=("brzozowski", "refine", "duality"), help="default: refine "
         "for a dfa or moore file, else brzozowski (a dkm, Q or Z file has one route)"))]),
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
        p.set_defaults(fn=fn, files=files, semiring=None, bounded=bound)
        for dest in files:
            p.add_argument(dest)
        if bound:
            p.add_argument("--max-states", type=_at_least(1), default=DEFAULT_MAX_STATES,
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
