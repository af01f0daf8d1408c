"""Every verb on every file of tests/data: the exit code, the exact stdout of a
verb that prints lines, the exact error line of a refused call, and the type
and state count of an automaton written as JSON."""

import json

import pytest

from dualmin.cli import main

# column -> the verb's arguments, FILE standing for the fixture
COLUMNS = {
    "run": ("run", "FILE", "-w", "aa"),
    "reverse": ("reverse", "FILE"),
    "determinize": ("determinize", "FILE"),
    "reach": ("reach", "FILE"),
    "dual": ("dual", "FILE"),
    "brzozowski": ("minimize", "FILE", "--method", "brzozowski"),
    "refine": ("minimize", "FILE", "--method", "refine"),
    "duality": ("minimize", "FILE", "--method", "duality"),
    "equiv": ("equiv", "FILE", "FILE"),
    "trace-eval": ("trace-eval", "FILE", "-f", "<a>p"),
    "closure": ("closure", "FILE"),
    "hankel": ("hankel", "FILE", "-L", "2"),
    "stats": ("stats", "FILE"),
}

UNSUPPORTED = "error: {}: unsupported file type\n"
NOT_NFA = "error: determinize expects an nfa (or a Boolean weighted automaton)\n"
NOT_DKM = "error: expected a dkm (or dfa) file\n"
NOT_WEIGHTED = "error: hankel expects a weighted file\n"
NOT_DFA = "error: accepting states need the outputs reject and accept\n"
NO_REFINE = "error: refine applies to deterministic automata, not weighted ones\n"

# fixture -> column -> (exit code, what the call shows): the stderr line of an
# error, "TYPE N" for an automaton of N states written as JSON, else stdout
MATRIX = {
    "afa_conj.json": {
        "run": (0, "reject\n"),
        "reverse": (0, "dfa 4"),
        "determinize": (1, NOT_NFA),
        "reach": (1, UNSUPPORTED.format("reach")),
        "dual": (0, "dfa 1"),
        "brzozowski": (0, "dfa 1"),
        "refine": (1, "error: refine applies to deterministic automata, not alternating ones\n"),
        "duality": (0, "dfa 1"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "afa states=2 letters=1 finals=1\n"),
    },
    "afa_ends_with_a.json": {
        "run": (0, "accept\n"),
        "reverse": (0, "dfa 8"),
        "determinize": (1, NOT_NFA),
        "reach": (1, UNSUPPORTED.format("reach")),
        "dual": (0, "dfa 3"),
        "brzozowski": (0, "dfa 2"),
        "refine": (1, "error: refine applies to deterministic automata, not alternating ones\n"),
        "duality": (0, "dfa 2"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "afa states=3 letters=2 finals=2\n"),
    },
    "bad_wa_dims.json": dict.fromkeys(COLUMNS, (1, "error: transitions.a: matrix must be 2x2\n")),
    "dkm_ends_with_a.json": {
        "run": (0, "p\n"),
        "reverse": (1, UNSUPPORTED.format("reverse")),
        "determinize": (1, NOT_NFA),
        "reach": (1, UNSUPPORTED.format("reach")),
        "dual": (1, UNSUPPORTED.format("dual")),
        "brzozowski": (0, "dkm 2"),
        "refine": (0, "dkm 2"),
        "duality": (0, "dkm 2"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (0, "x y z\n"),
        "closure": (0, "{}\n{y,z}\n{x,y,z}\n"),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "dkm states=3 letters=2 observations=1\n"),
    },
    "ends_with_a.json": {
        "run": (0, "accept\n"),
        "reverse": (0, "nfa 3"),
        "determinize": (1, NOT_NFA),
        "reach": (0, "dfa 3"),
        "dual": (0, "dfa 3"),
        "brzozowski": (0, "dfa 2"),
        "refine": (0, "dfa 2"),
        "duality": (0, "dfa 2"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (0, "x y z\n"),
        "closure": (0, "{}\n{y,z}\n{x,y,z}\n"),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "moore states=3 letters=2 outputs=2 reachable=3\n"),
    },
    "ends_with_a_min.json": {
        "run": (0, "accept\n"),
        "reverse": (0, "nfa 2"),
        "determinize": (1, NOT_NFA),
        "reach": (0, "dfa 2"),
        "dual": (0, "dfa 3"),
        "brzozowski": (0, "dfa 2"),
        "refine": (0, "dfa 2"),
        "duality": (0, "dfa 2"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (0, "u v\n"),
        "closure": (0, "{}\n{v}\n{u,v}\n"),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "moore states=2 letters=2 outputs=2 reachable=2\n"),
    },
    "moore2_accept_first.json": {  # two outputs, but not the DFA's
        "run": (0, "reject\n"),
        "reverse": (1, NOT_DFA),
        "determinize": (1, NOT_NFA),
        "reach": (0, "moore 2"),
        "dual": (0, "moore 2"),
        "brzozowski": (0, "moore 2"),
        "refine": (0, "moore 2"),
        "duality": (0, "moore 2"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "moore states=2 letters=1 outputs=2 reachable=2\n"),
    },
    "moore3.json": {
        "run": (0, "high\n"),
        "reverse": (1, NOT_DFA),
        "determinize": (1, NOT_NFA),
        "reach": (0, "moore 4"),
        "dual": (0, "moore 12"),
        "brzozowski": (0, "moore 4"),
        "refine": (0, "moore 4"),
        "duality": (0, "moore 4"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "moore states=4 letters=2 outputs=3 reachable=4\n"),
    },
    "nfa_small.json": {
        "run": (0, "accept\n"),
        "reverse": (0, "nfa 3"),
        "determinize": (0, "dfa 4"),
        "reach": (1, UNSUPPORTED.format("reach")),
        "dual": (0, "dfa 4"),
        "brzozowski": (0, "dfa 4"),
        "refine": (1, "error: refine applies to deterministic automata, "
                      "not nondeterministic ones\n"),
        "duality": (0, "dfa 4"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (1, NOT_WEIGHTED),
        "stats": (0, "nfa states=3 letters=2 initial=1 final=1\n"),
    },
    "wa_bool.json": {
        "run": (0, "1\n"),
        "reverse": (1, "error: dual_wa needs a ring, got bool\n"),
        "determinize": (0, "dfa 3"),
        "reach": (1, "error: reachable restriction needs a field or PID, got bool\n"),
        "dual": (1, "error: dual_wa needs a ring, got bool\n"),
        "brzozowski": (0, "dfa 3"),
        "refine": (1, NO_REFINE),
        "duality": (0, "dfa 3"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (1, "error: bool: does not embed in the rationals\n"),
        "stats": (0, "weighted states=3 letters=2 semiring=bool\n"),
    },
    "wa_rational.json": {
        "run": (0, "1/1\n"),
        "reverse": (0, "weighted 2"),
        "determinize": (1, NOT_NFA),
        "reach": (0, "weighted 2"),
        "dual": (0, "weighted 2"),
        "brzozowski": (0, "weighted 2"),
        "refine": (1, NO_REFINE),
        "duality": (0, "weighted 2"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (0, "2\n"),
        "stats": (0, "weighted states=2 letters=2 semiring=rational\n"),
    },
    "wa_swap.json": {
        "run": (0, "1\n"),
        "reverse": (0, "weighted 2"),
        "determinize": (1, NOT_NFA),
        "reach": (0, "weighted 2"),
        "dual": (0, "weighted 2"),
        "brzozowski": (0, "weighted 1"),
        "refine": (1, NO_REFINE),
        "duality": (0, "weighted 1"),
        "equiv": (0, "equivalent\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (0, "1\n"),
        "stats": (0, "weighted states=2 letters=1 semiring=int\n"),
    },
    "wa_tropical.json": {
        "run": (0, "6\n"),
        "reverse": (1, "error: dual_wa needs a ring, got tropical\n"),
        "determinize": (1, NOT_NFA),
        "reach": (1, "error: reachable restriction needs a field or PID, got tropical\n"),
        "dual": (1, "error: dual_wa needs a ring, got tropical\n"),
        "brzozowski": (1, "error: dual_wa needs a ring, got tropical\n"),
        "refine": (1, NO_REFINE),
        "duality": (1, "error: dual_wa needs a ring, got tropical\n"),
        "equiv": (0, "equivalent up to length 6\n"),
        "trace-eval": (1, NOT_DKM),
        "closure": (1, NOT_DKM),
        "hankel": (1, "error: tropical: does not embed in the rationals\n"),
        "stats": (0, "weighted states=2 letters=1 semiring=tropical\n"),
    },
}


def observe(capsys, argv) -> tuple[int, str]:
    rc = main(argv)
    out, err = capsys.readouterr()
    if err:
        assert out == ""
        return rc, err
    if out.startswith("{\n"):
        doc = json.loads(out)
        return rc, f"{doc['type']} {len(doc['states'])}"
    return rc, out


def test_the_matrix_covers_every_fixture(data_dir):
    assert sorted(MATRIX) == sorted(p.name for p in data_dir.glob("*.json"))
    assert all(list(row) == list(COLUMNS) for row in MATRIX.values())


@pytest.mark.parametrize("name, column", [(name, column) for name in MATRIX for column in COLUMNS])
def test_verb_on_file(capsys, data_dir, name, column):
    argv = [str(data_dir / name) if a == "FILE" else a for a in COLUMNS[column]]
    assert observe(capsys, argv) == MATRIX[name][column]
