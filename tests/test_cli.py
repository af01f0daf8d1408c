import json
import os
import pathlib
import random
import subprocess
import sys
import time
from decimal import Decimal

import pytest

from dualmin import (BOOL, Dkm, IntegerBasis, MooreAutomaton, bisimulation_oracle,
                     bool_wa_to_nfa, boolean_atoms, definable_closure, determinise, emit, io,
                     parse, partition_refinement_minimise, reverse, run, selftest)
from dualmin.automata import state_labels
from dualmin.cli import build_parser, main, parse_trace_formula
from dualmin.errors import DEFAULT_MAX_STATES
from dualmin.io import _CHUNK_CHARS
from dualmin.sampling import random_afa, random_dfa, random_dkm, random_moore, random_wa

from oracles import (afa_reverse_dfa_by_tables, closure_by_preimages, closure_text_by_sets,
                     determinise_by_sets, iso_check, random_nfa, replace, row_sets)


def invoke(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_minimize_brzozowski(capsys, data_dir):
    rc, out, _ = invoke(capsys, "minimize", str(data_dir / "ends_with_a.json"),
                        "--method", "brzozowski")
    assert rc == 0
    result = parse(out)
    assert result.n == 2
    assert iso_check(result, parse((data_dir / "ends_with_a_min.json").read_bytes()))


# every route of minimize for a DFA or Moore file: the default, then each method
ROUTES = ((), ("--method", "brzozowski"), ("--method", "refine"), ("--method", "duality"))


def _emitted_by_every_route(capsys, path) -> set[str]:
    outs = set()
    for route in ROUTES:
        rc, out, err = invoke(capsys, "minimize", str(path), *route)
        assert (rc, err) == (0, "")
        outs.add(out)
    return outs


def test_minimize_methods_agree(capsys, data_dir):
    outs = _emitted_by_every_route(capsys, data_dir / "ends_with_a.json")
    assert len(outs) == 1 and parse(outs.pop()).n == 2


def test_minimize_methods_agree_on_moore(capsys, data_dir):
    outs = _emitted_by_every_route(capsys, data_dir / "moore3.json")
    assert len(outs) == 1 and parse(outs.pop()).outputs == ("low", "mid", "high")


def test_every_minimize_route_prints_the_same_bytes(capsys, tmp_path):
    """The double reversal names neither pass, so it prints the canonical
    minimal automaton, states numbered breadth first, as refinement does."""
    rng = random.Random(11)
    path = tmp_path / "m.json"
    for i in range(200):
        m = random_dfa(rng, max_n=10) if i % 2 else random_moore(rng, max_n=10)
        if i % 3 == 0:  # a named file: no route keeps its names
            m = replace(m, state_names=tuple(f"q{s}" for s in range(m.n)))
        path.write_text(emit(m))
        assert _emitted_by_every_route(capsys, path) == {emit(partition_refinement_minimise(m))}


def test_minimize_of_each_nondeterministic_kind_is_the_refined_subset_dfa(capsys, tmp_path):
    """NFA, Boolean weighted and AFA files take the double reversal, and print
    what refinement prints of their determinisation (of an AFA's, the subset
    DFA of its reversed DFA's reversal), byte for byte."""
    rng = random.Random(12)
    path = tmp_path / "x.json"
    for i in range(120):
        kind = i % 3
        if kind == 0:
            x = random_nfa(rng, max_n=7)
            subsets = determinise_by_sets(x)
        elif kind == 1:
            x = random_wa(rng, BOOL, max_n=5)
            subsets = determinise_by_sets(bool_wa_to_nfa(x))
        else:
            x = random_afa(rng, max_n=4)
            subsets = determinise_by_sets(reverse(afa_reverse_dfa_by_tables(x)))
        path.write_text(emit(x))
        expected = emit(partition_refinement_minimise(subsets))
        for route in ((), ("--method", "brzozowski"), ("--method", "duality")):
            assert invoke(capsys, "minimize", str(path), *route) == (0, expected, "")


def test_duality_quotients_only_the_reachable_part(capsys, tmp_path):
    # x loops on a; y and z swap on a but cannot be reached
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps({
        "type": "dfa", "alphabet": ["a"], "states": ["x", "y", "z"], "initial": "x",
        "transitions": {"a": {"x": "x", "y": "z", "z": "y"}}, "finals": ["y"]}))
    outs = _emitted_by_every_route(capsys, path)
    assert len(outs) == 1 and parse(outs.pop()).n == 1


def test_duality_keeps_moore_labels(capsys, tmp_path):
    path = tmp_path / "lohi.json"
    path.write_text(json.dumps({
        "type": "moore", "alphabet": ["a"], "states": ["s0", "s1", "s2"], "initial": "s0",
        "transitions": {"a": {"s0": "s1", "s1": "s0", "s2": "s2"}},
        "outputs": ["lo", "hi"], "out": {"s0": "lo", "s1": "hi", "s2": "hi"}}))
    rc, out, _ = invoke(capsys, "minimize", str(path), "--method", "duality")
    assert rc == 0 and json.loads(out)["type"] == "moore"
    assert parse(out).outputs == ("lo", "hi")


def test_minimize_methods_agree_with_unreachable_states(capsys, tmp_path):
    rng = random.Random(11)
    path = tmp_path / "m.json"
    for i in range(200):
        # states n.. are never entered from 0..n-1, so they are unreachable
        n, extra = rng.randint(1, 6), rng.randint(1, 3)
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        trans = {a: tuple(rng.randrange(n) for _ in range(n))
                 + tuple(rng.randrange(n + extra) for _ in range(extra)) for a in alphabet}
        outputs = ("reject", "accept") if i % 2 else ("lo", "hi")
        out = tuple(rng.randrange(2) for _ in range(n + extra))
        m = MooreAutomaton(n + extra, alphabet, trans, rng.randrange(n), out, outputs)
        path.write_text(emit(m))
        outs = _emitted_by_every_route(capsys, path)
        assert len(outs) == 1
        minimal = parse(outs.pop())
        assert minimal.n <= n and minimal.outputs == outputs


def test_equiv_verdicts(capsys, data_dir):
    rc, out, _ = invoke(capsys, "equiv", str(data_dir / "ends_with_a.json"),
                        str(data_dir / "ends_with_a_min.json"))
    assert rc == 0 and out.strip() == "equivalent"
    rc, out, _ = invoke(capsys, "equiv", str(data_dir / "ends_with_a.json"),
                        str(data_dir / "moore3.json"))
    assert rc == 1  # a 3-output Moore file: its reachable outputs differ, "not equivalent"


def test_equiv_moore_ignores_outputs_no_reachable_state_shows(capsys, data_dir, tmp_path):
    path = tmp_path / "ends_with_a_moore.json"
    doc = json.loads((data_dir / "ends_with_a.json").read_text())
    del doc["finals"]
    path.write_text(json.dumps(dict(doc, type="moore", outputs=["reject", "accept", "never"],
                                    out={"x": "reject", "y": "accept", "z": "accept"})))
    assert invoke(capsys, "equiv", str(data_dir / "ends_with_a.json"), str(path)) == \
        (0, "equivalent\n", "")
    assert invoke(capsys, "equiv", str(path), str(data_dir / "ends_with_a_min.json")) == \
        (0, "equivalent\n", "")


def test_equiv_moore_reads_outputs_by_label_not_by_position(capsys, tmp_path):
    def moore(outputs, out):
        path = tmp_path / f"{''.join(outputs)}_{out['p']}.json"
        path.write_text(json.dumps({
            "type": "moore", "alphabet": ["a"], "states": ["p", "q"], "initial": "p",
            "transitions": {"a": {"p": "q", "q": "p"}}, "outputs": outputs, "out": out}))
        return str(path)

    xy = moore(["x", "y"], {"p": "x", "q": "y"})
    # the same machine with its outputs listed in the other order
    assert invoke(capsys, "equiv", xy, moore(["y", "x"], {"p": "x", "q": "y"})) == \
        (0, "equivalent\n", "")
    # the same output indices, but the labels swapped
    assert invoke(capsys, "equiv", xy, moore(["y", "x"], {"p": "y", "q": "x"})) == \
        (1, "not equivalent\n", "")


def test_equiv_dkm(capsys, data_dir, tmp_path):
    path = data_dir / "dkm_ends_with_a.json"
    rc, out, _ = invoke(capsys, "equiv", str(path), str(path))
    assert rc == 0 and out.strip() == "equivalent"
    doc = json.loads(path.read_text())
    doc["gamma"]["x"] = ["p"]  # x observes p too: the empty word now tells them apart
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    rc, out, _ = invoke(capsys, "equiv", str(path), str(other))
    assert rc == 1 and out.strip() == "not equivalent"
    # the minimal model of the same behaviour: y and z merged
    rc, out, _ = invoke(capsys, "minimize", str(path))
    small = tmp_path / "small.json"
    small.write_text(out)
    rc, out, _ = invoke(capsys, "equiv", str(small), str(path))
    assert rc == 0 and out.strip() == "equivalent"


def test_equiv_dkm_data_errors(capsys, data_dir, tmp_path):
    path = data_dir / "dkm_ends_with_a.json"
    doc = json.loads(path.read_text())
    del doc["initial"]
    rootless = tmp_path / "rootless.json"
    rootless.write_text(json.dumps(doc))
    rc, out, err = invoke(capsys, "equiv", str(path), str(rootless))
    assert rc == 1 and out == "" and str(rootless) in err and "no initial state" in err
    doc = json.loads(path.read_text())
    doc["alphabet"] = ["a", "b", "c"]
    doc["transitions"]["c"] = {"x": "x", "y": "y", "z": "z"}
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps(doc))
    rc, out, err = invoke(capsys, "equiv", str(path), str(wider))
    assert rc == 1 and out == "" and "alphabet mismatch" in err


@pytest.mark.parametrize("argv, error", [
    (("equiv", "ends_with_a.json", "nfa_small.json"),
     "equiv: files must hold comparable automata"),
    (("equiv", "wa_swap.json", "wa_tropical.json"), "equiv: semiring mismatch"),
], ids=["dfa and nfa", "int and tropical"])
def test_equiv_refuses_files_it_cannot_compare(capsys, data_dir, argv, error):
    assert invoke(capsys, *_argv(data_dir, argv)) == (1, "", f"error: {error}\n")


def test_run_needs_an_initial_state(capsys, data_dir, tmp_path):
    doc = json.loads((data_dir / "dkm_ends_with_a.json").read_text())
    del doc["initial"]
    rootless = tmp_path / "rootless.json"
    rootless.write_text(json.dumps(doc))
    rc, out, err = invoke(capsys, "run", str(rootless), "-w", "a")
    assert (rc, out, err) == (1, "", "error: this model has no initial state\n")


def test_run_words(capsys, data_dir, tmp_path):
    rc, out, _ = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "ba")
    assert rc == 0 and out.strip() == "accept"
    rc, out, _ = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "")
    assert rc == 0 and out.strip() == "reject"
    rc, out, _ = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "b,a")
    assert rc == 0 and out.strip() == "accept"
    rc, out, _ = invoke(capsys, "run", str(data_dir / "wa_swap.json"), "-w", "aa")
    assert rc == 0 and out.strip() == "1"
    # over multi-character letters: a word that is itself a letter is that letter
    path = tmp_path / "go_up.json"
    path.write_text(json.dumps({
        "type": "dfa", "alphabet": ["go", "up"], "states": ["home", "out"], "initial": "home",
        "transitions": {"go": {"home": "out", "out": "out"},
                        "up": {"home": "home", "out": "home"}},
        "finals": ["out"]}))
    for word, expected in [("go", (0, "accept\n", "")), ("up", (0, "reject\n", "")),
                           ("go,up", (0, "reject\n", "")), ("up,go", (0, "accept\n", "")),
                           ("", (0, "reject\n", "")),
                           ("goup", (1, "", "error: letter 'g' is not in the alphabet\n")),
                           ("go,", (1, "", "error: letter '' is not in the alphabet\n"))]:
        assert invoke(capsys, "run", str(path), "-w", word) == expected, word


def test_reverse_and_determinize(capsys, data_dir):
    rc, out, _ = invoke(capsys, "reverse", str(data_dir / "ends_with_a.json"))
    assert rc == 0
    doc = json.loads(out)
    assert doc["type"] == "nfa"
    assert sorted(doc["initial"]) == ["y", "z"]
    rc, out2, _ = invoke(capsys, "determinize", str(data_dir / "nfa_small.json"))
    assert rc == 0
    assert json.loads(out2)["type"] == "dfa"


def test_dual_weighted_and_reach(capsys, data_dir):
    rc, out, _ = invoke(capsys, "dual", str(data_dir / "wa_swap.json"))
    assert rc == 0
    doc = json.loads(out)
    assert doc["initial"] == [1, 1] and doc["final"] == [1, 0]
    rc, out, _ = invoke(capsys, "reach", str(data_dir / "wa_swap.json"))
    assert rc == 0
    assert len(json.loads(out)["states"]) == 2


def test_minimize_weighted_duality(capsys, data_dir):
    rc, out, _ = invoke(capsys, "minimize", str(data_dir / "wa_swap.json"),
                        "--method", "duality")
    assert rc == 0
    doc = json.loads(out)
    assert doc["type"] == "weighted"
    assert doc["states"] == ["s0"]
    assert doc["initial"] == [1] and doc["final"] == [1]


def test_minimize_boolean_weighted_routes_through_determinisation(capsys, data_dir):
    rc, out, _ = invoke(capsys, "minimize", str(data_dir / "wa_bool.json"))
    assert rc == 0
    assert json.loads(out)["type"] == "dfa"


@pytest.mark.parametrize("name, kind", [("wa_rational.json", "weighted"),
                                        ("wa_bool.json", "weighted"),
                                        ("afa_ends_with_a.json", "alternating")])
def test_minimize_refine_is_refused_where_it_does_not_apply(capsys, data_dir, name, kind):
    rc, out, err = invoke(capsys, "minimize", str(data_dir / name), "--method", "refine")
    assert rc == 1 and out == ""
    assert err == f"error: refine applies to deterministic automata, not {kind} ones\n"


@pytest.mark.parametrize("name", ["wa_bool.json", "afa_ends_with_a.json"])
def test_minimize_brzozowski_and_duality_agree(capsys, data_dir, name):
    outs = set()
    for method in ("brzozowski", "duality"):
        rc, out, _ = invoke(capsys, "minimize", str(data_dir / name), "--method", method)
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1 and json.loads(outs.pop())["type"] == "dfa"


def test_hankel(capsys, data_dir):
    rc, out, _ = invoke(capsys, "hankel", str(data_dir / "wa_swap.json"), "-L", "2")
    assert rc == 0 and out.strip() == "1"


def test_hankel_refuses_boolean_files(capsys, tmp_path):
    """The series 0, 1, 1, 1, ... has Hankel rank 2 and a 2-state minimal DFA;
    read over Q the same matrices count paths, 0, 1, 2, 3, ..., of rank 3.
    A file with no states is refused too: the refusal reads the semiring,
    not a value."""
    path = tmp_path / "paths.json"
    path.write_text(json.dumps({
        "type": "weighted", "semiring": "bool", "alphabet": ["a"], "states": ["x", "y", "z"],
        "initial": [0, 0, 1], "final": [1, 0, 0],
        "transitions": {"a": [[1, 1, 1], [0, 1, 1], [0, 0, 1]]}}))
    rc, out, err = invoke(capsys, "hankel", str(path), "-L", "4")
    assert (rc, out, err) == (1, "", "error: bool: does not embed in the rationals\n")
    rc, out, _ = invoke(capsys, "minimize", str(path))
    assert rc == 0 and parse(out).n == 2
    for semiring in ("bool", "tropical"):
        empty = tmp_path / f"empty_{semiring}.json"
        empty.write_text(json.dumps({
            "type": "weighted", "semiring": semiring, "alphabet": ["a"], "states": [],
            "initial": [], "final": [], "transitions": {"a": []}}))
        rc, out, err = invoke(capsys, "hankel", str(empty), "-L", "2")
        assert (rc, out, err) == (1, "", f"error: {semiring}: does not embed in the rationals\n")


def test_hankel_needs_no_bound_on_its_words(capsys, data_dir):
    path = str(data_dir / "wa_rational.json")  # 2**31 - 1 words up to length 30
    rc, out, _ = invoke(capsys, "hankel", path, "-L", "30")
    assert rc == 0 and out.strip() == "2"
    # the spans stop growing at length 1, so any length returns at once
    start = time.perf_counter()
    rc, out, _ = invoke(capsys, "hankel", path, "-L", str(10**9))
    assert rc == 0 and out.strip() == "2" and time.perf_counter() - start < 5


def test_equiv_weighted_bounded(capsys, data_dir, tmp_path):
    rc, out, _ = invoke(capsys, "minimize", str(data_dir / "wa_swap.json"))
    assert rc == 0
    small = tmp_path / "minimal.json"
    small.write_text(out)
    rc, out, _ = invoke(capsys, "equiv", str(data_dir / "wa_swap.json"), str(small),
                        "--max-len", "8")
    assert rc == 0 and out.strip() == "equivalent"
    rc, out, _ = invoke(capsys, "equiv", str(data_dir / "wa_swap.json"),
                        str(data_dir / "wa_rational.json"))
    assert rc == 1  # different alphabets and semirings: data error


def test_equiv_afa_is_exact_beyond_max_len(capsys, tmp_path):
    # "#a = 0 mod 7" and "no a" first differ at aaaaaaa, past the default --max-len
    mod7 = [f"m{i}" for i in range(7)]
    counter = {"type": "afa", "alphabet": ["a", "b"], "states": mod7, "finals": ["m0"],
               "iota": "m0",
               "transitions": {"a": {s: mod7[(i + 1) % 7] for i, s in enumerate(mod7)},
                               "b": {s: s for s in mod7}}}
    no_a = {"type": "afa", "alphabet": ["a", "b"], "states": ["z"], "finals": ["z"],
            "iota": "z", "transitions": {"a": {"z": "false"}, "b": {"z": "z"}}}
    paths = []
    for name, doc in (("mod7.json", counter), ("no_a.json", no_a)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    rc, out, _ = invoke(capsys, "equiv", *map(str, paths))
    assert rc == 1 and out.strip() == "not equivalent"
    rc, out, _ = invoke(capsys, "equiv", str(paths[0]), str(paths[0]))
    assert rc == 0 and out.strip() == "equivalent"
    # the bound counts the stored pairs of reachable subsets, not the 2^7 subsets
    rc, out, _ = invoke(capsys, "equiv", *map(str, paths), "--max-states", "64")
    assert rc == 1 and out.strip() == "not equivalent"
    rc, _, err = invoke(capsys, "equiv", *map(str, paths), "--max-states", "2")
    assert rc == 3 and err == "error: the pair walk stores more than 2 pairs; raise --max-states\n"


def test_states_named_like_keywords_are_read_as_states(capsys, tmp_path):
    # "True" is a state here, not the constant: the AFA accepts the odd-length words
    doc = {"type": "afa", "alphabet": ["a"], "states": ["True", "x"], "finals": ["x"],
           "iota": "True", "transitions": {"a": {"True": "x", "x": "True"}}}
    path = tmp_path / "keyword.json"
    for keyword in ("True", "None"):
        path.write_text(json.dumps(doc).replace('"True"', f'"{keyword}"'))
        for length in range(5):
            rc, out, _ = invoke(capsys, "run", str(path), "-w", "a" * length)
            assert rc == 0 and out.strip() == ("accept" if length % 2 else "reject")
        rc, out, _ = invoke(capsys, "minimize", str(path))
        minimal = parse(out)
        assert rc == 0 and minimal.n == 2
        assert [run(minimal, ("a",) * length) for length in range(5)] == [0, 1, 0, 1, 0]


def test_run_writes_exact_values_of_any_length(capsys, tmp_path):
    """2**15000 has 4,516 digits, past the interpreter's limit on converting
    an int to text, which guards parsing only: a computed value is written in
    full."""
    for semiring, weight, prefix in (("int", 2, ""), ("rational", "1/2", "1/")):
        path = tmp_path / f"{semiring}.json"
        path.write_text(json.dumps({
            "type": "weighted", "semiring": semiring, "alphabet": ["a"], "states": ["q"],
            "initial": [1], "final": [1], "transitions": {"a": [[weight]]}}))
        rc, out, err = invoke(capsys, "run", str(path), "-w", "a" * 15000)
        assert (rc, err) == (0, "") and out.startswith(prefix) and out.endswith("\n")
        digits = out[len(prefix):-1]
        assert len(digits) == 4516 and Decimal(digits) == 2 ** 15000


def _shift_chain(semiring, weight):
    """Series `weight` at aaaaaaa and zero elsewhere, past the default --max-len."""
    return {"type": "weighted", "semiring": semiring, "alphabet": ["a", "b"],
            "states": [f"s{i}" for i in range(8)],
            "initial": [1] + [0] * 7, "final": [0] * 7 + [weight],
            "transitions": {"a": [[int(y == x + 1) for x in range(8)] for y in range(8)],
                            "b": [[0] * 8 for _ in range(8)]}}


@pytest.mark.parametrize("semiring, weight", [("int", 1), ("rational", "1/2"), ("bool", 1)])
def test_equiv_weighted_is_exact_beyond_max_len(capsys, tmp_path, semiring, weight):
    zero = {"type": "weighted", "semiring": semiring, "alphabet": ["a", "b"],
            "states": ["z"], "initial": [0], "final": [0],
            "transitions": {"a": [[0]], "b": [[0]]}}
    paths = []
    for name, doc in (("shift8.json", _shift_chain(semiring, weight)), ("zero.json", zero)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    rc, out, _ = invoke(capsys, "equiv", *map(str, paths))
    assert rc == 1 and out.strip() == "not equivalent"
    rc, out, _ = invoke(capsys, "equiv", str(paths[0]), str(paths[0]))
    assert rc == 0 and out.strip() == "equivalent"


def test_equiv_rational_against_its_minimisation(capsys, data_dir, tmp_path):
    rc, out, _ = invoke(capsys, "minimize", str(data_dir / "wa_rational.json"))
    assert rc == 0
    small = tmp_path / "minimal.json"
    small.write_text(out)
    rc, out, _ = invoke(capsys, "equiv", str(data_dir / "wa_rational.json"), str(small))
    assert rc == 0 and out.strip() == "equivalent"


def test_equiv_boolean_obeys_max_states(capsys, data_dir):
    path = str(data_dir / "wa_bool.json")
    rc, out, _ = invoke(capsys, "equiv", path, path)
    assert rc == 0 and out.strip() == "equivalent"
    rc, _, err = invoke(capsys, "equiv", path, path, "--max-states", "1")
    assert rc == 3 and "max-states" in err


def _nfa_doc(**extra_arcs):
    """Words ending in `aa` then any b's, with the arcs in `extra_arcs` added
    (letter -> {state: [targets]})."""
    trans = {"a": {"p": ["p", "q"], "q": ["r"]}, "b": {"p": ["p"], "r": ["r"]}}
    for a, row in extra_arcs.items():
        for state, targets in row.items():
            trans[a][state] = trans[a].get(state, []) + targets
    return {"type": "nfa", "alphabet": ["a", "b"], "states": ["p", "q", "r", "t"],
            "initial": ["p"], "transitions": trans, "finals": ["r", "t"]}


def test_equiv_nfa_is_exact(capsys, data_dir, tmp_path):
    small = str(data_dir / "nfa_small.json")
    same = tmp_path / "same.json"  # a second final state reached like r
    same.write_text(json.dumps(_nfa_doc(a={"q": ["t"]}, b={"t": ["t"]})))
    more = tmp_path / "more.json"  # r also loops on a: aaba is accepted
    more.write_text(json.dumps(_nfa_doc(a={"r": ["r"]})))
    rc, out, _ = invoke(capsys, "equiv", small, str(same))
    assert rc == 0 and out.strip() == "equivalent"
    rc, out, _ = invoke(capsys, "equiv", small, str(more))
    assert rc == 1 and out.strip() == "not equivalent"
    rc, out, err = invoke(capsys, "equiv", small, str(same), "--max-states", "1")
    assert rc == 3 and out == "" and "max-states" in err


def _counter(kind, n):
    """Words with an even number of a's, counted modulo the even number n."""
    states = [f"c{i}" for i in range(n)]
    step = {s: states[(i + 1) % n] for i, s in enumerate(states)}
    doc = {"type": kind, "alphabet": ["a"], "states": states, "finals": states[::2]}
    if kind == "dfa":
        return {**doc, "initial": states[0], "transitions": {"a": step}}
    return {**doc, "initial": states[:1],
            "transitions": {"a": {s: [t] for s, t in step.items()}}}


@pytest.mark.parametrize("kind", ["dfa", "nfa"])
def test_equiv_bounds_the_pairs_it_stores(capsys, tmp_path, kind):
    # 4 and 6 states (or subsets) each, 12 reachable pairs: the bound 6
    # admits each file but not the pairs
    paths = []
    for n in (4, 6):
        paths.append(tmp_path / f"mod{n}.json")
        paths[-1].write_text(json.dumps(_counter(kind, n)))
    rc, out, _ = invoke(capsys, "equiv", *map(str, paths))
    assert rc == 0 and out.strip() == "equivalent"
    rc, out, err = invoke(capsys, "equiv", *map(str, paths), "--max-states", "6")
    assert rc == 3 and out == "" and "max-states" in err


def _kth_from_end(k: int, prefix: str, reverse: bool = False) -> dict:
    """The k+1-state NFA of the words whose k-th letter from the end is a,
    its states named prefix0..prefixk and listed in reverse if asked."""
    names = [f"{prefix}{i}" for i in range(k + 1)]
    trans = {a: {names[0]: [names[0]] + ([names[1]] if a == "a" else [])} for a in "ab"}
    for i in range(1, k):
        for a in "ab":
            trans[a][names[i]] = [names[i + 1]]
    return {"type": "nfa", "alphabet": ["a", "b"], "states": names[::-1] if reverse else names,
            "initial": names[:1], "transitions": trans, "finals": names[-1:]}


def _capped(megabytes: int, *argv) -> subprocess.CompletedProcess:
    """A CLI call in a subprocess whose address space is capped."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "dualmin.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=300)


def test_equiv_of_nfas_walks_subset_pairs_in_little_memory(tmp_path):
    # 65,536 reachable pairs of subsets; the two subset DFAs built in full
    # would not fit under the cap
    paths = []
    for name, doc in (("kth16.json", _kth_from_end(16, "p")),
                      ("kth16_renamed.json", _kth_from_end(16, "q", reverse=True))):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    proc = _capped(60, "equiv", *map(str, paths))
    assert proc.returncode == 0 and proc.stdout.strip() == "equivalent", proc.stderr


def test_running_out_of_memory_is_a_guard_exit(tmp_path):
    path = tmp_path / "kth20.json"
    path.write_text(json.dumps(_kth_from_end(20, "p")))
    proc = _capped(100, "determinize", str(path), "--max-states", "2000000")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "max-states" in proc.stderr


def test_equiv_tropical_says_it_is_bounded(capsys, data_dir, tmp_path):
    path = data_dir / "wa_tropical.json"
    rc, out, _ = invoke(capsys, "equiv", str(path), str(path))
    assert rc == 0 and out.strip() == "equivalent up to length 6"
    rc, out, _ = invoke(capsys, "equiv", str(path), str(path), "--max-len", "3")
    assert rc == 0 and out.strip() == "equivalent up to length 3"
    moved = json.loads(path.read_text())
    moved["final"] = ["inf", 1]
    other = tmp_path / "moved.json"
    other.write_text(json.dumps(moved))
    rc, out, _ = invoke(capsys, "equiv", str(path), str(other))
    assert rc == 1 and out.strip() == "not equivalent"


def test_equiv_tropical_counts_its_words_before_listing_them(capsys, data_dir, tmp_path):
    doc = json.loads((data_dir / "wa_tropical.json").read_text())
    doc["alphabet"] = ["a", "b"]
    doc["transitions"]["b"] = [[0, "inf"], ["inf", 2]]
    two = tmp_path / "two_letters.json"
    two.write_text(json.dumps(doc))
    # 2**17 - 1 words up to length 16: refused before one is compared
    rc, out, err = invoke(capsys, "equiv", str(two), str(two), "--max-len", "16",
                          "--max-states", "1000")
    assert rc == 3 and out == "" and "exceeds 1000 words" in err
    rc, out, _ = invoke(capsys, "equiv", str(two), str(two), "--max-len", "8",
                        "--max-states", "1000")
    assert rc == 0 and out.strip() == "equivalent up to length 8"  # 511 words
    path = str(data_dir / "wa_tropical.json")
    rc, out, err = invoke(capsys, "equiv", path, path, "--max-len", str(10**9))
    assert rc == 3 and out == "" and f"exceeds {DEFAULT_MAX_STATES} words" in err


def test_trace_eval_and_closure(capsys, data_dir):
    rc, out, _ = invoke(capsys, "trace-eval", str(data_dir / "dkm_ends_with_a.json"),
                        "-f", "<a>p")
    assert rc == 0 and out.split() == ["x", "y", "z"]
    rc, out, _ = invoke(capsys, "trace-eval", str(data_dir / "dkm_ends_with_a.json"),
                        "-f", "p")
    assert rc == 0 and out.split() == ["y", "z"]
    rc, out, _ = invoke(capsys, "closure", str(data_dir / "dkm_ends_with_a.json"))
    assert rc == 0
    assert out.splitlines() == ["{}", "{y,z}", "{x,y,z}"]


def dkm_file(tmp_path, states, gamma, obs) -> str:
    """A DKM file with one letter that loops on every state."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "type": "dkm", "alphabet": ["a"], "states": states, "obs": obs, "gamma": gamma,
        "transitions": {"a": {s: s for s in states}}, "initial": states[0]}))
    return str(path)


def test_closure_tells_a_comma_name_from_two_names(capsys, tmp_path):
    # {the state named "x,y"} and {x, y} printed alike, as {x,y}
    path = dkm_file(tmp_path, ["x,y", "x", "y"], {"x,y": ["p"], "x": ["q"], "y": ["q"]},
                    ["p", "q"])
    assert invoke(capsys, "closure", path) == (0, '{"x,y"}\n{x,y}\n', "")
    assert invoke(capsys, "trace-eval", path, "-f", "p") == (0, '"x,y"\n', "")
    assert invoke(capsys, "trace-eval", path, "-f", "q") == (0, "x y\n", "")


def test_closure_tells_a_state_named_empty_from_the_empty_set(capsys, tmp_path):
    # the only definable set, {the state named ""}, printed as {}
    path = dkm_file(tmp_path, [""], {"": ["p"]}, ["p"])
    assert invoke(capsys, "closure", path) == (0, '{""}\n', "")
    assert invoke(capsys, "trace-eval", path, "-f", "p") == (0, '""\n', "")


def test_listed_names_that_could_be_misread_print_as_json_strings(capsys, tmp_path):
    path = dkm_file(tmp_path, ["s", "t u"], {"s": ["-", "p q", "r"], "t u": []},
                    ["-", "p q", "r"])
    assert invoke(capsys, "run", path, "-w", "") == (0, '"-" "p q" r\n', "")
    path = dkm_file(tmp_path, ["t u", "s"], {"s": ["r"]}, ["r"])
    assert invoke(capsys, "run", path, "-w", "a") == (0, "-\n", "")
    assert invoke(capsys, "trace-eval", path, "-f", "<a>r") == (0, "s\n", "")
    closure = dkm_file(tmp_path, ["t u", "{v}", 'w"'], {"t u": ["r"], "{v}": ["r"], 'w"': ["r"]},
                       ["r"])
    assert invoke(capsys, "closure", closure) == (0, '{"t u","{v}","w\\""}\n', "")


def _few_targets_model(rng, n, state_names=None) -> Dkm:
    """A random model of n states whose successors all lie among six of them,
    so that its closure stays small: a preimage depends on those six alone."""
    targets = rng.sample(range(n), 6)
    gamma = tuple(frozenset(w for w in ("p", "q") if rng.random() < 0.5) for _ in range(n))
    delta = {a: tuple(rng.choice(targets) for _ in range(n)) for a in ("a", "b")}
    return Dkm(n, ("a", "b"), ("p", "q"), gamma, delta, 0, state_names)


def _closure_cases():
    """Models for the closure verb: two of 0 states, one without
    observations, random ones, two past 256 states (the predicate step's
    itemgetter route) and ones whose state names the verb must quote."""
    rng = random.Random(32)
    yield Dkm(0, ("a",), ("p", "q"), (), {"a": ()})
    yield Dkm(0, ("a",), (), (), {"a": ()})
    k = random_dkm(rng)
    yield replace(k, obs=(), gamma=(frozenset(),) * k.n)
    for _ in range(60):
        yield random_dkm(rng, max_n=7, max_letters=3, max_obs=3)
    yield _few_targets_model(rng, 257)
    yield _few_targets_model(rng, 300, tuple(f"q {i}" if i % 7 else f"{{{i}}}" for i in range(300)))
    loop = {"a": (0, 1, 2)}
    yield Dkm(3, ("a",), ("p", "q"), (frozenset("p"), frozenset("q"), frozenset("q")), loop, 0,
              ("x,y", "x", "y"))
    yield Dkm(1, ("a",), ("p",), (frozenset("p"),), {"a": (0,)}, 0, ("",))
    yield Dkm(3, ("a",), ("p",), (frozenset("p"), frozenset(), frozenset("p")), {"a": (1, 2, 0)},
              0, ("empty", "-", 'w"'))
    yield Dkm(3, ("a",), ("r",), (frozenset("r"),) * 3, loop, 0, ("t u", "{v}", 'w"'))


def test_closure_matches_the_route_through_sets(capsys, tmp_path):
    """The closure verb sorts and prints 0/1 rows; the oracle decodes them
    into frozensets and sorts those by (size, members).  The rows are the
    preimage worklist's sets, each once, and their atoms are the
    bisimulation classes."""
    rng = random.Random(33)
    files = [(k, k) for k in _closure_cases()]
    files += [(m, Dkm.from_dfa(m)) for m in (random_dfa(rng) for _ in range(20))]
    for obj, k in files:
        path = tmp_path / "model.json"
        path.write_text(emit(obj))
        rows = definable_closure(k)
        family = row_sets(rows)
        assert family == closure_by_preimages(k) and len(rows) == len(family)
        assert all(type(row) is bytes and len(row) == k.n for row in rows)
        labels = state_labels(k.state_names, k.n)
        assert invoke(capsys, "closure", str(path)) == (0, closure_text_by_sets(family, labels), "")
        assert boolean_atoms(rows, k.n) == bisimulation_oracle(k)


def chain_model(n) -> Dkm:
    """An n-state chain whose last state alone sees p: its closure is its n
    suffixes, about 220 KB of text for n = 300."""
    return Dkm(n, ("a",), ("p",), (frozenset(),) * (n - 1) + (frozenset("p"),),
               {"a": tuple(min(s + 1, n - 1) for s in range(n))})


def test_closure_writes_its_lines_in_chunks(monkeypatch, tmp_path):
    """Not one write per line: writes of about _CHUNK_CHARS characters."""
    n = 300
    path = tmp_path / "model.json"
    path.write_text(emit(chain_model(n)))
    class Writes(list):
        write = list.append

    writes = Writes()
    monkeypatch.setattr(sys, "stdout", writes)
    assert main(["closure", str(path)]) == 0
    lines = "".join(writes).splitlines()
    assert len(lines) == n and 2 < len(writes) < 10
    assert all(len(text) >= _CHUNK_CHARS for text in writes[:-1])


def test_stats(capsys, data_dir):
    rc, out, _ = invoke(capsys, "stats", str(data_dir / "ends_with_a.json"))
    assert rc == 0 and "states=3" in out and "reachable=3" in out


def test_usage_error_exit_code(capsys):
    assert main(["minimize"]) == 2
    assert main(["no-such-verb"]) == 2


def test_guard_exit_code(capsys, data_dir):
    # the double reversal: a flagless minimize of a DFA explores no subsets
    rc, _, err = invoke(capsys, "minimize", str(data_dir / "ends_with_a.json"),
                        "--method", "brzozowski", "--max-states", "2")
    assert rc == 3
    assert "max-states" in err


def random_two_letter_dfa(n: int) -> dict:
    """The DFA document of n states q0..q{n-1} drawn by random.Random(1000 + n):
    each state's a-successor, then each b-successor, then each state final
    with probability 1/2.  The first pass of its double reversal outgrows the
    default bound from about 70 states on."""
    rng = random.Random(1000 + n)
    names = [f"q{i}" for i in range(n)]
    trans = {a: {q: rng.choice(names) for q in names} for a in "ab"}
    return {"type": "dfa", "alphabet": ["a", "b"], "states": names, "initial": names[0],
            "finals": [q for q in names if rng.random() < 0.5], "transitions": trans}


def test_a_random_60_state_dfa_minimises_to_the_same_bytes_by_every_route(capsys, tmp_path):
    path = tmp_path / "rand60.json"
    path.write_text(json.dumps(random_two_letter_dfa(60)))
    outs = _emitted_by_every_route(capsys, path)
    assert len(outs) == 1 and len(outs.pop().encode()) == 2735


@pytest.mark.parametrize("n, size", [(70, 3236), (100, 4745)])
def test_a_flagless_minimize_of_a_random_dfa_passes_the_double_reversal_bound(
        capsys, tmp_path, n, size):
    path = tmp_path / f"rand{n}.json"
    path.write_text(json.dumps(random_two_letter_dfa(n)))
    rc, out, err = invoke(capsys, "minimize", str(path))
    assert (rc, err) == (0, "") and len(out.encode()) == size
    assert invoke(capsys, "minimize", str(path), "--method", "refine") == (0, out, "")


def test_the_double_reversal_of_a_random_70_state_dfa_meets_the_bound(capsys, tmp_path):
    path = tmp_path / "rand70.json"
    path.write_text(json.dumps(random_two_letter_dfa(70)))
    rc, out, err = invoke(capsys, "minimize", str(path), "--method", "brzozowski")
    assert (rc, out) == (3, "")
    assert err == "error: dual automaton exceeds 1000000 states; raise --max-states\n"


def test_data_error_exit_code(capsys, data_dir):
    rc, _, err = invoke(capsys, "stats", str(data_dir / "bad_wa_dims.json"))
    assert rc == 1 and "transitions.a" in err
    rc, _, err = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "q")
    assert rc == 1


def test_the_environment_sets_no_bound(monkeypatch, capsys, data_dir):
    # the bound is --max-states alone: a variable named like it is never read
    path = str(data_dir / "ends_with_a.json")
    monkeypatch.delenv("DUALMIN_MAX_STATES", raising=False)
    unset = invoke(capsys, "minimize", path)
    assert unset[0] == 0 and unset[1]
    monkeypatch.setenv("DUALMIN_MAX_STATES", "1")
    assert invoke(capsys, "minimize", path) == unset
    monkeypatch.setenv("DUALMIN_MAX_STATES", "abc")
    assert invoke(capsys, "stats", path)[::2] == (0, "")


# duality minimisation quotients by the stable partition and lists no closure,
# and a flagless DFA minimize refines, so each builds nothing larger than its
# input and prints what refinement prints
BUILDS_NOTHING_LARGER = {
    ("minimize", "dkm_ends_with_a.json"),
    ("minimize", "ends_with_a.json"),
    ("minimize", "ends_with_a.json", "--method", "duality"),
}


@pytest.mark.parametrize("argv", [
    ("determinize", "nfa_small.json"),
    ("determinize", "wa_bool.json"),
    ("minimize", "wa_bool.json"),
    ("reverse", "afa_ends_with_a.json"),
    ("dual", "afa_ends_with_a.json"),
    ("minimize", "afa_ends_with_a.json"),
    ("minimize", "nfa_small.json"),
    ("closure", "dkm_ends_with_a.json"),
    ("minimize", "dkm_ends_with_a.json"),
    ("minimize", "ends_with_a.json"),
    ("minimize", "ends_with_a.json", "--method", "brzozowski"),
    ("minimize", "ends_with_a.json", "--method", "duality"),
    ("equiv", "nfa_small.json", "nfa_small.json"),
    ("equiv", "ends_with_a.json", "ends_with_a.json"),
    ("equiv", "dkm_ends_with_a.json", "dkm_ends_with_a.json"),
], ids=" ".join)
def test_every_construction_honours_max_states(capsys, data_dir, argv):
    got = invoke(capsys, *_argv(data_dir, argv), "--max-states", "1")
    if argv in BUILDS_NOTHING_LARGER:
        refined = invoke(capsys, "minimize", str(data_dir / argv[1]), "--method", "refine")
        assert refined[0] == 0 and refined[1] and got == refined
        return
    rc, out, err = got
    assert rc == 3 and out == ""
    assert "max-states" in err


def test_closure_bound_is_the_closure_size(capsys, data_dir):
    path = str(data_dir / "dkm_ends_with_a.json")
    rc, out, _ = invoke(capsys, "closure", path, "--max-states", "3")
    assert rc == 0 and len(out.splitlines()) == 3
    rc, out, err = invoke(capsys, "closure", path, "--max-states", "2")
    assert rc == 3 and out == "" and "max-states" in err


def _argv(data_dir, argv):
    return [str(data_dir / a) if a.endswith(".json") else a for a in argv]


VERBS = [
    ("run", "ends_with_a.json", "-w", "a"),
    ("reverse", "ends_with_a.json"),
    ("determinize", "nfa_small.json"),
    ("reach", "ends_with_a.json"),
    ("dual", "ends_with_a.json"),
    ("minimize", "ends_with_a.json"),
    ("equiv", "ends_with_a.json", "ends_with_a_min.json"),
    ("trace-eval", "dkm_ends_with_a.json", "-f", "p"),
    ("closure", "dkm_ends_with_a.json"),
    ("hankel", "wa_swap.json", "-L", "2"),
    ("stats", "ends_with_a.json"),
    ("selftest", "--cases", "1"),
]
IGNORES_MAX_STATES = ("run", "reach", "trace-eval", "hankel", "stats", "selftest")
IGNORES_SEMIRING = ("trace-eval", "closure", "selftest")


@pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
def test_shared_flags_only_on_the_verbs_that_read_them(capsys, data_dir, argv):
    for flag, value, ignored in (("--max-states", "5", IGNORES_MAX_STATES),
                                 ("--semiring", "int", IGNORES_SEMIRING)):
        rc, out, err = invoke(capsys, *_argv(data_dir, argv), flag, value)
        if argv[0] in ignored:
            assert rc == 2 and out == "" and flag in err
        else:
            assert rc != 2, err


@pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
def test_out_of_memory_advises_the_bound_only_where_a_verb_takes_it(monkeypatch, capsys,
                                                                     data_dir, argv):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(io, "parse", exhausted)
    monkeypatch.setattr(selftest, "run_selftest", exhausted)
    rc, out, err = invoke(capsys, *_argv(data_dir, argv))
    advice = "" if argv[0] in IGNORES_MAX_STATES else "; lower --max-states"
    assert (rc, out, err) == (3, "", f"error: out of memory{advice}\n")


def test_a_named_verb_builds_only_its_own_parser(capsys):
    full = build_parser()
    for verb, *_ in VERBS:
        one = build_parser(verb)
        assert one.format_usage() == full.format_usage()  # every verb is listed
        other = "stats" if verb != "stats" else "run"
        with pytest.raises(SystemExit):
            one.parse_args([other, "file.json"])
        assert "invalid choice" in capsys.readouterr().err
    assert build_parser("no-such-verb").format_help() == full.format_help()


@pytest.mark.parametrize("argv", VERBS, ids=lambda argv: argv[0])
def test_system_error_is_out_of_memory_on_every_verb(monkeypatch, capsys, data_dir, argv):
    """Near an address-space cap CPython may raise SystemError where it ran out
    of memory: the same one line, quoting the SystemError, and exit 3."""
    def exhausted(*args):
        raise SystemError("Objects/listobject.c:62: bad argument to internal function")

    monkeypatch.setattr(io, "parse", exhausted)
    monkeypatch.setattr(selftest, "run_selftest", exhausted)
    rc, out, err = invoke(capsys, *_argv(data_dir, argv))
    advice = "" if argv[0] in IGNORES_MAX_STATES else "; lower --max-states"
    assert (rc, out, err) == (3, "", "error: out of memory (SystemError('Objects/listobject.c:"
                                     f"62: bad argument to internal function')){advice}\n")


def test_reverse_nfa_file(capsys, data_dir):
    path = data_dir / "nfa_small.json"
    rc, out, _ = invoke(capsys, "reverse", str(path))
    assert rc == 0
    flipped, original = parse(out), parse(path.read_bytes())
    assert flipped.inits == original.finals and flipped.finals == original.inits
    assert reverse(flipped) == original
    # the dual of an NFA is the subset DFA of its reversal, names included
    rc, out, _ = invoke(capsys, "dual", str(path))
    dual = parse(out)
    assert rc == 0 and dual == determinise(flipped)
    assert dual.state_names == determinise(flipped).state_names


def test_semiring_override(capsys, data_dir):
    rc, out, _ = invoke(capsys, "run", str(data_dir / "wa_swap.json"),
                        "-w", "a", "--semiring", "rational")
    assert rc == 0 and out.strip() == "1/1"


def _weighted_file(tmp_path, semiring, values):
    path = tmp_path / f"{semiring}.json"
    path.write_text(json.dumps({"type": "weighted", "semiring": semiring, "alphabet": ["a"],
                                "states": ["q0", "q1"], "initial": values[:2],
                                "final": values[2:4], "transitions": {"a": [values[4:6],
                                                                            values[6:]]}}))
    return str(path)


def test_semiring_override_reads_the_raw_values(capsys, tmp_path):
    # a rational file whose entries are all integers reads as an integer file
    path = _weighted_file(tmp_path, "rational", [1, 0, 1, 1, 0, 1, 1, 0])
    rc, out, err = invoke(capsys, "run", path, "-w", "a", "--semiring", "int")
    assert (rc, out, err) == (0, "1\n", "")
    rc, out, _ = invoke(capsys, "stats", path, "--semiring", "int")
    assert rc == 0 and "semiring=int" in out
    path = _weighted_file(tmp_path, "rational", ["1/2", 0, 1, 1, 0, 1, 1, 0])
    rc, _, err = invoke(capsys, "run", path, "-w", "a", "--semiring", "int")
    assert rc == 1 and "initial[0]: int: bad value '1/2'" in err


def test_run_prints_a_tropical_value_past_the_digit_limit(capsys, tmp_path):
    # 4,300 nines, the most digits the interpreter turns into an int; the
    # weight of a^10 is ten times that, one digit more than it turns back
    path = tmp_path / "tropical.json"
    path.write_text(json.dumps({"type": "weighted", "semiring": "tropical", "alphabet": ["a"],
                                "states": ["q"], "initial": [0], "final": [0],
                                "transitions": {"a": [["9" * 4300]]}}))
    assert invoke(capsys, "run", str(path), "-w", "a" * 10) == (0, "9" * 4300 + "0\n", "")


def test_semiring_override_names_the_refused_field(capsys, data_dir):
    rc, out, err = invoke(capsys, "stats", str(data_dir / "wa_tropical.json"),
                          "--semiring", "rational")
    assert rc == 1 and out == ""
    assert err == "error: transitions.a[0][1]: rational: bad value 'inf'\n"


def test_semiring_override_still_checks_the_file_semiring(capsys, tmp_path):
    path = _weighted_file(tmp_path, "nimber", [1, 0, 1, 1, 0, 1, 1, 0])
    rc, _, err = invoke(capsys, "stats", path, "--semiring", "int")
    assert rc == 1 and "unknown semiring 'nimber'" in err


@pytest.mark.parametrize("argv, flag", [
    (("minimize", "ends_with_a.json", "--max-states", "0"), "--max-states"),
    (("minimize", "ends_with_a.json", "--max-states", "-1"), "--max-states"),
    (("hankel", "wa_swap.json", "-L", "-1"), "-L/--length"),
    (("equiv", "wa_tropical.json", "wa_tropical.json", "--max-len", "-1"), "--max-len"),
    (("selftest", "--cases", "0"), "--cases"),
], ids=" ".join)
def test_bad_numeric_arguments_are_usage_errors(capsys, data_dir, argv, flag):
    rc, out, err = invoke(capsys, *_argv(data_dir, argv))
    assert rc == 2 and out == "" and flag in err and "at least" in err


def test_zero_length_bounds_are_accepted(capsys, data_dir):
    rc, out, _ = invoke(capsys, "hankel", str(data_dir / "wa_swap.json"), "-L", "0")
    assert (rc, out) == (0, "1\n")
    path = str(data_dir / "wa_tropical.json")
    rc, out, _ = invoke(capsys, "equiv", path, path, "--max-len", "0")
    assert (rc, out) == (0, "equivalent up to length 0\n")


def test_selftest_small(capsys):
    rc, out, _ = invoke(capsys, "selftest", "--seed", "3", "--cases", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8 and all(line.startswith("PASS") for line in lines)


def test_selftest_reports_a_failing_suite(capsys, monkeypatch):
    monkeypatch.setitem(selftest.SUITES, "closure-vs-dual", lambda rng: "planted failure")
    assert selftest.run_selftest(cases=1) is False
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL closure-vs-dual: planted failure"
    assert all(line.startswith("PASS") for line in lines[:-1])
    rc, out, _ = invoke(capsys, "selftest", "--cases", "1")
    assert rc == 1
    assert out.splitlines()[-1] == "FAIL closure-vs-dual: planted failure"


def test_selftest_hermite_suite_catches_a_non_canonical_basis(capsys, monkeypatch):
    insert = IntegerBasis.insert

    def uncanonical(self, v):
        # the same lattice, but the first row gains the second: its entry
        # above the second pivot is no longer reduced
        basis, changed = insert(self, v)
        rows = basis.rows
        if len(rows) > 1:
            first = tuple(x + y for x, y in zip(rows[0], rows[1]))
            basis = IntegerBasis(basis.ambient, (first, *rows[1:]))
        return basis, changed

    monkeypatch.setattr(IntegerBasis, "insert", uncanonical)
    rng = random.Random(0)
    assert all(selftest._check_hnf(rng) for _ in range(20))
    assert selftest.run_selftest(cases=1) is False
    assert "FAIL hermite-normal-form: " in capsys.readouterr().out


def test_parse_trace_formula():
    f = parse_trace_formula("<a><b>p")
    assert f.word == ("a", "b") and f.obs == "p"
    assert parse_trace_formula("p").word == ()
    with pytest.raises(ValueError):
        parse_trace_formula("<a>")


@pytest.mark.parametrize("verb", ["reach", "reverse", "closure"])
def test_closed_stdout_exits_quietly(tmp_path, verb):
    """A reader that stops early (`dualmin reach big.json | head -c 50`)
    gets exit 0 and nothing on stderr, as with one unbatched write: a DFA
    document written from its arrays (reach, about 1 MB), an NFA document
    through the json encoder (reverse) and closure's lines (about 220 KB)."""
    path = tmp_path / "big.json"
    if verb == "closure":
        path.write_text(emit(chain_model(300)))
    else:
        n = 2000
        names = [f"state{'-' * 100}{s}" for s in range(n)]
        doc = {"type": "dfa", "alphabet": ["a", "b"], "states": names, "initial": names[0],
               "finals": names[::2],
               "transitions": {"a": {x: names[(s + 1) % n] for s, x in enumerate(names)},
                               "b": {x: names[s // 2] for s, x in enumerate(names)}}}
        path.write_text(json.dumps(doc))
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "dualmin.cli", verb, str(path)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.read(50).startswith(b"{")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


# modules that only some file kinds need
HEAVY = ("weighted", "linalg", "semiring", "alternating", "dkm", "selftest", "sampling")
# the Boolean-automaton code, which a weighted call over Q or Z never needs
BOOLEAN = ("automata", "brzozowski")


LOADS = [
    (("stats", "ends_with_a.json"), HEAVY + ("fractions",)),
    (("minimize", "ends_with_a.json"), HEAVY + ("fractions",)),
    (("minimize", "moore3.json"), HEAVY + ("fractions", "brzozowski")),
    (("minimize", "ends_with_a.json", "--method", "duality"), HEAVY + ("fractions",)),
    (("equiv", "ends_with_a.json", "ends_with_a_min.json"), HEAVY + ("fractions",)),
    (("determinize", "nfa_small.json"), HEAVY + ("fractions",)),
    (("equiv", "nfa_small.json", "nfa_small.json"), HEAVY + ("fractions",)),
    (("minimize", "afa_conj.json"), ("weighted", "linalg", "semiring", "selftest")),
    (("equiv", "afa_conj.json", "afa_conj.json"), ("weighted", "linalg", "semiring")),
    (("minimize", "wa_rational.json"), BOOLEAN + ("alternating", "dkm", "selftest", "sampling")),
    (("hankel", "wa_rational.json", "-L", "2"), BOOLEAN + ("alternating", "dkm")),
    (("reach", "wa_swap.json"), BOOLEAN + ("alternating", "dkm")),
    (("equiv", "wa_rational.json", "wa_rational.json"), BOOLEAN + ("alternating", "dkm")),
    (("minimize", "wa_bool.json"), ("linalg", "alternating", "dkm")),
    (("minimize", "dkm_ends_with_a.json"), ("weighted", "linalg", "alternating")),
]


@pytest.mark.parametrize("argv, unloaded", LOADS, ids=[" ".join(argv) for argv, _ in LOADS])
def test_a_call_loads_only_the_modules_of_its_file_kind(data_dir, argv, unloaded):
    """Each call runs in a fresh interpreter, which then lists the dualmin
    modules (and `fractions`) it has loaded."""
    script = ("import json, sys\n"
              "from dualmin.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "                        if m.startswith('dualmin.') or m == 'fractions')))\n"
              "sys.exit(code)\n")
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *_argv(data_dir, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "dualmin.io" in loaded
    assert not loaded & {m if m == "fractions" else f"dualmin.{m}" for m in unloaded}


def test_a_process_loads_no_dataclasses_inspect_or_typing(data_dir):
    """The records are plain classes and annotations name `collections.abc`
    types: a DFA and a weighted minimisation in one fresh interpreter leave
    `dataclasses`, `inspect` (which it would import) and `typing` unloaded.
    The child runs without `site` (-S), so that a module a site .pth file
    imports is not counted against the package."""
    script = ("import contextlib, io, json, sys\n"
              "from dualmin.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [main(['minimize', path]) for path in sys.argv[1:]]\n"
              "print(json.dumps([codes, sorted({'dataclasses', 'inspect', 'typing'}\n"
              "                                & set(sys.modules))]))\n")
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script, str(data_dir / "ends_with_a.json"),
                           str(data_dir / "wa_rational.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], []]
