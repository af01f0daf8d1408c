import json
import random
import re
import tracemalloc
from fractions import Fraction
from io import StringIO

import pytest

from dualmin import (BOOL, INT, RATIONAL, TROPICAL, TROPICAL_INF,
                     AlternatingAutomaton, BoolFun, Dkm, FormatError, MooreAutomaton, Nfa,
                     WeightedAutomaton, dual_automaton, emit, parse, reverse, run)
from dualmin.cli import main
from dualmin.io import _CHUNK_CHARS
from dualmin.sampling import random_afa, random_dfa, random_dkm, random_moore, random_wa

from oracles import (afa_of_dfa, always, emit_json, ends_with_a_dfa, is_dfa, random_nfa,
                     replace)


def test_parse_ends_with_a_dfa(data_dir):
    m = parse((data_dir / "ends_with_a.json").read_bytes())
    assert isinstance(m, MooreAutomaton)
    assert m == ends_with_a_dfa()
    assert m.state_names == ("x", "y", "z")
    assert m.outputs == ("reject", "accept")


def test_roundtrip_every_fixture(data_dir):
    for name in ("ends_with_a.json", "ends_with_a_min.json", "moore3.json", "nfa_small.json",
                 "wa_swap.json", "wa_rational.json", "wa_bool.json", "wa_tropical.json",
                 "afa_ends_with_a.json", "afa_conj.json", "dkm_ends_with_a.json"):
        obj = parse((data_dir / name).read_bytes())
        again = parse(emit(obj))
        assert again == obj, name
        assert emit(again) == emit(obj), name


def test_weighted_dimension_error_names_letter(data_dir):
    with pytest.raises(FormatError) as exc:
        parse((data_dir / "bad_wa_dims.json").read_bytes())
    assert "transitions.a" in str(exc.value)


def test_unknown_semiring():
    doc = """{"type":"weighted","semiring":"octonion","alphabet":["a"],"states":["q"],
              "initial":[1],"final":[1],"transitions":{"a":[[1]]}}"""
    with pytest.raises(ValueError):
        parse(doc)


def test_parse_errors_carry_paths():
    bad_target = """{"type":"dfa","alphabet":["a"],"states":["x"],"initial":"x",
                     "transitions":{"a":{"x":"nope"}},"finals":[]}"""
    with pytest.raises(FormatError) as exc:
        parse(bad_target)
    assert exc.value.path == "transitions.a.x"
    bad_init = """{"type":"dfa","alphabet":["a"],"states":["x"],"initial":"q",
                   "transitions":{"a":{"x":"x"}},"finals":[]}"""
    with pytest.raises(FormatError) as exc:
        parse(bad_init)
    assert exc.value.path == "initial"
    with pytest.raises(FormatError):
        parse("{not json")
    with pytest.raises(FormatError):
        parse('{"type":"teleporter"}')


def test_rational_values_parse_and_emit(data_dir):
    w = parse((data_dir / "wa_rational.json").read_bytes())
    assert w.semiring is RATIONAL
    assert w.init == (Fraction(1, 2), Fraction(0))
    assert w.final == (Fraction(2), Fraction(-1, 3))
    text = emit(w)
    assert '"1/2"' in text and '"-1/3"' in text


def test_tropical_values(data_dir):
    w = parse((data_dir / "wa_tropical.json").read_bytes())
    assert w.semiring is TROPICAL
    assert w.init == (0, TROPICAL_INF)
    assert '"inf"' in emit(w)


def test_big_integers_become_strings():
    big = 2 ** 60
    w = WeightedAutomaton.build(("a",), INT, {"a": [[big]]}, [1], [1])
    text = emit(w)
    assert f'"{big}"' in text
    assert parse(text) == w


def test_big_tropical_values_become_strings():
    big = 2 ** 60
    w = WeightedAutomaton.build(("a",), TROPICAL, {"a": [[big]]}, [0], [TROPICAL_INF])
    text = emit(w)
    assert f'"{big}"' in text and '"inf"' in text
    assert parse(text) == w


def test_afa_formula_and_subset_forms_agree(data_dir):
    by_formula = parse((data_dir / "afa_ends_with_a.json").read_bytes())
    assert isinstance(by_formula, AlternatingAutomaton)
    embedded = afa_of_dfa(ends_with_a_dfa())
    assert by_formula.delta == embedded.delta
    assert by_formula.iota == embedded.iota
    assert by_formula.finals == embedded.finals


def test_nfa_parse_defaults_missing_rows(data_dir):
    n = parse((data_dir / "nfa_small.json").read_bytes())
    assert isinstance(n, Nfa)
    assert n.trans["a"][2] == frozenset()  # r has no a-arcs in the file
    assert n.inits == frozenset({0})


@pytest.mark.parametrize("doc, path", [
    ({"type": "nfa", "alphabet": ["a"], "states": ["p", "q"], "initial": ["p"],
      "transitions": {"a": {"p": ["q"], "qq": ["p"]}}, "finals": ["q"]}, "transitions.a.qq"),
    ({"type": "dkm", "alphabet": ["a"], "states": ["x", "y"], "obs": ["p"],
      "gamma": {"x": [], "yy": ["p"]}, "transitions": {"a": {"x": "y", "y": "x"}},
      "initial": "x"}, "gamma.yy"),
], ids=["nfa", "dkm"])
def test_state_keyed_maps_reject_unknown_states(doc, path):
    # a misspelt state name is an error, not a row that is silently dropped
    with pytest.raises(FormatError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: unknown state {path.rsplit('.', 1)[1]!r}"


@pytest.mark.parametrize("doc, path", [
    ({"type": "dfa", "alphabet": ["a"], "states": ["x", "y"], "initial": "x",
      "transitions": {"a": {"x": "y", "y": "x"}}, "finals": ["y", "y"]}, "finals"),
    ({"type": "nfa", "alphabet": ["a"], "states": ["p", "q"], "initial": ["p"],
      "transitions": {"a": {"p": ["q"]}}, "finals": ["q", "p", "q"]}, "finals"),
    ({"type": "nfa", "alphabet": ["a"], "states": ["p", "q"], "initial": ["p", "p"],
      "transitions": {"a": {"p": ["q"]}}, "finals": ["q"]}, "initial"),
    ({"type": "afa", "alphabet": ["a"], "states": ["x"], "finals": ["x", "x"], "iota": "x",
      "transitions": {"a": {"x": "x"}}}, "finals"),
    ({"type": "dkm", "alphabet": ["a"], "states": ["x", "y"], "obs": ["p", "q"],
      "gamma": {"x": ["q"], "y": ["p", "q", "p"]}, "transitions": {"a": {"x": "y", "y": "x"}},
      "initial": "x"}, "gamma.y"),
], ids=["dfa finals", "nfa finals", "nfa initial", "afa finals", "dkm gamma"])
def test_state_and_observation_lists_reject_duplicates(capsys, tmp_path, doc, path):
    # a repeated entry is an error, as in "states" and "alphabet", not silently merged
    with pytest.raises(FormatError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: names must be distinct"
    (tmp_path / "dup.json").write_text(json.dumps(doc))
    assert main(["stats", str(tmp_path / "dup.json")]) == 1
    assert f"{path}: names must be distinct" in capsys.readouterr().err


# one file per type whose transitions name a letter outside the alphabet or miss one
@pytest.mark.parametrize("doc", [
    {"type": "dfa", "alphabet": ["a", "b"], "states": ["x"], "initial": "x", "finals": [],
     "transitions": {"a": {"x": "x"}}},
    {"type": "moore", "alphabet": ["a"], "states": ["x"], "initial": "x", "outputs": ["o"],
     "out": {"x": "o"}, "transitions": {"a": {"x": "x"}, "z": {"x": "x"}}},
    {"type": "nfa", "alphabet": ["a", "b"], "states": ["x"], "initial": ["x"], "finals": [],
     "transitions": {"a": {}}},
    {"type": "weighted", "semiring": "int", "alphabet": ["a"], "states": ["x"],
     "initial": [1], "final": [1], "transitions": {"a": [[0]], "z": [[0]]}},
    {"type": "afa", "alphabet": ["a"], "states": ["x"], "finals": [], "iota": "x",
     "transitions": {"b": {"x": "x"}}},
    {"type": "dkm", "alphabet": ["a", "b"], "states": ["x"], "obs": ["p"], "gamma": {},
     "transitions": {"a": {"x": "x"}}},
], ids=["dfa", "moore", "nfa", "weighted", "afa", "dkm"])
def test_transition_letters_must_match_the_alphabet(doc):
    with pytest.raises(FormatError) as exc:
        parse(json.dumps(doc))
    assert exc.value.path == "transitions"
    assert str(exc.value) == "transitions: letters must match the alphabet exactly"


def test_dkm_parse(data_dir):
    k = parse((data_dir / "dkm_ends_with_a.json").read_bytes())
    assert isinstance(k, Dkm)
    assert k == Dkm.from_dfa(ends_with_a_dfa())


def test_moore_parse(data_dir):
    m = parse((data_dir / "moore3.json").read_bytes())
    assert m.outputs == ("low", "mid", "high")
    assert run(m, ("a",)) == 1


def test_bool_weighted_values(data_dir):
    w = parse((data_dir / "wa_bool.json").read_bytes())
    assert w.semiring is BOOL
    bad = """{"type":"weighted","semiring":"bool","alphabet":["a"],"states":["q"],
              "initial":[7],"final":[1],"transitions":{"a":[[1]]}}"""
    with pytest.raises(FormatError) as exc:
        parse(bad)
    assert exc.value.path == "initial[0]"


def test_emitted_states_keep_index_order():
    m = ends_with_a_dfa()
    assert parse(emit(m)).state_names == ("x", "y", "z")


# names that json must escape: quote, backslash, control characters, DEL,
# non-ASCII letters, the line separator and an astral character (a surrogate
# pair under ensure_ascii), one of them long; and clean ones: the ends of the
# printable range, and one of over 1 MiB, longer than a chunk
ODD = ('q"uote', "back\\slash", "ctl\x01\x1f", "new\nline", "tab\t", "\x7f", "café", "Straße",
       "\u2028", "astral \U0001d504", "", " ", "~", "+", "empty", "Zed", "ab",
       "é" * 300, "n" * ((1 << 20) + 1))


def odd_names(rng, n):
    return tuple(rng.choice(ODD) + str(i) for i in rng.sample(range(10 * n), n))


def every_kind(rng):
    """Random automata of every kind, each with plain and with odd names."""
    yield random_dfa(rng)
    yield random_moore(rng)
    yield random_nfa(rng)
    for ring, lo, hi in ((BOOL, 0, 1), (INT, -2**60, 2**60), (RATIONAL, -2**60, 2**60)):
        yield random_wa(rng, ring, lo=lo, hi=hi)
    n = rng.randint(1, 4)
    entries = [TROPICAL_INF, 0, 3, 2**60]
    mats = {a: [[rng.choice(entries) for _ in range(n)] for _ in range(n)] for a in "ab"}
    yield WeightedAutomaton.build(("a", "b"), TROPICAL, mats,
                                  [rng.choice(entries) for _ in range(n)],
                                  [rng.choice(entries) for _ in range(n)])
    yield random_afa(rng, max_n=4)
    k = random_dkm(rng)
    yield k
    yield replace(k, init=None)


def test_emit_matches_json_dumps():
    rng = random.Random(31)
    cases = []
    for _ in range(40):
        for obj in every_kind(rng):
            cases.append(obj)
            names = odd_names(rng, obj.n)
            if isinstance(obj, MooreAutomaton):
                outputs = tuple(rng.choice(ODD) + str(i) for i in range(len(obj.outputs)))
                cases.append(replace(obj, state_names=names,
                                     outputs=obj.outputs if is_dfa(obj) else outputs))
            else:
                cases.append(replace(obj, state_names=names))
    # the escape rule's edges, alone: DEL, the ends of the printable range and
    # the line separator, as names and as letters
    cases.append(MooreAutomaton.dfa(4, ("~", " "), {"~": (1, 2, 3, 0), " ": (0, 0, 1, 1)}, 0,
                                    [1, 3], ("\x7f", "~", " ", "\u2028")))
    # empty containers: a letter without arcs, no finals, false and [[]] conditions
    cases.append(Nfa(2, ("a", "é"), {"a": (frozenset(), frozenset()),
                                     "é": (frozenset({1}), frozenset())},
                     frozenset({0}), frozenset(), ('"', "\\")))
    cases.append(MooreAutomaton.dfa(2, ("a",), {"a": (1, 0)}, 0, [], ("x\x00", "y")))
    cases.append(AlternatingAutomaton(2, ("a",), {"a": (always(2, False),
                                                        BoolFun(2, [()]))},
                                      always(2, True), frozenset()))
    cases.append(Dkm(2, ("a",), ("p",), (frozenset(), frozenset({"p"})),
                     {"a": (1, 1)}, None, ("\U0001f600", "ß")))
    for obj in cases:
        expected = emit_json(obj)
        assert emit(obj) == expected
        out = StringIO()
        assert emit(obj, out) is None
        assert out.getvalue() == expected
    texts = "".join(emit_json(obj) for obj in cases[-4:])
    assert "{}" in texts and "[]" in texts and "[\n" in texts and "\\ud83d\\ude00" in texts


class Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_emit_writes_in_bounded_batches():
    n = 3000
    names = tuple("n" * 700 + str(s) for s in range(n))
    m = MooreAutomaton.dfa(n, ("a", "b"), {"a": tuple((s + 1) % n for s in range(n)),
                                           "b": tuple(s // 2 for s in range(n))},
                           0, range(0, n, 2), names)
    out = Recorder()
    assert emit(m, out) is None
    assert len(out.writes) > 4
    assert max(map(len, out.writes)) <= 2 << 20
    assert "".join(out.writes) == emit(m)


class NullSink:
    def write(self, text):
        pass


def kth_from_end_minimal(k):
    """The minimal DFA for "the k-th letter from the end is a" as `dual` twice
    builds it, whose 2**k states have nested subset names that json escapes
    none of."""
    n, last = 1 << k, (1 << k) - 1
    m = MooreAutomaton.dfa(n, ("a", "b"), {"a": tuple((s << 1 | 1) & last for s in range(n)),
                                           "b": tuple((s << 1) & last for s in range(n))},
                           0, [s for s in range(n) if s >> (k - 1) & 1])
    minimal = dual_automaton(dual_automaton(m))
    assert minimal.n == n
    return minimal


def emit_peak(obj) -> int:
    """The traced peak of memory allocated while obj is emitted to a null sink."""
    tracemalloc.start()
    try:
        emit(obj, NullSink())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_keeps_no_copy_of_clean_names():
    minimal = kth_from_end_minimal(10)  # 1,024 names of about 18 MB in all
    total = sum(map(len, minimal.state_names))
    assert total > 16 << 20
    # a chunk of pieces and its joined text, but no second copy of the names
    assert emit_peak(minimal) < total // 2 + 2 * _CHUNK_CHARS


def test_emit_holds_a_document_under_one_batch_once():
    minimal = kth_from_end_minimal(6)  # names of about 600 characters each
    size = len(emit(minimal))
    assert size < 1 << 20
    # rows go out a chunk at a time, and no copy of the whole text is made
    assert emit_peak(minimal) < size * 5 // 4


def random_30_state_dfa() -> MooreAutomaton:
    """A random 30-state DFA whose dual has 19,946 states and 6.8 million
    characters of text, mostly subset names in the transition maps."""
    rng = random.Random(0)
    n = 30
    return MooreAutomaton.dfa(n, ("a", "b"), {a: tuple(rng.randrange(n) for _ in range(n))
                                              for a in "ab"},
                              0, [s for s in range(n) if rng.random() < 0.5])


def test_emit_of_a_large_dual_peaks_below_half_its_text():
    """emit copies no clean name and builds neither a map of names per
    letter nor a list of the finals, so it holds a chunk of rows at a time:
    below a quarter of the text."""
    dual = dual_automaton(random_30_state_dfa())
    assert dual.n > 10_000
    size = len(emit(dual))
    assert emit_peak(dual) < size // 4


def test_emit_of_an_nfa_streams_its_text():
    """The json encoder's pieces go out as they are made, joined in chunks
    of about _CHUNK_CHARS characters: the reversal of a random 20,000-state
    DFA, 1.75 MB of text, peaks below five times its text, most of it the
    document of names."""
    rng = random.Random(20000)
    n = 20000
    m = MooreAutomaton.dfa(n, ("a", "b"), {a: tuple(rng.randrange(n) for _ in range(n))
                                           for a in "ab"},
                           0, [s for s in range(n) if rng.random() < 0.5])
    nfa = reverse(m)
    text = emit(nfa)
    assert emit_peak(nfa) < 5 * len(text)
    out = Recorder()
    emit(nfa, out)
    assert "".join(out.writes) == text
    assert max(map(len, out.writes)) <= 2 * _CHUNK_CHARS


def test_a_named_dual_peaks_at_what_it_stores():
    """The named dual of the same DFA peaks while it names its states, with
    its predicates, its names and its successor lists alive, but no set of
    the names: under 280 bytes a state."""
    m = random_30_state_dfa()
    tracemalloc.start()
    try:
        dual = dual_automaton(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dual.n > 10_000
    assert peak < 280 * dual.n


def test_parse_reads_weighted_values_in_a_named_semiring(data_dir):
    data = (data_dir / "wa_swap.json").read_bytes()
    w = parse(data, "rational")
    assert w.semiring is RATIONAL and w.init == (Fraction(1), Fraction(0))
    assert all(m.semiring is RATIONAL for m in w.mats.values())
    assert parse(data, "rational") == parse(emit(w))
    assert parse((data_dir / "ends_with_a.json").read_bytes(), "nimber").n == 3
    with pytest.raises(FormatError, match=r"^initial\[1\]: int: bad value 'inf'$"):
        parse((data_dir / "wa_tropical.json").read_bytes().replace(b'[3, "inf"]', b"[3, 4]"),
              "int")


DROP = object()  # a field left out of a document

BASES = {
    "dfa": {"type": "dfa", "alphabet": ["a"], "states": ["x", "y"], "initial": "x",
            "transitions": {"a": {"x": "y", "y": "x"}}, "finals": ["y"]},
    "moore": {"type": "moore", "alphabet": ["a"], "states": ["x", "y"], "initial": "x",
              "transitions": {"a": {"x": "y", "y": "x"}}, "outputs": ["lo", "hi"],
              "out": {"x": "lo", "y": "hi"}},
    "nfa": {"type": "nfa", "alphabet": ["a"], "states": ["x", "y"], "initial": ["x"],
            "transitions": {"a": {"x": ["y"]}}, "finals": ["y"]},
    "weighted": {"type": "weighted", "semiring": "int", "alphabet": ["a"], "states": ["x", "y"],
                 "initial": [1, 0], "final": [0, 1], "transitions": {"a": [[0, 1], [1, 0]]}},
    "afa": {"type": "afa", "alphabet": ["a"], "states": ["x", "y"], "finals": ["y"], "iota": "x",
            "transitions": {"a": {"x": "y", "y": "x"}}},
    "dkm": {"type": "dkm", "alphabet": ["a"], "states": ["x", "y"], "obs": ["p"],
            "gamma": {"y": ["p"]}, "transitions": {"a": {"x": "y", "y": "x"}}, "initial": "x"},
}


def _malformed(kind, **changes) -> str:
    doc = {**BASES[kind], **changes}
    return json.dumps({key: value for key, value in doc.items() if value is not DROP})


# (file text, the error it gives): every refusal of the parser, with its field path
MALFORMED = {
    "not json": ("{", "not valid JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1)"),
    "not an object": ("[]", "top level must be an object"),
    "missing field": (_malformed("dfa", initial=DROP), "missing field 'initial'"),
    "wrong field type": (_malformed("dfa", alphabet="a"), "alphabet: expected list, got str"),
    "unknown type": (_malformed("dfa", type="pda"), "type: unknown type 'pda' (expected one "
                                                    "of dfa, moore, nfa, weighted, afa, dkm)"),
    "name not a string": (_malformed("dfa", states=["x", 1]),
                          "states: expected a list of strings"),
    "repeated state": (_malformed("dfa", states=["x", "x"]), "states: names must be distinct"),
    "unknown initial": (_malformed("dfa", initial="z"), "initial: unknown state 'z'"),
    # a long value from the file is quoted in part
    "long initial": (_malformed("dfa", initial="z" * 5000),
                     f"initial: unknown state '{'z' * 60}'..."),
    "long type": (_malformed("dfa", type="p" * 5000), f"type: unknown type '{'p' * 60}'... "
                                                      "(expected one of dfa, moore, nfa, "
                                                      "weighted, afa, dkm)"),
    "unknown letter": (_malformed("dfa", transitions={"b": {"x": "y", "y": "x"}}),
                       "transitions: letters must match the alphabet exactly"),
    "row not a map": (_malformed("dfa", transitions={"a": ["y", "x"]}),
                      "transitions.a: expected a state-to-state map"),
    "missing successor": (_malformed("dfa", transitions={"a": {"x": "y"}}),
                          "transitions.a: every state needs a successor"),
    "unknown target": (_malformed("dfa", transitions={"a": {"x": "y", "y": "z"}}),
                       "transitions.a.y: unknown state 'z'"),
    "no outputs": (_malformed("moore", outputs=[]), "outputs: output set must be nonempty"),
    "missing output": (_malformed("moore", out={"x": "lo"}), "out: every state needs an output"),
    "unknown output": (_malformed("moore", out={"x": "lo", "y": "mid"}),
                       "out.y: unknown output 'mid'"),
    "nfa row not a map": (_malformed("nfa", transitions={"a": ["y"]}),
                          "transitions.a: expected a state-to-targets map"),
    "targets not a list": (_malformed("nfa", transitions={"a": {"x": "y"}}),
                           "transitions.a.x: expected a list of targets"),
    "unknown semiring field type": (_malformed("weighted", semiring=2),
                                    "semiring: expected str, got int"),
    "bad weight": (_malformed("weighted", initial=[1, "1/2"]), "initial[1]: int: bad value '1/2'"),
    # past the interpreter's limit on the digits of an int read from text
    "5000-digit weight": (_malformed("weighted", initial=[1, "1" * 5000]),
                          f"initial[1]: int: bad value '{'1' * 60}'..."),
    "long list weight": (_malformed("weighted", initial=[1, list(range(100))]),
                         "initial[1]: int: bad value "
                         "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1..."),
    "matrix shape": (_malformed("weighted", transitions={"a": [[0, 1]]}),
                     "transitions.a: matrix must be 2x2"),
    "vector length": (_malformed("weighted", final=[1]), "final: final vector must have length 2"),
    "bad formula": (_malformed("afa", iota="w"), "iota: bad formula 'w': unknown name 'w'"),
    "subset not a list": (_malformed("afa", iota=["x"]),
                          "iota[0]: expected a list of state lists"),
    "unknown subset member": (_malformed("afa", iota=[["z"]]), "iota[0]: unknown state 'z'"),
    "condition not a formula": (_malformed("afa", iota=1),
                                "iota: expected a formula string or a list of subsets"),
    "missing condition": (_malformed("afa", transitions={"a": {"x": "y"}}),
                          "transitions.a: every state needs a transition condition"),
    "observations not a list": (_malformed("dkm", gamma={"y": "p"}),
                                "gamma.y: expected a list of observations"),
    "unknown observation": (_malformed("dkm", gamma={"y": ["q"]}),
                            "gamma.y: unknown observation 'q'"),
    "unknown dkm initial": (_malformed("dkm", initial="z"), "initial: unknown state 'z'"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_documents_name_their_field(capsys, tmp_path, case):
    text, error = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["stats", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


def _deep_formula(nots: int) -> str:
    return _malformed("afa", transitions={"a": {"x": "not " * nots + "x", "y": "x"}})


DEEP_FORMULA = "error: transitions.a.x: bad formula 'not not ", ": nested too deeply\n"


@pytest.mark.parametrize("text, start, end", [
    (_deep_formula(1000), *DEEP_FORMULA),
    (_deep_formula(3000), *DEEP_FORMULA),
    ('{"type": "dfa", "alphabet": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "error: not valid JSON: nested too deeply\n", ""),
], ids=["1000 nots", "3000 nots", "100000 nested arrays"])
def test_deep_nesting_is_a_data_error(capsys, tmp_path, text, start, end):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["stats", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(start) and err.endswith(end)
    assert len(err.encode()) < 200  # the formula quoted in part


# an object that is no automaton -> the message of the TypeError emit raises
NOT_AUTOMATA = {
    "a plain object": (object(), "cannot emit object"),
    "a string": ("dfa", "cannot emit str"),
    "None": (None, "cannot emit NoneType"),
}


@pytest.mark.parametrize("case", NOT_AUTOMATA)
def test_emit_refuses_what_is_no_automaton(case):
    obj, message = NOT_AUTOMATA[case]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        emit(obj)
