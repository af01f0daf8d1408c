import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from io import StringIO

import pytest

from dualmin import (BOOL, INT, RATIONAL, TROPICAL, TROPICAL_INF,
                     AlternatingAutomaton, BoolFun, Dkm, FormatError, MooreAutomaton, Nfa,
                     WeightedAutomaton, brzozowski_minimise, emit, parse, run)
from dualmin.io import _BATCH_CHARS
from dualmin.sampling import random_afa, random_dfa, random_dkm, random_moore, random_wa

from oracles import always, emit_json, ends_with_a_dfa, is_dfa, random_nfa


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


def test_afa_formula_and_subset_forms_agree(data_dir):
    by_formula = parse((data_dir / "afa_ends_with_a.json").read_bytes())
    assert isinstance(by_formula, AlternatingAutomaton)
    from dualmin import AlternatingAutomaton as AA
    embedded = AA.from_dfa(ends_with_a_dfa())
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
# printable range, and one longer than a batch
ODD = ('q"uote', "back\\slash", "ctl\x01\x1f", "new\nline", "tab\t", "\x7f", "café", "Straße",
       "\u2028", "astral \U0001d504", "", " ", "~", "+", "empty", "Zed", "ab",
       "é" * 300, "n" * (_BATCH_CHARS + 1))


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
    """The Brzozowski-minimal DFA for "the k-th letter from the end is a",
    whose 2**k states have nested subset names that json escapes none of."""
    n, last = 1 << k, (1 << k) - 1
    m = MooreAutomaton.dfa(n, ("a", "b"), {"a": tuple((s << 1 | 1) & last for s in range(n)),
                                           "b": tuple((s << 1) & last for s in range(n))},
                           0, [s for s in range(n) if s >> (k - 1) & 1])
    minimal = brzozowski_minimise(m)
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
    assert total > 16 * _BATCH_CHARS
    # a batch of pieces and its joined text, but no second copy of the names
    assert emit_peak(minimal) < total // 2 + 2 * _BATCH_CHARS


def test_emit_holds_a_document_under_one_batch_once():
    minimal = kth_from_end_minimal(6)  # names of about 600 characters each
    size = len(emit(minimal))
    assert size < _BATCH_CHARS
    # the long names are pieces of their own, not copied into their entries
    assert emit_peak(minimal) < size * 5 // 4


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
