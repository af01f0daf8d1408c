"""JSON serialization for every automaton kind and the shared file schema.

A file is one JSON object with a "type" of dfa, moore, nfa, weighted, afa or
dkm, an "alphabet", a list of "states" (names fix the index order), and
type-specific fields.  Parse errors carry the path of the offending field.
Emission is canonical: keys are sorted and states are listed in index order,
so parse(emit(x)) reproduces x exactly, except for an integer past the
interpreter's limit on the digits it reads (a weight, or a rational's
numerator or denominator): emit writes it in full and parse refuses it.
The text is that of json.dumps(doc, indent=2, sort_keys=True) + "\n".  A
DFA or Moore document is written straight from the automaton's arrays, its
lists and maps as rows in chunks of about 64 KiB (_moore_pieces); other
kinds go through a document of names and the json module's own encoder.
emit(x, fp) streams either text through write_chunks, which joins its pieces
in writes of about 64 KiB.

Number forms: rationals are "p/q" strings, integers are JSON numbers within
the 53-bit safe range and strings beyond it, tropical infinity is "inf".

A file kind's classes are read through the package's name table, as
`dualmin.<name>`, so reading a DFA loads no weighted, alternating or Kripke code.
"""

from __future__ import annotations

import json
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii

import dualmin

from .automata import DFA_OUTPUTS, MooreAutomaton, Nfa, state_labels
from .errors import FormatError, quoted

KNOWN_TYPES = ("dfa", "moore", "nfa", "weighted", "afa", "dkm")


def _require(doc: dict, key: str, kind):
    if key not in doc:
        raise FormatError(f"missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise FormatError(f"expected {kind.__name__}, got {type(value).__name__}", key)
    return value


def _distinct(items: list, path: str) -> list:
    if len(set(items)) != len(items):
        raise FormatError("names must be distinct", path)
    return items


def _name_list(raw, path: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise FormatError("expected a list of strings", path)
    return tuple(_distinct(raw, path))


def _state_index(name, states: dict[str, int], path: str) -> int:
    if not isinstance(name, str) or name not in states:
        raise FormatError(f"unknown state {quoted(name)}", path)
    return states[name]


def _state_indices(doc, key: str, states: dict[str, int]) -> list[int]:
    """The states of the list doc[key], each named once."""
    return _distinct([_state_index(s, states, key) for s in _require(doc, key, list)], key)


def _transitions(doc, alphabet) -> dict:
    """The "transitions" object, its letters checked against the alphabet."""
    raw = _require(doc, "transitions", dict)
    if set(raw) != set(alphabet):
        raise FormatError("letters must match the alphabet exactly", "transitions")
    return raw


def _det_transitions(doc, alphabet, states):
    trans = {}
    for a, row in _transitions(doc, alphabet).items():
        if not isinstance(row, dict):
            raise FormatError("expected a state-to-state map", f"transitions.{a}")
        if set(row) != set(states):
            raise FormatError("every state needs a successor", f"transitions.{a}")
        try:  # one C pass; a target that is no state name takes the checked route
            trans[a] = tuple(map(states.__getitem__, map(row.__getitem__, states)))
        except (KeyError, TypeError):
            trans[a] = tuple(_state_index(row[name], states, f"transitions.{a}.{name}")
                             for name in states)
    return trans


def parse(data: bytes | str, semiring: str | None = None):
    """Decode one automaton file into its typed in-memory form; a weighted
    file's values are read in `semiring` when one is named (its own must
    still be a valid name), other files ignore it."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    kind = _require(doc, "type", str)
    if kind not in KNOWN_TYPES:
        raise FormatError(f"unknown type {quoted(kind)} "
                          f"(expected one of {', '.join(KNOWN_TYPES)})", "type")
    alphabet = _name_list(_require(doc, "alphabet", list), "alphabet")
    names = _name_list(_require(doc, "states", list), "states")
    states = {name: i for i, name in enumerate(names)}
    if kind == "weighted":
        return _parse_weighted(doc, alphabet, names, semiring)
    parser = {"dfa": _parse_dfa, "moore": _parse_moore, "nfa": _parse_nfa,
              "afa": _parse_afa, "dkm": _parse_dkm}[kind]
    return parser(doc, alphabet, names, states)


def _parse_dfa(doc, alphabet, names, states):
    trans = _det_transitions(doc, alphabet, states)
    init = _state_index(_require(doc, "initial", str), states, "initial")
    return MooreAutomaton.dfa(len(names), alphabet, trans, init,
                              _state_indices(doc, "finals", states), names)


def _parse_moore(doc, alphabet, names, states):
    trans = _det_transitions(doc, alphabet, states)
    init = _state_index(_require(doc, "initial", str), states, "initial")
    outputs = _name_list(_require(doc, "outputs", list), "outputs")
    if not outputs:
        raise FormatError("output set must be nonempty", "outputs")
    raw_out = _require(doc, "out", dict)
    if set(raw_out) != set(names):
        raise FormatError("every state needs an output", "out")
    out = []
    for name in names:
        label = raw_out[name]
        if label not in outputs:
            raise FormatError(f"unknown output {quoted(label)}", f"out.{name}")
        out.append(outputs.index(label))
    return MooreAutomaton(len(names), alphabet, trans, init, tuple(out), outputs, names)


def _parse_nfa(doc, alphabet, names, states):
    trans = {}
    for a, row in _transitions(doc, alphabet).items():
        if not isinstance(row, dict):
            raise FormatError("expected a state-to-targets map", f"transitions.{a}")
        for name in row:
            _state_index(name, states, f"transitions.{a}.{name}")
        per_state = []
        for name in names:
            targets = row.get(name, [])
            if not isinstance(targets, list):
                raise FormatError("expected a list of targets", f"transitions.{a}.{name}")
            per_state.append(frozenset(_state_index(t, states, f"transitions.{a}.{name}")
                                       for t in targets))
        trans[a] = tuple(per_state)
    inits = frozenset(_state_indices(doc, "initial", states))
    finals = frozenset(_state_indices(doc, "finals", states))
    return Nfa(len(names), alphabet, trans, inits, finals, names)


def _parse_value(semiring, raw, path):
    try:
        return semiring.coerce(raw)
    except (ValueError, TypeError) as exc:
        raise FormatError(str(exc), path) from None


def _parse_weighted(doc, alphabet, names, override):
    semiring = dualmin.semiring_by_name(_require(doc, "semiring", str))
    semiring = dualmin.semiring_by_name(override) if override else semiring
    n = len(names)
    mats = {}
    for a, rows in _transitions(doc, alphabet).items():
        if not isinstance(rows, list) or len(rows) != n \
                or any(not isinstance(r, list) or len(r) != n for r in rows):
            raise FormatError(f"matrix must be {n}x{n}", f"transitions.{a}")
        mats[a] = dualmin.Matrix(semiring, n, n, tuple(
            tuple(_parse_value(semiring, v, f"transitions.{a}[{y}][{x}]")
                  for x, v in enumerate(row)) for y, row in enumerate(rows)))
    vectors = []
    for key in ("initial", "final"):
        raw_vector = _require(doc, key, list)
        if len(raw_vector) != n:
            raise FormatError(f"{key} vector must have length {n}", key)
        vectors.append(tuple(_parse_value(semiring, v, f"{key}[{i}]")
                             for i, v in enumerate(raw_vector)))
    return dualmin.WeightedAutomaton(n, alphabet, semiring, mats, *vectors, names)


def _parse_afa(doc, alphabet, names, states):
    def boolfun(raw, path) -> dualmin.BoolFun:
        if isinstance(raw, str):
            try:
                return dualmin.compile_formula(raw, names)
            except ValueError as exc:
                raise FormatError(str(exc), path) from None
        if isinstance(raw, list):
            subsets = []
            for i, subset in enumerate(raw):
                if not isinstance(subset, list):
                    raise FormatError("expected a list of state lists", f"{path}[{i}]")
                subsets.append(frozenset(_state_index(s, states, f"{path}[{i}]")
                                         for s in subset))
            return dualmin.BoolFun(len(names), subsets)
        raise FormatError("expected a formula string or a list of subsets", path)

    delta = {}
    for a, row in _transitions(doc, alphabet).items():
        if not isinstance(row, dict) or set(row) != set(names):
            raise FormatError("every state needs a transition condition", f"transitions.{a}")
        delta[a] = tuple(boolfun(row[name], f"transitions.{a}.{name}") for name in names)
    iota = boolfun(_require(doc, "iota", None), "iota")
    finals = frozenset(_state_indices(doc, "finals", states))
    return dualmin.AlternatingAutomaton(len(names), alphabet, delta, iota, finals, names)


def _parse_dkm(doc, alphabet, names, states):
    obs = _name_list(_require(doc, "obs", list), "obs")
    raw_gamma = _require(doc, "gamma", dict)
    for name in raw_gamma:
        _state_index(name, states, f"gamma.{name}")
    gamma = []
    for name in names:
        seen = raw_gamma.get(name, [])
        if not isinstance(seen, list):
            raise FormatError("expected a list of observations", f"gamma.{name}")
        for w in seen:
            if w not in obs:
                raise FormatError(f"unknown observation {quoted(w)}", f"gamma.{name}")
        gamma.append(frozenset(_distinct(seen, f"gamma.{name}")))
    delta = _det_transitions(doc, alphabet, states)
    init = None
    if doc.get("initial") is not None:
        init = _state_index(doc["initial"], states, "initial")
    return dualmin.Dkm(len(names), alphabet, obs, tuple(gamma), delta, init, names)


def emit_value(semiring, v):
    # by name, so that writing a value needs no import of the semiring module
    if semiring.name == "rational":
        return f"{_digits(v.numerator)}/{_digits(v.denominator)}"
    if v == float("inf"):  # the tropical zero
        return "inf"
    return v if -2**53 <= v <= 2**53 else _digits(v)


def _digits(v: int) -> str:
    """str(v) past the interpreter's limit on the digits of an int turned into
    text, which guards parsing: a longer value is written as two halves."""
    try:
        return str(v)
    except ValueError:
        k = v.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        high, low = divmod(abs(v), 10 ** k)
        return "-" * (v < 0) + _digits(high) + _digits(low).zfill(k)


# With stdout unbuffered (PYTHONUNBUFFERED) each write is a system call, and
# the encoder's pieces are a few characters each, so pieces go out joined in
# chunks; _moore_pieces makes its chunks of rows the same size.
_CHUNK_CHARS = 1 << 16


def write_chunks(pieces, fp) -> None:
    """Write the strings `pieces` to fp.write joined in chunks: each chunk but
    the last holds at least _CHUNK_CHARS characters."""
    chunk: list[str] = []
    size = 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece)
        if size >= _CHUNK_CHARS:
            fp.write("".join(chunk))
            chunk, size = [], 0
    fp.write("".join(chunk))


def emit(obj, fp=None) -> str | None:
    """Canonical JSON for any supported automaton (sorted keys, index order).

    Without `fp` the text is returned; with `fp` it is written to fp.write
    by write_chunks, and None is returned.
    """
    if getattr(obj, "kind", None) == "moore":
        pieces = _moore_pieces(obj)
    else:
        encoder = json.JSONEncoder(indent=2, sort_keys=True)
        pieces = chain(encoder.iterencode(_document(obj)), ("\n",))
    if fp is None:
        return "".join(pieces)
    write_chunks(pieces, fp)
    return None


def _document(obj) -> dict:
    """The JSON document of an automaton other than a Moore automaton, before
    it is written as text: each automaton class names its kind in its `kind`
    attribute."""
    kind = getattr(obj, "kind", None)
    if kind == "restricted":
        obj, kind = obj.automaton, "weighted"
    document = {"nfa": _emit_nfa, "weighted": _emit_weighted, "afa": _emit_afa,
                "dkm": _emit_dkm}.get(kind)
    if document is None:
        raise TypeError(f"cannot emit {type(obj).__name__}")
    return document(obj)


def _body(s: str) -> str:
    """s as json writes it between its quotes: s itself unless json must
    escape a character of it (all but printable ASCII, quote and backslash)."""
    clean = s.isascii() and s.isprintable() and '"' not in s and "\\" not in s
    return s if clean else encode_basestring_ascii(s)[1:-1]


def _moore_pieces(m: MooreAutomaton):
    """The text of m's DFA document (outputs reject and accept) or Moore
    document, as json.dumps writes it, in pieces made straight from m's arrays.

    Each name is escaped once (the labels serve as they are when none needs
    it), one sort of the names orders `out` and every letter's transition
    map, and the rows of a list or map are joined into chunks of about
    _CHUNK_CHARS characters, read from their items as the chunks are made.
    """
    labels = state_labels(m.state_names, m.n)
    names = labels if all(_body(s) is s for s in labels) else list(map(_body, labels))
    outs, letters = (list(map(_body, xs)) for xs in (m.outputs, m.alphabet))
    by_name = sorted(range(m.n), key=labels.__getitem__)
    per = max(1, _CHUNK_CHARS // (2 * max(map(len, chain(names, outs, letters))) + 16))

    def block(items, rows, indent: str, brackets: str):
        """A list or map at `indent` with one row per item; rows(chunk) formats a chunk's rows."""
        items = iter(items)
        chunk = list(islice(items, per))
        if not chunk:
            yield brackets
            return
        inner = indent + "  "
        sep = "," + inner
        yield brackets[0] + inner
        yield sep.join(rows(chunk))
        while chunk := list(islice(items, per)):
            yield sep
            yield sep.join(rows(chunk))
        yield indent + brackets[1]

    def quoted(strings):
        return lambda chunk: [f'"{strings[i]}"' for i in chunk]

    def mapped(targets, values):  # the row of state s is "s": "values[targets[s]]"
        return lambda chunk: [f'"{names[s]}": "{values[targets[s]]}"' for s in chunk]

    dfa = m.outputs == DFA_OUTPUTS
    yield '{\n  "alphabet": '
    yield from block(range(len(letters)), quoted(letters), "\n  ", "[]")
    if dfa:
        yield ',\n  "finals": '
        yield from block(compress(range(m.n), m.out), quoted(names), "\n  ", "[]")
    yield f',\n  "initial": "{names[m.init]}"'
    if not dfa:
        yield ',\n  "out": '
        yield from block(by_name, mapped(m.out, outs), "\n  ", "{}")
        yield ',\n  "outputs": '
        yield from block(range(len(outs)), quoted(outs), "\n  ", "[]")
    yield ',\n  "states": '
    yield from block(range(m.n), quoted(names), "\n  ", "[]")
    yield ',\n  "transitions": {'
    for i, a in enumerate(sorted(m.alphabet)):
        yield f'{"," if i else ""}\n    "{_body(a)}": '
        yield from block(by_name, mapped(m.trans[a], names), "\n    ", "{}")
    yield f'\n  }},\n  "type": "{"dfa" if dfa else "moore"}"\n}}\n'


def _emit_nfa(n: Nfa) -> dict:
    names = state_labels(n.state_names, n.n)
    trans = {a: {names[s]: sorted(names[t] for t in n.trans[a][s])
                 for s in range(n.n) if n.trans[a][s]}
             for a in n.alphabet}
    return {"type": "nfa", "alphabet": list(n.alphabet), "states": list(names),
            "initial": sorted(names[s] for s in n.inits), "transitions": trans,
            "finals": sorted(names[s] for s in n.finals)}


def _emit_weighted(w: WeightedAutomaton) -> dict:
    names = state_labels(w.state_names, w.n)
    return {"type": "weighted", "semiring": w.semiring.name,
            "alphabet": list(w.alphabet), "states": list(names),
            "initial": [emit_value(w.semiring, v) for v in w.init],
            "final": [emit_value(w.semiring, v) for v in w.final],
            "transitions": {a: [[emit_value(w.semiring, v) for v in row]
                                for row in w.mats[a].entries]
                            for a in w.alphabet}}


def _emit_boolfun(f: BoolFun, names) -> list:
    """f's satisfying subsets, asked of all 2^n masks (no verb emits an AFA)."""
    return sorted(([names[s] for s in sorted(subset)] for subset in f.sats),
                  key=lambda xs: (len(xs), xs))


def _emit_afa(a: AlternatingAutomaton) -> dict:
    names = state_labels(a.state_names, a.n)
    return {"type": "afa", "alphabet": list(a.alphabet), "states": list(names),
            "finals": sorted(names[s] for s in a.finals),
            "iota": _emit_boolfun(a.iota, names),
            "transitions": {letter: {names[s]: _emit_boolfun(a.delta[letter][s], names)
                                     for s in range(a.n)}
                            for letter in a.alphabet}}


def _emit_dkm(k: Dkm) -> dict:
    names = state_labels(k.state_names, k.n)
    doc = {"type": "dkm", "alphabet": list(k.alphabet), "states": list(names),
           "obs": list(k.obs),
           "gamma": {names[s]: sorted(k.gamma[s]) for s in range(k.n)},
           "transitions": {a: {names[s]: names[k.delta[a][s]] for s in range(k.n)}
                           for a in k.alphabet}}
    if k.init is not None:
        doc["initial"] = names[k.init]
    return doc
