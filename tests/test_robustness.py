"""A robustness probe: seeded structural mutations of the files of tests/data,
each run in process through every verb.  A mutation deletes a key, puts in a
value of the wrong type, a huge integer, NaN or a `not` chain 600 deep, or
repeats a name.  Whatever the file, no exception escapes `main`, the exit
code is one of 0-3, and no line of a refusal runs past 200 characters."""

import copy
import json
import pathlib
import random

import pytest

from dualmin.cli import _VERBS, main

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = sorted(p.name for p in DATA.glob("*.json"))
MUTATIONS_PER_KIND = 3

# every verb but selftest: its arguments, FILE standing for the mutated file
# and ORIG for the fixture it came from; BOUND becomes --max-states 2000 where
# the verb takes it
CALLS = [
    ("run", "FILE", "-w", "aa"),
    ("reverse", "FILE"),
    ("determinize", "FILE"),
    ("reach", "FILE"),
    ("dual", "FILE"),
    ("minimize", "FILE", "--method", "brzozowski"),
    ("minimize", "FILE", "--method", "refine"),
    ("minimize", "FILE", "--method", "duality"),
    ("equiv", "FILE", "ORIG"),
    ("trace-eval", "FILE", "-f", "<a>p"),
    ("closure", "FILE"),
    ("hankel", "FILE", "-L", "2"),
    ("stats", "FILE"),
]
BOUND = ("--max-states", "2000")
WRONG_TYPES = (None, True, 7, 1.5, "x", [], {}, ["x"], {"x": "x"})


def slots(doc) -> list:
    """Every (container, key) below the root of a JSON document, a key being
    an object's key or an array's index."""
    out = []

    def visit(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, child in items:
            out.append((node, key))
            visit(child)

    visit(doc)
    return out


def delete_key(rng, doc):
    node, key = rng.choice([(node, key) for node, key in slots(doc) if isinstance(node, dict)])
    del node[key]


def wrong_type(rng, doc):
    node, key = rng.choice(slots(doc))
    node[key] = rng.choice([v for v in WRONG_TYPES if type(v) is not type(node[key])])


def huge_integer(rng, doc):
    node, key = rng.choice(slots(doc))
    node[key] = rng.choice((10 ** 400, -2 ** 64))


def nan(rng, doc):
    node, key = rng.choice(slots(doc))
    node[key] = float("nan")


def deep_not(rng, doc):
    node, key = rng.choice([(node, key) for node, key in slots(doc)
                            if isinstance(node[key], str)])
    node[key] = "not " * 600 + node[key]


def repeat_name(rng, doc):
    names = rng.choice([node[key] for node, key in slots(doc)
                        if isinstance(node[key], list) and node[key]
                        and all(isinstance(v, str) for v in node[key])])
    names.insert(rng.randrange(len(names) + 1), rng.choice(names))


MUTATIONS = (delete_key, wrong_type, huge_integer, nan, deep_not, repeat_name)


def argv(call, path, orig) -> list[str]:
    verb = call[0]
    args = [path if a == "FILE" else orig if a == "ORIG" else a for a in call]
    return args + list(BOUND) if _VERBS[verb][3] else args


def test_the_calls_cover_every_verb_but_selftest():
    assert {call[0] for call in CALLS} == set(_VERBS) - {"selftest"}


@pytest.mark.parametrize("name", FIXTURES)
def test_mutated_files_exit_0_to_3(capsys, tmp_path, name):
    orig = DATA / name
    doc = json.loads(orig.read_text())
    rng = random.Random(f"probe:{name}")
    codes = set()
    for i, mutate in enumerate(MUTATIONS * MUTATIONS_PER_KIND):
        mutated = copy.deepcopy(doc)
        mutate(rng, mutated)
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(mutated))
        for call in CALLS:
            args = argv(call, str(path), str(orig))
            try:
                rc = main(args)
            except Exception as exc:  # an escape fails the test with its call
                pytest.fail(f"{' '.join(args)} raised {exc!r} on {mutate.__name__}")
            err = capsys.readouterr().err
            assert rc in (0, 1, 2, 3), (args, mutate.__name__, rc)
            # a refusal quotes a long value from the file in part
            assert all(len(line) <= 200 for line in err.splitlines()), (args, err[:300])
            codes.add(rc)
    assert 1 in codes  # some mutation was refused, so the probe reached the checks
