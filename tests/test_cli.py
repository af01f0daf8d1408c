import json

import pytest

from dualmin import iso_check, parse, reverse
from dualmin.cli import main, parse_trace_formula


def invoke(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_minimize_brzozowski(capsys, data_dir):
    rc, out, _ = invoke(capsys, "minimize", str(data_dir / "ends_with_a.json"))
    assert rc == 0
    result = parse(out)
    assert result.n == 2
    assert iso_check(result, parse((data_dir / "ends_with_a_min.json").read_bytes()))


def test_minimize_methods_agree(capsys, data_dir):
    results = []
    for method in ("brzozowski", "refine", "duality"):
        rc, out, _ = invoke(capsys, "minimize", str(data_dir / "ends_with_a.json"),
                            "--method", method)
        assert rc == 0
        results.append(parse(out))
    assert iso_check(results[0], results[1])
    assert iso_check(results[0], results[2])


def test_minimize_methods_agree_on_moore(capsys, data_dir):
    outputs = []
    for method in ("brzozowski", "refine"):
        rc, out, _ = invoke(capsys, "minimize", str(data_dir / "moore3.json"),
                            "--method", method)
        assert rc == 0
        outputs.append(parse(out))
    assert iso_check(outputs[0], outputs[1])


def test_equiv_verdicts(capsys, data_dir):
    rc, out, _ = invoke(capsys, "equiv", str(data_dir / "ends_with_a.json"),
                        str(data_dir / "ends_with_a_min.json"))
    assert rc == 0 and out.strip() == "equivalent"
    rc, out, _ = invoke(capsys, "equiv", str(data_dir / "ends_with_a.json"),
                        str(data_dir / "moore3.json"))
    assert rc == 1  # output sets differ: reported as an error verdict


def test_run_words(capsys, data_dir):
    rc, out, _ = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "ba")
    assert rc == 0 and out.strip() == "accept"
    rc, out, _ = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "")
    assert rc == 0 and out.strip() == "reject"
    rc, out, _ = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "b,a")
    assert rc == 0 and out.strip() == "accept"
    rc, out, _ = invoke(capsys, "run", str(data_dir / "wa_swap.json"), "-w", "aa")
    assert rc == 0 and out.strip() == "1"


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


def test_hankel(capsys, data_dir):
    rc, out, _ = invoke(capsys, "hankel", str(data_dir / "wa_swap.json"), "-L", "2")
    assert rc == 0 and out.strip() == "1"


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
    rc, _, err = invoke(capsys, "equiv", *map(str, paths), "--max-states", "64")
    assert rc == 3 and "max-states" in err


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


def test_stats(capsys, data_dir):
    rc, out, _ = invoke(capsys, "stats", str(data_dir / "ends_with_a.json"))
    assert rc == 0 and "states=3" in out and "reachable=3" in out


def test_usage_error_exit_code(capsys):
    assert main(["minimize"]) == 2
    assert main(["no-such-verb"]) == 2


def test_guard_exit_code(capsys, data_dir):
    rc, _, err = invoke(capsys, "minimize", str(data_dir / "ends_with_a.json"),
                        "--max-states", "2")
    assert rc == 3
    assert "max-states" in err


def test_data_error_exit_code(capsys, data_dir):
    rc, _, err = invoke(capsys, "stats", str(data_dir / "bad_wa_dims.json"))
    assert rc == 1 and "transitions.a" in err
    rc, _, err = invoke(capsys, "run", str(data_dir / "ends_with_a.json"), "-w", "q")
    assert rc == 1


def test_max_states_env(monkeypatch, capsys, data_dir):
    monkeypatch.setenv("DUALMIN_MAX_STATES", "2")
    rc, _, _ = invoke(capsys, "minimize", str(data_dir / "ends_with_a.json"))
    assert rc == 3


def test_max_states_env_must_be_an_integer(monkeypatch, capsys, data_dir):
    monkeypatch.setenv("DUALMIN_MAX_STATES", "abc")
    rc, out, err = invoke(capsys, "minimize", str(data_dir / "ends_with_a.json"))
    assert rc == 2 and out == ""
    assert "DUALMIN_MAX_STATES" in err


@pytest.mark.parametrize("argv", [
    ("determinize", "nfa_small.json"),
    ("determinize", "wa_bool.json"),
    ("minimize", "wa_bool.json"),
    ("reverse", "afa_ends_with_a.json"),
    ("dual", "afa_ends_with_a.json"),
    ("minimize", "afa_ends_with_a.json"),
    ("closure", "dkm_ends_with_a.json"),
    ("minimize", "dkm_ends_with_a.json"),
    ("minimize", "ends_with_a.json", "--method", "duality"),
], ids=" ".join)
def test_every_construction_honours_max_states(capsys, data_dir, argv):
    verb, name, *rest = argv
    rc, out, err = invoke(capsys, verb, str(data_dir / name), *rest, "--max-states", "1")
    assert rc == 3 and out == ""
    assert "max-states" in err


def test_reverse_nfa_file(capsys, data_dir):
    path = data_dir / "nfa_small.json"
    rc, out, _ = invoke(capsys, "reverse", str(path))
    assert rc == 0
    flipped, original = parse(out), parse(path.read_bytes())
    assert flipped.inits == original.finals and flipped.finals == original.inits
    assert reverse(flipped) == original
    rc, _, err = invoke(capsys, "dual", str(path))
    assert rc == 1 and "dual: unsupported file type" in err


def test_semiring_override(capsys, data_dir):
    rc, out, _ = invoke(capsys, "run", str(data_dir / "wa_swap.json"),
                        "-w", "a", "--semiring", "rational")
    assert rc == 0 and out.strip() == "1/1"


def test_selftest_small(capsys):
    rc, out, _ = invoke(capsys, "selftest", "--seed", "3", "--cases", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8 and all(line.startswith("PASS") for line in lines)


def test_parse_trace_formula():
    f = parse_trace_formula("<a><b>p")
    assert f.word == ("a", "b") and f.obs == "p"
    assert parse_trace_formula("p").word == ()
    with pytest.raises(ValueError):
        parse_trace_formula("<a>")
