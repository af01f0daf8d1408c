"""Check dualmin's answers against `oracle`, never against stored outputs.

    python3 bench/check.py WORKDIR < results.jsonl

reads WORKDIR/jobs.json, then one {"id", "exit"} object per input line, checks
WORKDIR/out/<id>.out for each, and prints one {"id", "ok", "reason", "known"}
line per job; "known" is true for a failure that shows exactly the symptom of
the job's known fault.  It runs in its own process so that loading a large output never grows
the process that launches and measures the jobs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import oracle


class Rejected(Exception):
    pass


def _load(path: Path) -> dict:
    with open(path, "rb") as fh:
        return json.load(fh)


def _text(path: Path) -> str:
    return path.read_text()


def reference_dfa(ref: dict, inputs: Path) -> oracle.Det:
    """The automaton whose language a deterministic output must have."""
    (kind, arg), = ((k, v) for k, v in ref.items() if k != "iota")
    if kind == "input":
        return oracle.det_from_doc(_load(inputs / arg))
    if kind == "reverse_of":
        return oracle.reverse_language_dfa(oracle.det_from_doc(_load(inputs / arg)))
    if kind == "kth":
        return oracle.kth_from_end_dfa(arg)
    if kind == "bool_wa":
        return oracle.bool_wa_subset_dfa(oracle.wa_from_doc(_load(inputs / arg)))
    if kind == "counters":
        return oracle.counter_product_dfa(arg, ref["iota"])
    if kind == "afa":
        return oracle.afa_language_dfa(oracle.afa_from_doc(_load(inputs / arg)))
    if kind == "afa_reverse":
        return oracle.afa_reverse_dfa(oracle.afa_from_doc(_load(inputs / arg)))
    raise ValueError(f"unknown reference {ref!r}")


def check_det(check: dict, out: dict, inputs: Path):
    if out.get("type") not in ("dfa", "moore"):
        raise Rejected(f"expected a dfa or moore file, got {out.get('type')!r}")
    got = oracle.det_from_doc(out)
    if got.n != check["states"]:
        raise Rejected(f"{got.n} states, expected {check['states']}")
    same, witness = oracle.equivalent(reference_dfa(check["ref"], inputs), got)
    if not same:
        raise Rejected(f"wrong language, first difference at {''.join(witness or ())!r}")


def check_wa(check: dict, out: dict, inputs: Path):
    if out.get("type") != "weighted":
        raise Rejected(f"expected a weighted file, got {out.get('type')!r}")
    got = oracle.wa_from_doc(out)
    if got.n != check["dim"]:
        raise Rejected(f"dimension {got.n}, expected {check['dim']}")
    want = oracle.series_table(oracle.wa_from_doc(_load(inputs / check["input"])),
                               check["max_len"])
    have = oracle.series_table(got, check["max_len"])
    bad = next((w for w in want if want[w] != have[w]), None)
    if bad is not None:
        raise Rejected(f"series differs at {''.join(bad)!r}: {have[bad]} != {want[bad]}")


def check_dkm(check: dict, out: dict, inputs: Path):
    if out.get("type") != "dkm":
        raise Rejected(f"expected a dkm file, got {out.get('type')!r}")
    got = oracle.det_from_doc(out)
    if got.n != check["states"]:
        raise Rejected(f"{got.n} states, expected {check['states']}")
    why = oracle.is_bisimulation_quotient(oracle.det_from_doc(_load(inputs / check["input"])),
                                          got)
    if why:
        raise Rejected(why)


def check_closure(check: dict, text: str, inputs: Path):
    doc = _load(inputs / check["input"])
    d = oracle.det_from_doc(doc)
    names = doc["states"]
    want = {frozenset(names[s] for s in range(d.n) if mask >> s & 1)
            for mask in oracle.closure_masks(d, doc["obs"])}
    lines = text.splitlines()
    have = set()
    for line in lines:
        if not (line.startswith("{") and line.endswith("}")):
            raise Rejected(f"bad closure line {line[:60]!r}")
        have.add(frozenset(x for x in line[1:-1].split(",") if x))
    if len(lines) != check["sets"] or len(have) != len(lines):
        raise Rejected(f"{len(lines)} lines, {len(have)} distinct sets, expected {check['sets']}")
    if have != want:
        raise Rejected("the printed family differs from the preimage closure")


def check_job(job: dict, exit_code: int, out_path: Path, inputs: Path) -> str | None:
    """None when the job's exit code and output are right, else the reason."""
    if exit_code != job["exit"]:
        return f"exit {exit_code}, expected {job['exit']}"
    check = job["check"]
    kind = check["kind"]
    try:
        if kind in ("line", "value", "names"):
            text = _text(out_path).strip()
            if kind == "line" and text != check["text"]:
                raise Rejected(f"printed {text[:80]!r}, expected {check['text']!r}")
            if kind == "value" and Fraction(text) != Fraction(check["value"]):
                raise Rejected(f"printed {text[:80]!r}, expected {check['value']}")
            if kind == "names" and sorted(text.split()) != (check["names"] or ["-"]):
                raise Rejected(f"printed {text[:80]!r}, expected {check['names']}")
        elif kind == "closure":
            check_closure(check, _text(out_path), inputs)
        else:
            out = _load(out_path)
            {"det": check_det, "wa": check_wa, "dkm": check_dkm}[kind](check, out, inputs)
    except Rejected as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def shows_known_fault(job: dict, exit_code: int, out_path: Path) -> bool:
    """True when the job exited and printed exactly its known fault's symptom."""
    fault = job["known_fault"]
    return bool(fault) and exit_code == fault["exit"] and \
        out_path.read_bytes() == fault["stdout"].encode()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    work = Path(argv[0])
    jobs = {job["id"]: job for job in json.loads((work / "jobs.json").read_text())}
    for line in sys.stdin:
        if not line.strip():
            continue
        result = json.loads(line)
        job = jobs[result["id"]]
        out_path = work / "out" / f"{job['id']}.out"
        reason = check_job(job, result["exit"], out_path, work / "inputs")
        known = reason is not None and shows_known_fault(job, result["exit"], out_path)
        print(json.dumps({"id": job["id"], "ok": reason is None, "reason": reason,
                          "known": known}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
