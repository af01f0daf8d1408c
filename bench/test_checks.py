"""The benchmark's answer checks must accept a right answer and reject wrong ones.

    python3 -m unittest discover -s bench -p 'test_*.py'

Every case builds its input and its candidate output by hand, so these tests
need neither dualmin nor a run of the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from oracle import Det  # noqa: E402


class CheckCase(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = Path(tmp.name)
        (self.root / "inputs").mkdir()

    def verdict(self, job: dict, files: dict, output: str, exit_code: int = 0):
        for name, doc in files.items():
            (self.root / "inputs" / name).write_text(json.dumps(doc))
        out = self.root / "job.out"
        out.write_text(output)
        return check.check_job(job, exit_code, out, self.root / "inputs")

    def job(self, args, check_spec, exit_code=0):
        return {"id": "t", "args": args, "exit": exit_code, "check": check_spec,
                "known_fault": None}


def wa_direct_sum(x: oracle.Wa, y: oracle.Wa) -> oracle.Wa:
    n, m = x.n, y.n
    mats = {a: [row + [0] * m for row in x.mats[a]] + [[0] * n + row for row in y.mats[a]]
            for a in x.alphabet}
    return oracle.Wa(x.alphabet, x.ring, mats, x.init + y.init, x.final + y.final)


def word_indicator(word: str, ring: str) -> oracle.Wa:
    """Series 1 at `word` and 0 everywhere else, on len(word)+1 states."""
    k = len(word)
    mats = {a: [[int(y == x + 1 and word[x] == a) for x in range(k + 1)] for y in range(k + 1)]
            for a in "ab"}
    return oracle.Wa(["a", "b"], ring, mats, [1] + [0] * k, [0] * k + [1])


class DeterministicChecks(CheckCase):
    n = 12

    def test_minimal_chain_accepted_non_minimal_rejected(self):
        files = {"in.json": gen.det_doc(gen.permuted(gen.chain(self.n), gen.random.Random(1)))}
        job = self.job(["minimize", "in.json"], gen.det_check({"input": "in.json"}, self.n))
        self.assertIsNone(self.verdict(job, files, json.dumps(gen.det_doc(gen.chain(self.n)))))
        # same language, one state more: the last state's b leads to a copy of state 0
        c = gen.chain(self.n)
        bloated = Det(c.alphabet, {"a": c.trans["a"] + [1], "b": c.trans["b"][:-1] + [self.n, 0]},
                      0, c.out + ["reject"])
        self.assertTrue(oracle.equivalent(c, bloated)[0])
        why = self.verdict(job, files, json.dumps(gen.det_doc(bloated)))
        self.assertIn("states", why)

    def test_wrong_language_rejected(self):
        k = 4
        files = {"in.json": gen.det_doc(oracle.kth_from_end_dfa(k))}
        job = self.job(["minimize", "in.json"], gen.det_check({"kth": k}, 2 ** k))
        right = oracle.kth_from_end_dfa(k)
        self.assertIsNone(self.verdict(job, files, json.dumps(gen.det_doc(right))))
        right.out[3] = "accept" if right.out[3] == "reject" else "reject"
        self.assertIn("wrong language", self.verdict(job, files, json.dumps(gen.det_doc(right))))

    def test_dual_must_read_words_reversed(self):
        # "the last letter is a": its reversal, "the first letter is a", differs
        ends_a = Det(["a", "b"], {"a": [1, 1], "b": [0, 0]}, 0, ["reject", "accept"])
        rev = oracle.reverse_language_dfa(ends_a)
        self.assertFalse(oracle.equivalent(ends_a, rev)[0])
        files = {"in.json": gen.det_doc(ends_a)}
        job = self.job(["dual", "in.json"], gen.det_check({"reverse_of": "in.json"}, rev.n))
        self.assertIsNone(self.verdict(job, files, json.dumps(gen.det_doc(rev))))
        # the input itself, with the state count it has, reads words forward
        job["check"]["states"] = ends_a.n
        self.assertIn("wrong language",
                      self.verdict(job, files, json.dumps(gen.det_doc(ends_a))))


class VerdictChecks(CheckCase):
    def test_wrong_verdict_rejected(self):
        job = self.job(["equiv", "x.json", "y.json"],
                       {"kind": "line", "text": "not equivalent"}, exit_code=1)
        self.assertIsNone(self.verdict(job, {}, "not equivalent\n", exit_code=1))
        self.assertIn("exit 0", self.verdict(job, {}, "equivalent\n", exit_code=0))
        self.assertIn("printed", self.verdict(job, {}, "equivalent\n", exit_code=1))

    def test_known_fault_only_with_its_exact_symptom(self):
        job = self.job(["equiv", "x.json", "y.json"],
                       {"kind": "line", "text": "not equivalent"}, exit_code=1)
        job["known_fault"] = gen.bounded_equiv("test files")
        out = self.root / "job.out"
        for output, exit_code, known in (("equivalent\n", 0, True),
                                         ("equivalent\n", 2, False),
                                         ("Traceback (most recent call last):\n", 1, False),
                                         ("", 0, False),
                                         ("equivalent up to length 6\n", 0, False)):
            out.write_text(output)
            self.assertEqual(check.shows_known_fault(job, exit_code, out), known,
                             (output, exit_code))
        job["known_fault"] = None
        out.write_text("equivalent\n")
        self.assertFalse(check.shows_known_fault(job, 0, out))

    def test_wrong_value_rejected(self):
        job = self.job(["run", "w.json", "-w", "ab"], {"kind": "value", "value": "7/3"})
        self.assertIsNone(self.verdict(job, {}, "7/3\n"))
        self.assertIsNotNone(self.verdict(job, {}, "10/3\n"))


class WeightedChecks(CheckCase):
    def setUp(self):
        super().setUp()
        self.padded, self.core = gen.padded_wa(3, 2, 2, "int", gen.random.Random(5))
        self.files = {"in.json": gen.wa_doc(self.padded)}

    def test_minimal_dimension_accepted_wrong_dimension_rejected(self):
        job = self.job(["minimize", "in.json"],
                       {"kind": "wa", "input": "in.json", "dim": 3, "max_len": 5})
        self.assertIsNone(self.verdict(job, self.files, json.dumps(gen.wa_doc(self.core))))
        why = self.verdict(job, self.files, json.dumps(gen.wa_doc(self.padded)))
        self.assertIn("dimension 7", why)

    def test_series_off_by_one_at_one_word_rejected(self):
        bumped = wa_direct_sum(self.core, word_indicator("ab", "int"))
        job = self.job(["minimize", "in.json"],
                       {"kind": "wa", "input": "in.json", "dim": bumped.n, "max_len": 5})
        self.assertIn("series differs at 'ab'",
                      self.verdict(job, self.files, json.dumps(gen.wa_doc(bumped))))

    def test_hankel_rank_matches_construction(self):
        self.assertEqual(oracle.hankel_rank(self.padded), 3)
        self.assertEqual(oracle.hankel_block_rank(self.padded, 3), 3)


class KripkeChecks(CheckCase):
    def test_quotient_must_be_minimal_and_bisimilar(self):
        n = 8
        line = Det(["a", "b"], {"a": [min(i + 1, n - 1) for i in range(n)], "b": list(range(n))},
                   0, [("p",) if i == n - 1 else () for i in range(n)])
        files = {"in.json": gen.dkm_doc(line, ["p"])}
        job = self.job(["minimize", "in.json"], {"kind": "dkm", "input": "in.json", "states": n})
        self.assertIsNone(self.verdict(job, files, json.dumps(gen.dkm_doc(line, ["p"]))))
        merged = Det(["a", "b"], {"a": [min(i + 1, n - 2) for i in range(n - 1)],
                                  "b": list(range(n - 1))},
                     0, [("p",) if i == n - 2 else () for i in range(n - 1)])
        job["check"]["states"] = n - 1
        self.assertIsNotNone(self.verdict(job, files, json.dumps(gen.dkm_doc(merged, ["p"]))))

    def test_closure_must_be_the_whole_family(self):
        n = 5
        line = Det(["a", "b"], {"a": [min(i + 1, n - 1) for i in range(n)], "b": list(range(n))},
                   0, [("p",) if i == n - 1 else () for i in range(n)])
        doc = gen.dkm_doc(line, ["p"])
        names = doc["states"]
        family = sorted(oracle.closure_masks(line, ["p"]))
        lines = ["{" + ",".join(names[s] for s in range(n) if m >> s & 1) + "}" for m in family]
        job = self.job(["closure", "in.json"],
                       {"kind": "closure", "input": "in.json", "sets": len(family)})
        self.assertIsNone(self.verdict(job, {"in.json": doc}, "\n".join(lines) + "\n"))
        self.assertIsNotNone(self.verdict(job, {"in.json": doc}, "\n".join(lines[:-1]) + "\n"))


class AlternatingChecks(CheckCase):
    def test_counter_product_matches_recursive_semantics(self):
        counters = [("a", ["u0", "u1", "u2"]), ("b", ["v0", "v1"])]
        iota = "(u0 and not v1) or (u2 and v0)"
        doc = gen.counter_afa(counters, iota, gen.random.Random(2))
        afa = oracle.afa_from_doc(doc)
        product = oracle.counter_product_dfa(counters, iota)
        language = oracle.afa_language_dfa(afa)
        self.assertTrue(oracle.equivalent(product, language)[0])
        for word in ("", "a", "ab", "aab", "abba", "bbbaaa", "aaabb"):
            self.assertEqual(oracle.afa_accepts(afa, word),
                             oracle.det_run(product, word) == "accept", word)

    def test_afa_minimize_rejects_a_dfa_for_another_formula(self):
        counters = [("a", ["u0", "u1", "u2"]), ("b", ["v0", "v1"])]
        doc = gen.counter_afa(counters, "u0 or v1", gen.random.Random(2))
        files = {"in.json": doc}
        right = oracle.counter_product_dfa(counters, "u0 or v1")
        job = self.job(["minimize", "in.json"], gen.det_check(
            {"counters": counters, "iota": "u0 or v1"}, right.n))
        self.assertIsNone(self.verdict(job, files, json.dumps(gen.det_doc(right))))
        wrong = oracle.counter_product_dfa(counters, "u0 and v1")
        self.assertIsNotNone(self.verdict(job, files, json.dumps(gen.det_doc(wrong))))


if __name__ == "__main__":
    unittest.main()
