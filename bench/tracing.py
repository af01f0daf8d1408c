"""Per-layer timing of the benchmark's job list, inside one process.

bench/run.py --trace 1 calls traced_run().  Each job runs through
`dualmin.cli.main` with its stdout on a file, exactly as the CLI would.
Untraced rounds alternate with traced rounds; in a traced round the public
functions of dualmin's modules are replaced, in every module that imported
them, by wrappers that record a span (name, start, end, parent) and exact
counts taken from the arguments and results.  Nothing under src/ changes,
and the wrappers are removed again after each traced round.

A span's self time is its duration minus the time its child spans cover;
the time a wrapper spends on its own counting is charged to no span.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute or Class.attribute, span name)
WRAPPED = [
    ("io", "parse", "io.parse"),
    ("io", "emit", "io.emit"),
    ("automata", "partition_refinement_minimise", "automata.refine"),
    ("automata", "reach", "automata.reach"),
    ("automata", "equiv_exact", "automata.equiv"),
    ("automata", "determinise", "automata.determinise"),
    ("automata", "reverse", "automata.reverse"),
    ("brzozowski", "brzozowski_minimise", "brzozowski.minimise"),
    ("brzozowski", "dual_automaton", "brzozowski.pass"),  # pass1 or pass2, see Tracer
    ("weighted", "reach_restrict", "weighted.reach_restrict"),
    ("weighted", "minimise_wa", "weighted.minimise"),
    ("weighted", "dual_wa", "weighted.dual"),
    ("weighted", "eval_series", "weighted.eval"),
    ("weighted", "hankel_rank_oracle", "weighted.hankel"),
    ("linalg", "FieldBasis.insert", "linalg.field_insert"),
    ("linalg", "IntegerBasis.insert", "linalg.int_insert"),
    ("linalg", "FieldBasis.coordinates", "linalg.coordinates"),
    ("linalg", "IntegerBasis.coordinates", "linalg.coordinates"),
    ("linalg", "hnf", "linalg.hnf"),
    ("semiring", "mat_vec", "semiring.mat_vec"),
    ("semiring", "vec_mat", "semiring.vec_mat"),
    ("semiring", "mat_mul", "semiring.mat_mul"),
    ("alternating", "compile_formula", "alternating.compile"),
    ("alternating", "reverse_dfa", "alternating.reverse"),
    ("alternating", "minimal_dfa_for_afa", "alternating.minimal_dfa"),
    ("alternating", "afa_accepts", "alternating.accepts"),
    ("dkm", "definable_closure", "dkm.closure"),
    ("dkm", "boolean_atoms", "dkm.atoms"),
    ("dkm", "bisimulation_oracle", "dkm.bisim"),
    ("dkm", "quotient_dkm", "dkm.quotient"),
    ("dkm", "minimise_dkm", "dkm.minimise"),
    ("dkm", "eval_trace", "dkm.eval_trace"),
]

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("cli.import_ms", "ms"), ("cli.self_s", "s"),
    ("io.parse_s", "s"), ("io.emit_s", "s"),
    ("automata.refine_s", "s"), ("automata.refine_rounds", "count"),
    ("automata.reach_s", "s"), ("automata.equiv_s", "s"),
    ("automata.determinise_s", "s"), ("automata.determinise_states", "count"),
    ("brzozowski.pass1_s", "s"), ("brzozowski.pass1_states", "count"),
    ("brzozowski.pass2_s", "s"), ("brzozowski.pass2_states", "count"),
    ("brzozowski.name_chars", "count"),
    ("weighted.reach_restrict_s", "s"), ("weighted.reach_restrict_calls", "count"),
    ("weighted.minimise_s", "s"), ("weighted.min_dim", "count"),
    ("linalg.field_insert_s", "s"), ("linalg.field_insert_calls", "count"),
    ("linalg.int_insert_s", "s"), ("linalg.int_insert_calls", "count"),
    ("linalg.hnf_s", "s"), ("linalg.hnf_calls", "count"),
    ("linalg.coordinates_s", "s"), ("linalg.max_coeff_bits", "bits"),
    ("semiring.mat_vec_s", "s"), ("semiring.mat_vec_calls", "count"),
    ("alternating.compile_s", "s"), ("alternating.compile_calls", "count"),
    ("alternating.reverse_s", "s"), ("alternating.reverse_states", "count"),
    ("dkm.closure_s", "s"), ("dkm.closure_sets", "count"),
    ("dkm.atoms_s", "s"), ("dkm.bisim_s", "s"), ("dkm.bisim_rounds", "count"),
    ("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.spans", "count"),
]


def _bits(rows) -> int:
    top = 0
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                top = max(top, x.numerator.bit_length(), x.denominator.bit_length())
            else:
                top = max(top, int(x).bit_length())
    return top


class Frame:
    __slots__ = ("span", "name", "child", "duals", "partitions")

    def __init__(self, span: int, name: str):
        self.span = span
        self.name = name
        self.child = 0.0     # time covered by child spans and their counting
        self.duals = 0       # dual_automaton calls made directly inside this span
        self.partitions = 0  # Partition.from_signatures calls directly inside


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, self, job]
        self.stack: list[Frame] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.job = ""

    def enter(self, name: str) -> Frame:
        parent = self.stack[-1].span if self.stack else -1
        frame = Frame(len(self.spans), name)
        self.stack.append(frame)
        self.spans.append([name, time.perf_counter(), None, parent, None, self.job])
        return frame

    def leave(self, frame: Frame) -> float:
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[frame.span]
        span[2] = end
        span[4] = end - span[1] - frame.child
        self.self_time[frame.name] += span[4]
        return span[1]

    def charge_parent(self, start: float):
        """Exclude [start, now] from the enclosing span's self time."""
        if self.stack:
            self.stack[-1].child += time.perf_counter() - start

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "brzozowski.pass":
                parent = tracer.stack[-1] if tracer.stack else None
                second = parent is not None and parent.name == "brzozowski.minimise" \
                    and parent.duals == 1
                if parent is not None:
                    parent.duals += 1
                span_name = "brzozowski.pass2" if second else "brzozowski.pass1"
            frame = tracer.enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                start = tracer.leave(frame)
            tracer.count(span_name, frame, result)
            tracer.charge_parent(start)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, frame: Frame, result):
        c = self.counts
        c[name + "_calls"] += 1
        if name in ("brzozowski.pass1", "brzozowski.pass2"):
            c[name + "_states"] += result.n
            c["brzozowski.name_chars"] += sum(map(len, result.state_names or ()))
        elif name == "automata.determinise":
            c["automata.determinise_states"] += result.n
        elif name == "automata.refine":
            c["automata.refine_rounds"] += frame.partitions - 1
        elif name == "dkm.bisim":
            c["dkm.bisim_rounds"] += frame.partitions - 1
        elif name == "weighted.minimise":
            c["weighted.min_dim"] += result.dimension
        elif name in ("linalg.field_insert", "linalg.int_insert"):
            c["linalg.max_coeff_bits"] = max(c["linalg.max_coeff_bits"], _bits(result[0].rows))
        elif name == "alternating.reverse":
            c["alternating.reverse_states"] += result.n
        elif name == "dkm.closure":
            c["dkm.closure_sets"] += len(result)

    def wrap_partition(self, fn):
        """Partition.from_signatures: counted (one call per refinement round,
        plus the initial partition), not timed."""
        tracer = self

        def counted(cls, sigs):
            if tracer.stack:
                tracer.stack[-1].partitions += 1
            return fn(cls, sigs)

        return classmethod(counted)

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into every dualmin module, then restore."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dualmin" or n.startswith("dualmin.")]
        undo = []
        for mod_name, attr, span in WRAPPED:
            mod = importlib.import_module(f"dualmin.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self.wrap(cls.__dict__[meth], span))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(original, span)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, value))
                        setattr(m, key, wrapper)
        from dualmin.automata import Partition
        undo.append((Partition, "from_signatures", Partition.__dict__["from_signatures"]))
        Partition.from_signatures = self.wrap_partition(
            Partition.__dict__["from_signatures"].__func__)
        try:
            yield
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)


def import_ms(env: dict, repeats: int = 11) -> float:
    """Median start-up of a process that imports dualmin.cli, minus the
    median start-up of a bare interpreter, in ms."""
    import subprocess

    def start_ms(code):
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(1000 * (time.perf_counter() - t))
        return statistics.median(times)

    return start_ms("import dualmin.cli") - start_ms("pass")


def traced_run(jobs: list, work, env: dict, seconds: float, measure):
    """Untraced and traced in-process rounds, at least two of each.

    Returns (metrics, rounds, problems); a problem is a count metric that
    differs between two traced rounds of the same job list.
    """
    sys.path.insert(0, env["PYTHONPATH"])
    from dualmin import cli

    os.chdir(work / "inputs")  # job arguments name files relative to the inputs
    tracers: list[Tracer] = []
    wrappers = contextlib.ExitStack()

    def call(job, out, err, tracer=None):
        with open(out, "w") as fo, open(err, "w") as fe, \
                contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
            start = time.perf_counter()
            if tracer is None:
                code = cli.main(list(job["args"]))
            else:
                tracer.job = job["id"]
                frame = tracer.enter("cli." + job["args"][0])
                try:
                    code = cli.main(list(job["args"]))
                finally:
                    tracer.leave(frame)
                tracer.self_time["cli.self"] += tracer.spans[frame.span][4]
            return time.perf_counter() - start, 0, code

    def traced(job, out, err):
        if job is jobs[0]:  # a traced round starts: fresh spans, wrappers in
            tracers.append(Tracer())
            wrappers.enter_context(tracers[-1].installed())
        try:
            return call(job, out, err, tracers[-1])
        finally:
            if job is jobs[-1]:
                wrappers.close()

    for job in jobs:  # first calls fault in the allocator's pages; keep them out of both sides
        call(job, work / "out" / f"{job['id']}.out", work / "out" / f"{job['id']}.err")
    rounds = measure(jobs, work, env, seconds, [("untraced", call), ("traced", traced)], times=2)
    counts = [dict(t.counts) for t in tracers]
    problems = [f"{name} is {[c.get(name, 0) for c in counts]} in the traced rounds"
                for name in sorted(set().union(*counts))
                if len({c.get(name, 0) for c in counts}) > 1]
    metrics = {}
    for name, unit in PER_LAYER:
        if unit == "s" and not name.startswith("trace."):
            key = name[:-2]
            metrics[name] = (statistics.median(t.self_time.get(key, 0.0) for t in tracers), unit)
        elif unit in ("count", "bits") and not name.startswith("trace."):
            metrics[name] = (counts[0].get(name, 0), unit)
    metrics["cli.import_ms"] = (import_ms(env), "ms")
    for label in ("untraced", "traced"):
        metrics[f"trace.{label}_s"] = (
            statistics.median(r["wall"] for r in rounds if r["label"] == label), "s")
    metrics["trace.spans"] = (len(tracers[0].spans), "count")
    with open(work / "spans.jsonl", "w") as fh:
        for i, t in enumerate(tracers):
            for name, start, end, parent, self_s, job in t.spans:
                fh.write(json.dumps({"round": i, "job": job, "name": name, "start": start,
                                     "end": end, "parent": parent, "self": self_s}) + "\n")
    return {name: metrics[name] for name, _ in PER_LAYER}, rounds, problems
