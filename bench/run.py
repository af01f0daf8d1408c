"""The dualmin benchmark: seeded CLI jobs with independently checked answers.

    python3 bench/run.py --workload dfa --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload dfa --seed 0 --seconds 24 --trace 1
    python3 bench/run.py --steadiness 10 --seconds 24

With --trace 0 it generates the workload's inputs and expected answers
(bench/gen.py), then runs the job list in whole rounds, one
`python3 -m dualmin.cli` process at a time, until --seconds have passed.  The
set-up is made SETUPS times, the later ones between the rounds, and setup_s
is their median.  A fixed reference process (bench/reference.py) runs
between every two jobs and set-ups, and each time is scaled by the
reference times around it, so that the machine's changing speed cancels
out (see `Pace`).  Every distinct output is checked by bench/check.py.  The
last stdout line is one JSON object with the end-to-end metrics.

With --trace 1 the same job list runs inside this process through
`dualmin.cli.main`, alternating untraced rounds with rounds in which
bench/tracing.py wraps the library's public functions.  It prints the
per-layer metrics instead, and writes the spans to
.bench_work/<workload>/spans.jsonl.

--steadiness N runs each workload on N seeds (--seed, --seed+1, ...) and
prints every end-to-end metric's median, quartiles and spread; it also makes
each workload's traced run twice on --seed and compares the count metrics.

This process must stay small.  On Linux a child's ru_maxrss includes the
high-water RSS of its parent at exec, so anything this process grows to
would read as job memory.  Jobs are started with posix_spawn, their outputs
go straight to files and are hashed in chunks, and outputs are parsed only
in the checker's own process.  The launcher's peak RSS is printed so that a
grown launcher can be spotted.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

try:  # hashlib would load OpenSSL and add about 4 MB to this process
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("dfa", "weighted", "powerset")
SETUPS = 3  # set-ups per run, spread between the rounds; their median is reported
REF_S = 0.14  # the usual wall time of bench/reference.py on the reference machine
MB = 1 << 20
WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("DUALMIN_MAX_STATES", None)
    return env


def spawn(argv: list, env: dict, stdout, stderr, stdin=os.devnull) -> tuple[float, int, int]:
    """Run one Python process to completion with its streams on files.

    Returns (wall seconds, peak RSS in KiB, exit code); wait4 reports the RSS
    of this child alone.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 0, str(stdin), os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout), WRITE, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), WRITE, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def spawn_ok(argv: list, env: dict, stdout, stderr, stdin=os.devnull):
    code = spawn(argv, env, stdout, stderr, stdin)[2]
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}:\n{Path(stderr).read_text()}")


class Pace:
    """Times bench/reference.py, a fixed unit of work, between measurements.

    The shared machine's speed moves by up to half for seconds at a time and
    by a third between runs an hour apart, and a job slows with it.  Each
    measured interval lies between two reference runs; `timed` turns its
    wall time into seconds at the reference machine's usual speed, that is,
    wall time times REF_S over the mean of the two reference times.  The
    reference imports nothing from dualmin, so a change to the program moves
    only the job's side of the ratio.
    """

    def __init__(self, env: dict):
        self.env = env
        self.times: list[float] = []
        self.tick()

    def tick(self) -> None:
        wall, _, code = spawn([str(BENCH / "reference.py")], self.env, os.devnull, os.devnull)
        if code != 0:
            raise RuntimeError(f"bench/reference.py exited {code}")
        self.times.append(wall)

    def timed(self, measure):
        """Call measure() -> (wall, ...) between two reference runs; return
        its result with the wall time scaled."""
        before = self.times[-1]
        wall, *rest = measure()
        self.tick()
        return (wall * REF_S * 2 / (before + self.times[-1]), *rest)


def digest(path: Path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def median(values) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


class SetUp:
    """One call generates the inputs and expected answers, then makes one
    warm-up dualmin call, and returns the jobs; each call's seconds, scaled
    by `pace` when one is given, are kept in `times`.  Every call must write
    byte-identical files."""

    def __init__(self, workload: str, seed: int, work: Path, env: dict, pace=None):
        self.gen = [str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
                    "--out", str(work)]
        self.work = work
        self.env = env
        self.pace = pace
        self.times: list[float] = []
        self.digest = None

    def __call__(self) -> list:
        work, log = self.work, self.work / "setup.err"
        work.mkdir(parents=True, exist_ok=True)

        def once():
            start = time.perf_counter()
            spawn_ok(self.gen, self.env, os.devnull, log)
            jobs = json.loads((work / "jobs.json").read_text())
            spawn_ok(["-m", "dualmin.cli", "stats", str(work / "inputs" / jobs[0]["args"][1])],
                     self.env, os.devnull, log)
            return time.perf_counter() - start, jobs

        seconds, jobs = self.pace.timed(once) if self.pace else once()
        self.times.append(seconds)
        files = digest(work / "jobs.json") + "".join(
            digest(work / "inputs" / name) for name in sorted(os.listdir(work / "inputs")))
        if self.digest not in (None, files):
            raise RuntimeError("one seed generated different inputs")
        self.digest = files
        (work / "out").mkdir(exist_ok=True)
        return jobs


def check(work: Path, env: dict, results: list[dict]) -> dict[str, tuple]:
    """Run bench/check.py on {"id", "exit"} results; return id -> (reason, known)."""
    (work / "check.in").write_text("".join(json.dumps(r) + "\n" for r in results))
    spawn_ok([str(BENCH / "check.py"), str(work)], env, work / "check.out",
             work / "check.err", stdin=work / "check.in")
    verdicts = [json.loads(line) for line in (work / "check.out").read_text().splitlines()]
    return {v["id"]: (v["reason"], v["known"]) for v in verdicts}


class Rounds:
    """Runs the job list in whole rounds; every distinct output is checked once."""

    def __init__(self, jobs: list, work: Path, env: dict):
        self.jobs = jobs
        self.work = work
        self.env = env
        self.verdicts: dict[tuple, tuple] = {}  # (id, exit, digest) -> (reason, known)

    def run(self, execute, label: str) -> dict:
        out = self.work / "out"
        rows = []
        start = time.perf_counter()
        for job in self.jobs:
            wall, rss, code = execute(job, out / f"{job['id']}.out", out / f"{job['id']}.err")
            rows.append({"id": job["id"], "wall": wall, "rss": rss, "exit": code})
        wall = time.perf_counter() - start
        for row in rows:
            row["bytes"] = (out / f"{row['id']}.out").stat().st_size
        return {"label": label, "wall": wall, "jobs": rows, "failed": self.verify(rows)}

    def verify(self, rows: list) -> dict[str, tuple]:
        """Failed job id -> (reason, known fault?), checking only new outputs."""
        keys = {row["id"]: (row["id"], row["exit"],
                            digest(self.work / "out" / f"{row['id']}.out")) for row in rows}
        new = [row for row in rows if keys[row["id"]] not in self.verdicts]
        if new:
            reasons = check(self.work, self.env,
                            [{"id": r["id"], "exit": r["exit"]} for r in new])
            for row in new:
                self.verdicts[keys[row["id"]]] = reasons[row["id"]]
        return {i: self.verdicts[k] for i, k in keys.items() if self.verdicts[k][0] is not None}


def measure(jobs: list, work: Path, env: dict, seconds: float, executors: list,
            times: int = 1, after_round=lambda: None) -> list[dict]:
    """Whole rounds, cycling through (label, execute) pairs, until each has
    run `times` times and the rounds' job-list time adds up to `seconds`;
    `after_round` is called after each round, outside the timed rounds."""
    rounds = Rounds(jobs, work, env)
    done, spent = [], 0.0
    while spent < seconds or len(done) < times * len(executors):
        label, execute = executors[len(done) % len(executors)]
        done.append(rounds.run(execute, label))
        spent += done[-1]["wall"]
        after_round()
    return done


def end_to_end(rounds: list[dict], setup_times: list[float]) -> dict:
    """The five end-to-end metrics.

    Job and set-up times come already scaled by `Pace`.  Each job's time is
    its median over the rounds; wall_s adds these up over the job list and
    job_p50_ms is their median.
    """
    per_job = [median(walls) for walls in zip(*([row["wall"] for row in r["jobs"]]
                                                for r in rounds))]
    return {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (sum(per_job), "s"),
        "job_p50_ms": (1000 * median(per_job), "ms"),
        "peak_rss_mb": (median(max(row["rss"] for row in r["jobs"]) / 1024 for r in rounds),
                        "MB"),
        "output_mb": (median(sum(row["bytes"] for row in r["jobs"]) / MB for r in rounds), "MB"),
    }


def run_workload(args) -> int:
    work = WORK / args.workload
    env = job_env()
    pace = None if args.trace else Pace(env)
    set_up = SetUp(args.workload, args.seed, work, env, pace)
    jobs = set_up()
    if args.trace:
        import tracing  # bench/tracing.py: imports dualmin into this process
        metrics, rounds, problems = tracing.traced_run(jobs, work, env, args.seconds, measure)
    else:
        os.chdir(work / "inputs")  # job arguments name files relative to the inputs

        def set_up_again():  # spread over the run, so one slow spell of the machine
            if len(set_up.times) < SETUPS:  # cannot catch every set-up
                set_up()

        rounds = measure(jobs, work, env, args.seconds, [(
            "cli", lambda job, out, err: pace.timed(
                lambda: spawn(["-m", "dualmin.cli", *job["args"]], env, out, err)))],
            after_round=set_up_again)
        while len(set_up.times) < SETUPS:
            set_up()
        metrics, problems = end_to_end(rounds, set_up.times), []
    (work / "rounds.json").write_text(json.dumps(rounds, indent=1) + "\n")

    by_id = {j["id"]: j for j in jobs}
    failures = {i: why for r in rounds for i, why in r["failed"].items()}
    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    correct = not problems and all(is_known for _, is_known in failures.values())
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"jobs attempted {attempted}  failed {failed}  launcher peak RSS {own_rss:.1f} MB")
    if pace:
        print(f"  reference runs {len(pace.times)}  median {median(pace.times):.4f} s  "
              f"(REF_S {REF_S} s)")
    for problem in problems:
        print(f"  WRONG: {problem}")
    for job_id, (why, is_known) in sorted(failures.items()):
        tag = "known fault" if is_known else "WRONG"
        print(f"  {tag}: {job_id} dualmin {' '.join(by_id[job_id]['args'])[:60]}: {why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def steadiness(args) -> int:
    """Run each workload on several seeds; report medians, quartiles, spreads.

    Each workload's traced run is also made twice on the first seed, and its
    count metrics must agree between the two processes.
    """
    import statistics  # imported here: the measuring path keeps this process small
    import subprocess

    def run(workload: str, seed: int, trace: int) -> dict | None:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report, steady = {}, True
    for workload in WORKLOADS:
        runs = []
        for seed in range(args.seed, args.seed + args.steadiness):
            runs.append(run(workload, seed, 0))
            if runs[-1] is None:
                return 1
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4f}" for k, v in runs[-1]["metrics"].items()), flush=True)
        traced = [run(workload, args.seed, 1) for _ in range(2)]
        if None in traced:
            return 1
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "bits")}
                  for t in traced]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        entry = {"correct": all(r["correct"] for r in runs + traced), "failed_shares": shares,
                 "traced_counts_repeat": counts[0] == counts[1], "metrics": {}}
        steady &= entry["correct"] and entry["traced_counts_repeat"]
        print(f"{workload}: correct {entry['correct']}  failed share(s) {shares}  "
              f"traced counts repeat {entry['traced_counts_repeat']}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "values": values}
            bound = bounds.get(name)
            note = "" if bound is None or spread < bound / 3 else "  above a third of the bound"
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:7.2%}  bound {bound}{note}")
        report[workload] = entry
    WORK.mkdir(exist_ok=True)
    (WORK / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    args = p.parse_args(argv)
    if not (SRC / "dualmin" / "cli.py").is_file():
        print(f"error: no dualmin sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        p.error("--workload is required without --steadiness")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
