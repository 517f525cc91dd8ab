"""The qheis benchmark: two seeded workloads through ``qheis.cli.run``.

    python3 benchmark/run.py --workload symbolic|count --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --pin        # rewrite benchmark/digests.json

Run it from the root of a checkout; it imports qheis from ``src/``.

A run spawns fresh worker interpreters (``worker.py``), one per round.  A
round runs the workload's whole pool once, in an order drawn from the seed,
as one closed-loop client: each job starts when the previous one returned.
Rounds repeat until ``--seconds`` have passed, and at least ``MIN_ROUNDS``
run.  Every job's stdout must match its pinned digest and pass the
independent oracle in ``oracle.py``; both checks run after the workers have
exited, outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs one untraced round, then traced rounds, and reports
the per-layer metrics of the traced rounds; the count metrics must agree
exactly between traced rounds, which run under different PYTHONHASHSEEDs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every job
passed, 1 when a job failed its digest or oracle, and 2 when the run could
not start (for example, when there is no ``src/qheis`` to benchmark).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import pools  # noqa: E402
import tracer  # noqa: E402

DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 2
SETUP_SPAWNS = 5            # set-up-only workers per untraced run, besides the round workers
RUN_BUDGET_S = 150          # never start a round that would end past this


class WorkerFailed(RuntimeError):
    pass


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tail_rank(jobs: int) -> int:
    """Rank of the tail job: the last one with at least ten job runs beyond it,
    counting every job as MIN_ROUNDS runs."""
    return max(1, jobs - math.ceil(10 / MIN_ROUNDS))


def spawn(mode, jobs=(), hashseed="0", spans_path=None, limit=170.0):
    """Start one worker, wait for it to end, and return (setup_s, job lines, final line)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env.pop("QAFF_FORMAT", None)    # outputs are pinned in the default json format
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), mode, json.dumps(list(jobs))]
    if spans_path:
        cmd.append(str(spans_path))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT), env=env)
    watchdog = threading.Timer(max(limit, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        raw = proc.stdout.readlines()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if not first or proc.returncode != 0 or (mode != "setup" and not raw):
        raise WorkerFailed(f"worker ({mode}) exited with code {proc.returncode}")
    lines = [json.loads(line) for line in raw]
    final = lines.pop() if mode != "setup" else None
    return setup_s, lines, final


class Checker:
    """Digest and oracle checks, run after the workers, cached by stdout digest."""

    def __init__(self, workload):
        sys.path.insert(0, str(ROOT / "src"))
        from qheis import cartan

        self.cartan = cartan
        self.pinned = json.loads(DIGESTS.read_text())[workload]
        self.verdicts = {}
        self.failures = []

    def check(self, argv, line):
        key = pools.job_key(argv)
        if line["rc"] is None:
            reason = f"raised {line['error']}"
        else:
            d = digest(line["out"])
            if d != self.pinned.get(key):
                reason = "stdout differs from the pinned digest"
            else:
                if (d, line["rc"]) not in self.verdicts:
                    self.verdicts[(d, line["rc"])] = oracle.check(
                        argv, line["rc"], line["out"], self.cartan)
                reason = self.verdicts[(d, line["rc"])]
        if reason:
            stderr = line["err"].strip().splitlines()
            self.failures.append(f"{key}: {reason}" + (f" ({stderr[-1]})" if stderr else ""))
        return reason is None


def run_round(pool, seed, index, mode, hashseed, started, spans_path=None):
    order = pools.round_order(len(pool), seed, index)
    jobs = [pool[i] for i in order]
    limit = RUN_BUDGET_S + 25 - (perf_counter() - started)
    setup_s, lines, final = spawn(mode, jobs, hashseed, spans_path, limit)
    if len(lines) != len(jobs):
        raise WorkerFailed(f"worker returned {len(lines)} of {len(jobs)} jobs")
    return {"setup_s": setup_s, "jobs": jobs, "lines": lines, "final": final}


def keep_going(started, seconds, last):
    """Start another round only inside --seconds and the run budget."""
    elapsed = perf_counter() - started
    return elapsed < seconds and elapsed + 1.5 * last["final"]["round_s"] < RUN_BUDGET_S


def check_rounds(rounds, checker):
    attempted = failed = 0
    for rnd in rounds:
        for argv, line in zip(rnd["jobs"], rnd["lines"]):
            attempted += 1
            failed += not checker.check(argv, line)
    return attempted, failed


def end_to_end(workload, rounds, setup_samples):
    """End-to-end metrics from each job's mean time over the rounds.

    Other tenants of a shared machine slow whole stretches of a run by 20-50 %
    in spells of 10-80 s; the mean over rounds spread across the run is the
    steadiest of min, median, mean and max over such stretches.  The tail is
    the slowest job that still has ten job runs beyond it.
    """
    by_job = {}
    for rnd in rounds:
        for argv, line in zip(rnd["jobs"], rnd["lines"]):
            by_job.setdefault(pools.job_key(argv), []).append(line["t"])
    job_s = sorted(statistics.mean(ts) for ts in by_job.values())
    rank = tail_rank(len(job_s))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (len(job_s) / sum(job_s), "1/s"),
        "job_p50_ms": (1000 * statistics.median(job_s), "ms"),
        "job_tail_ms": (1000 * job_s[rank - 1], "ms"),
        "peak_rss_mb": (max(r["final"]["maxrss_kb"] for r in rounds) / 1024, "MB"),
    }
    note = (f"{len(job_s)} jobs, mean of {len(rounds)} rounds each; job_tail_ms is job "
            f"{rank} of {len(job_s)} (p{100 * rank / len(job_s):.0f}); "
            f"setup_s is the median of {len(setup_samples)} spawns")
    return metrics, note


def per_layer(rounds, untraced_s):
    traced = [r["final"]["layers"] for r in rounds]
    first = traced[0]
    mismatch = [name for name in tracer.COUNT_METRICS
                if any(t[name] != first[name] for t in traced[1:])]
    metrics = {}
    for name, value in first.items():
        unit = tracer.LAYER_METRICS[name][0]
        if name not in tracer.COUNT_METRICS:
            value = statistics.mean(t[name] for t in traced)
        metrics[name] = (value, unit)
    traced_s = statistics.mean(r["final"]["round_s"] for r in rounds)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics, mismatch


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def bench(workload, seed, seconds, trace):
    pool = pools.POOLS[workload]
    checker = Checker(workload)
    spawn("setup")                      # compile bytecode once; not measured
    setup_samples = []
    if not trace:
        setup_samples = [spawn("setup")[0] for _ in range(SETUP_SPAWNS)]
    started = perf_counter()

    def rounds(mode, out, minimum, extend=True):
        while len(out) < minimum or extend and keep_going(started, seconds, out[-1]):
            index = len(plain) + len(traced)
            spans = None
            if mode == "trace":
                OUT_DIR.mkdir(exist_ok=True)
                spans = OUT_DIR / f"spans-{workload}.json.gz"
            rnd = run_round(pool, seed, index, mode, f"{seed % 65521}{index}", started, spans)
            setup_samples.append(rnd["setup_s"])
            out.append(rnd)

    plain, traced = [], []
    if trace:
        rounds("plain", plain, 1, extend=False)
        rounds("trace", traced, 2)
    else:
        rounds("plain", plain, MIN_ROUNDS)
    attempted, failed = check_rounds(plain + traced, checker)
    if trace:
        metrics, mismatch = per_layer(traced, statistics.mean(
            r["final"]["round_s"] for r in plain))
        note = f"{len(traced)} traced round(s) after {len(plain)} untraced"
        if mismatch:
            checker.failures.append("counts differ between traced rounds: " + ", ".join(mismatch))
    else:
        metrics, note = end_to_end(workload, plain, setup_samples)
        mismatch = []
    for reason in checker.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    correct = failed == 0 and not mismatch
    print(f"# {workload} seed={seed} trace={int(trace)}: {note}")
    print(f"# error_share = {failed}/{attempted} = {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def pin():
    """Record the stdout digest of every pool job, after its oracle passes."""
    sys.path.insert(0, str(ROOT / "src"))
    from qheis import cartan

    out = {}
    for workload, pool in pools.POOLS.items():
        _, lines, _ = spawn("plain", pool, "0")
        out[workload] = {}
        for argv, line in zip(pool, lines):
            reason = oracle.check(argv, line["rc"], line["out"], cartan)
            if reason:
                print(f"not pinned: {pools.job_key(argv)}: {reason}", file=sys.stderr)
                return 1
            out[workload][pools.job_key(argv)] = digest(line["out"])
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(pools.POOLS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qheis" / "__init__.py").is_file():
        print(f"benchmark: no qheis package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    if not DIGESTS.is_file():
        print(f"benchmark: {DIGESTS} is missing; run with --pin", file=sys.stderr)
        return 2
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
