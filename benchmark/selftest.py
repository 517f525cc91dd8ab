"""Self-tests of the benchmark's own machinery.

    python3 benchmark/selftest.py

Run from the root of a checkout.  Each test prints one line; the exit code is
0 when all pass.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


def test_corrupted_output_fails():
    """A job whose stdout was altered counts as failed, by digest and by oracle."""
    from qheis import cartan

    argv = ["qnum", "--n", "7", "--d", "2"]
    checker = run.Checker("count")
    _, lines, _ = run.spawn("plain", [argv])
    good = lines[0]
    assert checker.check(argv, good), checker.failures
    bad = dict(good, out=good["out"].replace("s^", "s^1", 1))
    assert bad["out"] != good["out"]
    assert not checker.check(argv, bad)
    assert "digest" in checker.failures[-1]
    assert oracle.check(argv, 0, bad["out"], cartan) is not None
    # the oracle alone also rejects a wrong count, a wrong det and a failed relation
    mult = ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,1", "--k", "0", "--window", "2"]
    _, (line,), _ = run.spawn("plain", [mult])
    rep = json.loads(line["out"])
    assert oracle.check(mult, 0, line["out"], cartan) is None
    rep["truncated_count"] += 1
    assert oracle.check(mult, 0, json.dumps(rep), cartan) is not None
    gram = ["verma-irred", "--phi", "+", "--level", "1", "--max-index", "3", "--max-exp", "2"]
    _, (line,), _ = run.spawn("plain", [gram])
    rep = json.loads(line["out"])
    assert oracle.check(gram, 0, line["out"], cartan) is None
    rep["gram"][0]["det"] = "2 / 1"
    assert oracle.check(gram, 0, json.dumps(rep), cartan) is not None
    heis = ["heis-verify", "--type", "A", "--rank", "1", "--max-k", "1"]
    _, (line,), _ = run.spawn("plain", [heis])
    rows = json.loads(line["out"])
    assert oracle.check(heis, 0, line["out"], cartan) is None
    rows[0]["lhs"] = rows[0]["lhs"].replace("gamma^{1}", "gamma^{2}")
    assert oracle.check(heis, 0, json.dumps(rows), cartan) is not None
    assert oracle.check(heis, 1, line["out"], cartan) == "exit code 1"


def test_self_time_arithmetic():
    """Self time = duration - union of child intervals - Scalar time."""
    spans = [
        Span("cli.run", 0.0, 10.0, None, 0, op_s={"add": 0.5, "mul": 0.0, "div": 0.0}),
        Span("termalg.commutator", 1.0, 4.0, 0, 0, op_s={"add": 0.0, "mul": 0.25, "div": 0.0}),
        Span("termalg.multiply", 2.0, 3.0, 1, 0),
        Span("linalg.det", 3.5, 6.0, 0, 0),      # overlaps its sibling on [3.5, 4]
        Span("cartan.load_type", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
    ]
    got = tracer.self_times(spans)
    want = [10.0 - 5.0 - 1.0 - 0.5, 3.0 - 1.0 - 0.25, 1.0, 2.5, 3.0]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), got
    assert tracer.covered((0.0, 1.0), []) == 0.0
    assert tracer.covered((0.0, 5.0), [(1.0, 2.0), (1.5, 3.0), (4.0, 9.0)]) == 3.0
    # outermost same-layer spans give the layer total without double counting
    assert [s.name for s in tracer._outermost(spans, "termalg.")] == ["termalg.commutator"]


def test_seed_changes_order_not_pool():
    for pool in pools.POOLS.values():
        a = pools.round_order(len(pool), 1, 0)
        b = pools.round_order(len(pool), 2, 0)
        assert a != b and sorted(a) == sorted(b) == list(range(len(pool)))
        assert a == pools.round_order(len(pool), 1, 0)
        assert a != pools.round_order(len(pool), 1, 1)


def test_wick_closed_form_matches_rewriting():
    """The Wick product agrees with Gram matrix + det by the rewriting engine."""
    from qheis.linalg import det
    from qheis.verma import PhiSignature, Truncation, VermaModule

    s = Fraction(5, 3)
    checked = 0
    for phi in ("+", "-", "+-:+"):
        for level in (-2, -1, 0, 1, 2):
            for n_max, e_max in ((2, 3), (3, 2)):
                module = VermaModule(PhiSignature.parse(phi), level, Truncation(n_max, e_max))
                for degree in range(-n_max, n_max + 1):
                    if not module.basis_component(degree):
                        continue
                    value = oracle.scalar_at(str(det(module.gram_matrix(degree))), s)
                    assert value == oracle.wick_det(phi, level, n_max, e_max, degree, s), \
                        (phi, level, n_max, e_max, degree)
                    checked += 1
    assert checked > 50


def test_partitions_and_counts():
    assert oracle.partitions(12) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    counts = oracle.degree_counts("+", 6, 6)
    assert [counts[-n] for n in range(7)] == oracle.partitions(6)
    assert sum(counts.values()) == 7 ** 6
    assert len(oracle.basis("+-:+", 3, 2, 0)) == oracle.degree_counts("+-:+", 3, 2)[0]


def test_tail_rank():
    """At least ten job runs lie beyond the tail job in a MIN_ROUNDS-round run."""
    for jobs in (len(pool) for pool in pools.POOLS.values()):
        rank = run.tail_rank(jobs)
        assert (jobs - rank) * run.MIN_ROUNDS >= 10
        assert (jobs - rank - 1) * run.MIN_ROUNDS < 10


def test_counts_repeat_across_hash_seeds():
    """Count metrics of a traced round repeat exactly under other PYTHONHASHSEEDs
    and another job order."""
    jobs = [["heis-verify", "--type", "A", "--rank", "2", "--max-k", "2"],
            ["weyl-verify", "--type", "G", "--rank", "2", "--level", "-2", "--max-k", "2"],
            ["verma-irred", "--phi", "+-:+", "--level", "1", "--max-index", "3", "--max-exp", "2"],
            ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,1", "--k", "0", "--window", "2"],
            ["qnum", "--n", "5", "--d", "2"]]
    runs = [run.spawn("trace", order, seed)[2]["layers"]
            for order, seed in ((jobs, "1"), (jobs[::-1], "2"), (jobs, "3"))]
    differ = [name for name in tracer.COUNT_METRICS
              if not runs[0][name] == runs[1][name] == runs[2][name]]
    assert not differ, differ
    assert runs[0]["qscalar.ops"] > 0 and runs[0]["termalg.calls"] > 0
    assert set(runs[0]) | {"trace.overhead_ratio"} == set(tracer.LAYER_METRICS)


def test_benchmark_json_matches_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(pools.POOLS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracer.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb"}


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
