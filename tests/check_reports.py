#!/usr/bin/env python3
"""The gates on quasii_bench and quasii_server reports, each held once.

    check_reports.py bench REPORT [BASELINE]   deterministic gates
    check_reports.py timing REPORT             wall-clock bars
    check_reports.py serve SERVER CLIENT       serving smoke reports

`bench` holds every gate that is a function of code and seed. ctest's
`bench_gates` case runs it on the CI-sized matrix against the committed
BENCH_quasii_ci.json; without a BASELINE the perf band is skipped. Under
QUASII_FORCE_SCALAR / QUASII_EXEC_THREADS it also checks that the report
echoes what those variables pin. `timing` holds the two wall-clock bars,
which need a runner with parallel cores. Every gate runs; the exit status is
1 if any failed, and each failure names its gate.
"""

import json
import os
import re
import sys

SCHEMA = "quasii-bench-v10"
PERF_BAND = 0.10  # a QUASII work counter may exceed its baseline by 10%
COUNTERS = ("objects_tested", "cracks", "bytes_scanned", "partitions_visited")
TYPES = ("range", "point", "count", "knn", "join", "insert", "erase")
# The op types each preset runs; every other type must stay at zero.
PRESET_TYPES = {
    "mixed": ("range", "point", "count", "knn"),
    "readwrite": ("range", "point", "count", "knn", "insert", "erase"),
    "join": ("join",),
}
MAX_EXEC_THREADS = 32  # TaskScheduler::kMaxThreads


class Gates:
    """Runs gates and collects their failures. A gate that meets a missing
    or mistyped field fails with it instead of stopping the others."""

    def __init__(self):
        self.failures = []  # (gate, message)
        self.gate = None

    def run(self, fn, *args):
        self.gate = fn.__name__
        before = len(self.failures)
        try:
            fn(self, *args)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            self.require(False, f"malformed report: {type(e).__name__} {e}")
        print(f"{'FAIL' if len(self.failures) > before else 'ok  '} "
              f"{self.gate}")

    def require(self, ok, message):
        if not ok:
            self.failures.append((self.gate, message))
        return ok

    def failed(self):
        return {gate for gate, _ in self.failures}


def label(config):
    return f"{config['workload']} n={config['n']}"


def by_index(config):
    return {r["index"]: r for r in config["results"]}


def uniform_quasii(report):
    """(config, QUASII result) of every uniform config: the ones that carry
    the converged extras (`scaling`, `recovery`, `ab`)."""
    return [(c, by_index(c)["QUASII"]) for c in report["configs"]
            if c["workload"] == "uniform"]


def schema(g, report):
    found = report.get("schema", "<missing>")
    g.require(found == SCHEMA,
              f"found {found!r}, expected {SCHEMA!r}: bump this gate and "
              f"the committed baselines together")


def fewer_candidates(g, report):
    """The paper's headline: QUASII tests fewer objects than Scan."""
    for c in report["configs"]:
        tested = {name: r["cumulative_stats"]["objects_tested"]
                  for name, r in by_index(c).items()}
        g.require(tested["QUASII"] < tested["Scan"],
                  f"{label(c)}: QUASII tested {tested['QUASII']:,}, "
                  f"Scan {tested['Scan']:,}")


def same_answers(g, report):
    """Every index of a config runs the same ops and gives the same answers:
    result counts in total and per op type (join pairs and mutation
    acceptance included) and the post-workload checksum. A preset runs
    exactly its op types."""
    for c in report["configs"]:
        answers = {}
        for r in c["results"]:
            pt, who = r["per_type"], f"{label(c)} {r['index']}"
            g.require(set(pt) == set(TYPES),
                      f"{who}: per_type sections {sorted(pt)}")
            ran = tuple(t for t in TYPES if pt[t]["queries"] > 0)
            want = PRESET_TYPES.get(c["workload"], ran)
            g.require(ran == want, f"{who}: ran {ran}, expected {want}")
            total = sum(pt[t]["queries"] for t in TYPES)
            g.require(total == c["queries"],
                      f"{who}: {total} ops, config says {c['queries']}")
            post = r["post_workload"]
            answers[r["index"]] = (
                r["result_objects"],
                tuple((pt[t]["queries"], pt[t]["result_objects"])
                      for t in TYPES),
                (post["queries"], post["result_objects"], post["checksum"]))
        g.require(len(set(answers.values())) == 1,
                  f"{label(c)}: indexes disagree: {answers}")


def joins_converge(g, report):
    """Join traffic alone converges each adaptive index: the first round
    cracks, and later rounds add no cracks and move no rows."""
    for c in report["configs"]:
        if c["workload"] != "join":
            continue
        for name in ("QUASII", "SFCracker"):
            conv = by_index(c)[name]["convergence"]
            for key in ("cumulative_cracks", "cumulative_objects_moved"):
                series = [p[key] for p in conv]
                g.require(series[0] > 0,
                          f"{label(c)} {name}: first join has no {key}")
                g.require(series[-1] == series[0],
                          f"{label(c)} {name}: joins after the first kept "
                          f"reorganizing: {key} {series}")


def perf_band(g, report, baseline):
    """Same config matrix as the baseline, and no QUASII work counter more
    than PERF_BAND above it. Counters are functions of code and seed, so
    runner noise cannot trip this; refresh the baseline when a change
    means to move them."""
    def keyed(r):
        return {(c["workload"], c["n"]): c for c in r["configs"]}
    fresh, base = keyed(report), keyed(baseline)
    if not g.require(set(fresh) == set(base),
                     f"config matrix drifted: fresh {sorted(fresh)} vs "
                     f"baseline {sorted(base)}: regenerate the baseline"):
        return
    for key in sorted(base):
        now = by_index(fresh[key])["QUASII"]["cumulative_stats"]
        ref = by_index(base[key])["QUASII"]["cumulative_stats"]
        for counter in COUNTERS:
            a, b = now[counter], ref[counter]
            print(f"  {key[0]} n={key[1]} QUASII {counter}: "
                  f"fresh {a:,} vs baseline {b:,}")
            g.require(a <= b * (1 + PERF_BAND),
                      f"{key[0]} n={key[1]} QUASII {counter} regressed: "
                      f"fresh {a:,} > baseline {b:,} * {1 + PERF_BAND:.2f} "
                      f"(+{a - b:,})")


def scaling_shape(g, report):
    for c, q in uniform_quasii(report):
        threads = [p["threads"] for p in q["scaling"]]
        g.require(threads == [1, 2, 4, 8],
                  f"{label(c)}: scaling threads {threads}")


def recovery(g, report):
    """A snapshot of the converged QUASII restores converged: same answers,
    and zero cracks on replay."""
    for c, q in uniform_quasii(report):
        rec = q["recovery"]
        g.require(rec["ok"], f"{label(c)}: recovery failed: {rec}")
        g.require(rec["checksum_match"],
                  f"{label(c)}: the recovered index answered differently")
        g.require(rec["replay_cracks"] == 0,
                  f"{label(c)}: recovered QUASII cracked "
                  f"{rec['replay_cracks']} times on replay")


def ab_equivalence(g, report):
    """Scalar and SIMD, serial and parallel: each mode pair gives the same
    results, does the same work and leaves the same physical structure."""
    for c, q in uniform_quasii(report):
        g.require(set(q["ab"]) == {"simd", "parallel"},
                  f"{label(c)}: ab pairs {sorted(q['ab'])}")
        for name, e in sorted(q["ab"].items()):
            for verdict in ("checksum_match", "counters_match",
                            "content_match"):
                g.require(e[verdict], f"{label(c)} ab.{name}: "
                          f"{e['mode_a']} vs {e['mode_b']}: {verdict} false")


def exec_threads_cap(env):
    """QUASII_EXEC_THREADS as the program parses it; 0 when unset."""
    m = re.fullmatch(r"\s*([+-]?\d+)", env.get("QUASII_EXEC_THREADS", ""))
    return min(max(int(m[1]), 1), MAX_EXEC_THREADS) if m else 0


def runtime_env(g, report, env):
    """A run under QUASII_FORCE_SCALAR=1 reports the scalar tier; one under
    QUASII_EXEC_THREADS reports that cap, and it clamps the A/B's parallel
    arm."""
    opts = report["options"]
    if env.get("QUASII_FORCE_SCALAR") == "1":
        g.require(opts["simd_tier"] == "scalar",
                  f"QUASII_FORCE_SCALAR=1, simd_tier={opts['simd_tier']!r}")
    cap = exec_threads_cap(env)
    if cap:
        g.require(opts["exec_threads"] == cap,
                  f"QUASII_EXEC_THREADS={cap}, "
                  f"exec_threads={opts['exec_threads']}")
        for c, q in uniform_quasii(report):
            b = q["ab"]["parallel"]["b_threads"]
            g.require(b == min(8, cap), f"{label(c)}: ab.parallel ran "
                      f"{b} threads under a cap of {cap}")


def read_scaling(g, report, cores):
    """Converged reads scale: 8 threads reach >= 2x one thread's throughput
    on a runner with >= 4 cores."""
    for c, q in uniform_quasii(report):
        qps = {p["threads"]: p["queries_per_s"] for p in q["scaling"]}
        speedup = qps[8] / max(qps[1], 1e-9)
        print(f"  {label(c)}: " + ", ".join(
            f"{t}t={v / 1e3:,.0f}kq/s" for t, v in qps.items())
            + f" -> {speedup:.2f}x at 8 threads ({cores} cores)")
        if cores >= 4:
            g.require(speedup >= 2.0, f"{label(c)}: 8 threads reached "
                      f"{speedup:.2f}x one thread (>= 2x required)")


def cold_start(g, report, cores):
    """Parallel cold-start cracking is >= 1.5x serial at n >= 2^20 on a
    runner with >= 4 cores, when the parallel arm got its threads."""
    for c, q in uniform_quasii(report):
        e = q["ab"]["parallel"]
        bar = (cores >= 4 and c["n"] >= 2**20
               and e["b_threads"] > e["a_threads"])
        print(f"  {label(c)}: {e['mode_a']} {e['a_median_ms']:.2f}ms vs "
              f"{e['mode_b']} {e['b_median_ms']:.2f}ms -> "
              f"{e['speedup']:.2f}x ({cores} cores; "
              f"{'gated' if bar else 'not gated'})")
        if bar:
            g.require(e["speedup"] >= 1.5, f"{label(c)}: cold-start "
                      f"speedup {e['speedup']:.2f}x (>= 1.5x required)")


def serving(g, server, client):
    g.require(client["transport_ok"], "client hit transport errors")
    for c in client["per_client"]:
        g.require("p99_ms" in c, f"client {c['client']} lacks p99_ms")
    g.require(server["accepted"] > 0, f"server accepted nothing: {server}")
    for key in ("malformed", "frame_errors"):
        g.require(server[key] == 0, f"server {key} = {server[key]}")


def check_bench(report, baseline=None, env=os.environ):
    g = Gates()
    for gate in (schema, fewer_candidates, same_answers, joins_converge,
                 scaling_shape, recovery, ab_equivalence):
        g.run(gate, report)
    if baseline is not None:
        g.run(perf_band, report, baseline)
    g.run(runtime_env, report, env)
    return g


def check_timing(report, cores=os.cpu_count() or 1):
    g = Gates()
    g.run(read_scaling, report, cores)
    g.run(cold_start, report, cores)
    return g


def check_serve(server, client):
    g = Gates()
    g.run(serving, server, client)
    return g


def main(argv):
    checks = {"bench": (check_bench, (1, 2)), "timing": (check_timing, (1,)),
              "serve": (check_serve, (2,))}
    if len(argv) < 2 or argv[1] not in checks or \
            len(argv) - 2 not in checks[argv[1]][1]:
        sys.exit(__doc__)
    check = checks[argv[1]][0]
    reports = []
    for path in argv[2:]:
        with open(path) as f:
            reports.append(json.load(f))
    g = check(*reports)
    for gate, message in g.failures:
        print(f"{gate}: {message}", file=sys.stderr)
    return 1 if g.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
