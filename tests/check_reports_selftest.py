#!/usr/bin/env python3
"""Every gate of check_reports.py can fail.

    check_reports_selftest.py BENCH_quasii_ci.json

The committed CI baseline must pass every deterministic gate against
itself. Then each case doctors an in-memory copy of it (or of a minimal
serving report pair) and requires the gate it targets to reject the copy;
the controls require a doctored copy that still satisfies a gate to pass.
Runs no bench.
"""

import contextlib
import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_reports as cr  # noqa: E402


def config(report, workload, n=8192):
    return next(c for c in report["configs"]
                if c["workload"] == workload and c["n"] == n)


def result(report, workload, index, n=8192):
    return cr.by_index(config(report, workload, n))[index]


ROSTER = ("Scan", "SFCracker", "QUASII")


def quasii(report, workload="uniform"):
    return result(report, workload, "QUASII")


def on(workload, index, path, value):
    """Doctors the field at `path`, a key list below one result, with a
    value or a function of the old one."""
    def doctor(rep):
        *parents, leaf = path
        r = result(rep, workload, index)
        for key in parents:
            r = r[key]
        r[leaf] = value(r[leaf]) if callable(value) else value
    return doctor


def drop_config(rep):
    rep["configs"] = [c for c in rep["configs"]
                      if (c["workload"], c["n"]) != ("mixed", 16384)]


def scan_tests_as_much(rep):
    scan = result(rep, "uniform", "Scan")["cumulative_stats"]
    quasii(rep)["cumulative_stats"]["objects_tested"] = scan["objects_tested"]


def counter_over_band(rep):
    stats = quasii(rep, "clustered")["cumulative_stats"]
    stats["cracks"] = int(stats["cracks"] * 1.11) + 1


def mixed_runs_an_insert(rep):
    """Every index of a read-only preset runs one insert in place of a
    range query: the roster still agrees, and the op total holds."""
    for index in ROSTER:
        pt = result(rep, "mixed", index)["per_type"]
        pt["range"]["queries"] -= 1
        pt["insert"]["queries"] += 1


def extra_section(rep):
    for index in ROSTER:
        pt = result(rep, "uniform", index)["per_type"]
        pt["scan"] = dict(pt["join"])


def join_never_cracks(rep):
    for point in result(rep, "join", "SFCracker")["convergence"]:
        point["cumulative_objects_moved"] = 0


def crack_after_round_one(rep):
    for point in quasii(rep, "join")["convergence"][1:]:
        point["cumulative_cracks"] += 1


def ab_all(key, value):
    def doctor(rep):
        for _, q in cr.uniform_quasii(rep):
            q["ab"]["parallel"][key] = value
    return doctor


def set_option(key, value):
    return lambda rep: rep["options"].__setitem__(key, value)


def chain(*doctors):
    def doctor(rep):
        for d in doctors:
            d(rep)
    return doctor


def reads_scale(factor):
    """Sets the 8-thread converged throughput to `factor` x 1 thread's."""
    def doctor(rep):
        for _, q in cr.uniform_quasii(rep):
            one = q["scaling"][0]["queries_per_s"]
            q["scaling"][-1]["queries_per_s"] = factor * one
    return doctor


def full_size_cold_start(speedup):
    def doctor(rep):
        for config, q in cr.uniform_quasii(rep):
            config["n"] = 2**20
            q["ab"]["parallel"].update(speedup=speedup, a_threads=1,
                                       b_threads=8)
    return doctor


SERVER = {"accepted": 160, "malformed": 0, "frame_errors": 0}
CLIENT = {"transport_ok": True,
          "per_client": [{"client": 0, "p99_ms": 0.2},
                         {"client": 1, "p99_ms": 0.3}]}

# (gate that must fail, or None for a control; doctoring; environment)
BENCH_CASES = [
    ("schema", lambda rep: rep.update(schema="quasii-bench-v9"), {}),
    ("fewer_candidates", scan_tests_as_much, {}),
    ("perf_band", counter_over_band, {}),
    ("perf_band", drop_config, {}),
    ("recovery", lambda rep: quasii(rep)["recovery"].update(replay_cracks=1),
     {}),
    ("recovery", lambda rep: quasii(rep)["recovery"].update(ok=False), {}),
    ("recovery",
     lambda rep: quasii(rep)["recovery"].update(checksum_match=False), {}),
    ("ab_equivalence", ab_all("content_match", False), {}),
    ("ab_equivalence", ab_all("counters_match", False), {}),
    ("ab_equivalence",
     lambda rep: quasii(rep)["ab"]["simd"].update(checksum_match=False), {}),
    ("ab_equivalence", lambda rep: quasii(rep)["ab"].pop("simd"), {}),
    ("scaling_shape", lambda rep: quasii(rep)["scaling"].pop(), {}),
    ("same_answers", on("join", "Scan", ["result_objects"],
                        lambda v: v + 1), {}),
    ("same_answers", lambda rep: result(rep, "readwrite", "SFCracker")
     ["per_type"].pop("insert"), {}),
    ("same_answers", on("readwrite", "QUASII",
                        ["per_type", "insert", "result_objects"],
                        lambda v: v - 1), {}),
    ("same_answers", on("mixed", "QUASII",
                        ["per_type", "knn", "result_objects"],
                        lambda v: v + 1), {}),
    ("same_answers", on("uniform", "SFCracker",
                        ["post_workload", "checksum"], lambda v: v ^ 1), {}),
    ("same_answers", mixed_runs_an_insert, {}),
    ("same_answers", extra_section, {}),
    ("same_answers",
     lambda rep: config(rep, "readwrite").update(queries=201), {}),
    ("joins_converge", crack_after_round_one, {}),
    ("joins_converge", join_never_cracks, {}),
    ("runtime_env", set_option("simd_tier", "avx2"),
     {"QUASII_FORCE_SCALAR": "1"}),
    ("runtime_env", chain(set_option("exec_threads", 4),
                          ab_all("b_threads", 1)),
     {"QUASII_EXEC_THREADS": "1"}),
    ("runtime_env", chain(set_option("exec_threads", 2),
                          ab_all("b_threads", 8)),
     {"QUASII_EXEC_THREADS": "2"}),
    (None, set_option("simd_tier", "scalar"), {"QUASII_FORCE_SCALAR": "1"}),
    (None, chain(set_option("exec_threads", 1), ab_all("b_threads", 1)),
     {"QUASII_EXEC_THREADS": "1"}),
]

# (gate that must fail, or None; doctoring; cores)
TIMING_CASES = [
    ("read_scaling", reads_scale(1.9), 4),
    (None, reads_scale(1.9), 2),
    (None, reads_scale(2.0), 4),
    ("cold_start", chain(reads_scale(2.0), full_size_cold_start(1.4)), 4),
    (None, chain(reads_scale(2.0), full_size_cold_start(1.5)), 4),
    (None, full_size_cold_start(1.4), 2),
]

SERVE_CASES = [
    ("serving", lambda s, c: s.update(malformed=1)),
    ("serving", lambda s, c: s.update(frame_errors=2)),
    ("serving", lambda s, c: s.update(accepted=0)),
    ("serving", lambda s, c: c.update(transport_ok=False)),
    ("serving", lambda s, c: c["per_client"][1].pop("p99_ms")),
    (None, lambda s, c: None),
]


def expect(name, want, check, *args, **kwargs):
    """Runs `check` quietly. `want` None: no gate fails; else gate `want`
    must be among those that fail."""
    with contextlib.redirect_stdout(io.StringIO()):
        failed = check(*args, **kwargs).failed()
    ok = not failed if want is None else want in failed
    print(f"{'ok  ' if ok else 'FAIL'} case {name}: expected "
          f"{want or 'pass'}, failed {sorted(failed) or 'none'}")
    return ok


def main(argv):
    with open(argv[1]) as f:
        base = json.load(f)
    ok = expect("baseline", None, cr.check_bench, base, base, env={})
    for i, (want, doctor, env) in enumerate(BENCH_CASES):
        rep = copy.deepcopy(base)
        doctor(rep)
        ok &= expect(f"bench {i}", want, cr.check_bench, rep, base, env=env)
    for i, (want, doctor, cores) in enumerate(TIMING_CASES):
        rep = copy.deepcopy(base)
        doctor(rep)
        ok &= expect(f"timing {i}", want, cr.check_timing, rep, cores=cores)
    for i, (want, doctor) in enumerate(SERVE_CASES):
        server, client = copy.deepcopy(SERVER), copy.deepcopy(CLIENT)
        doctor(server, client)
        ok &= expect(f"serve {i}", want, cr.check_serve, server, client)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
