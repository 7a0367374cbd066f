#!/usr/bin/env python3
"""NetShare benchmark: builds the library and the harness from source, runs
one named workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare --base A.json... --new B.json...
    python3 -m unittest discover -s perfbench      # statistics unit tests

Workloads and their fixed parameters are in perfbench/workloads.json. With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics,
with --trace 1 the per-layer metrics; the lines before it are a readable
report. Each run also writes a result record (metrics plus host
fingerprint) under the build directory's results/ for the compare step, and
traced runs write a Chrome trace next to it. The exit code is non-zero if
any output check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "workloads.json").read_text())
HARNESS_TIMEOUT_S = 170

# Serve error codes (serve/protocol.hpp) that are the service's typed
# answer to load, not execution failures: kOverloaded, kDeadlineExceeded,
# kRateLimited.
SHED_CODES = (1, 5, 6)

# (name, unit) of every end-to-end metric, in report order.
E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "fit_s": "s", "fit_cpu_s": "CPU-s",
    "generate_rec_per_s": "records/s", "fidelity_mean_jsd": "jsd",
    "failed_frac": "ratio", "serve_p50_ms": "ms", "serve_p99_ms": "ms",
    "serve_first_part_p99_ms": "ms", "serve_rec_per_s": "records/s",
    "serve_max_rate_jobs_per_s": "jobs/s",
}
LAYER_UNITS = {
    "ml.kernels.gru_gate_gflops": "GFLOP/s",
    "ml.kernels.matmul_bias_gflops": "GFLOP/s",
    "ml.kernels.trans_a_acc_gflops": "GFLOP/s",
    "ml.kernels.trans_b_gflops": "GFLOP/s",
    "gan.fit_iters_per_s_1t": "iter/s", "gan.fit_iters_per_s_nt": "iter/s",
    "core.preprocess.fit_ms": "ms", "core.preprocess.encode_rec_per_s": "records/s",
    "core.train.seed_s": "s", "core.train.finetune_s": "s",
    "core.train.retries": "count", "core.train.seed_fallbacks": "count",
    "gan.sample_series_per_s": "series/s", "core.generate.sample_ms": "ms",
    "core.generate.decode_rec_per_s": "records/s",
    "embed.ip2vec_train_s": "s", "embed.decode_us_per_query": "us",
    "core.postprocess.remap_rec_per_s": "records/s",
    "core.postprocess.repair_rec_per_s": "records/s",
    "serve.admit_us_p99": "us", "serve.jobs_per_batch": "jobs",
    "serve.shed_overloaded": "count", "serve.shed_rate_limited": "count",
    "serve.deadline_exceeded": "count", "serve.backlog_end": "jobs",
    "serve.publish_s": "s", "loadgen.late_ms_p99": "ms",
    "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the harness; returns its path."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "nsbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return bdir / "nsbench"


# ---------------------------------------------------------------------------
# Metrics from the harness's raw output.

def fit_metrics(raw, params):
    """End-to-end metrics and checks of a fit_* workload."""
    warm = raw["warmups"]
    reps = raw.get("reps") or warm  # traced runs time no repetitions
    promised = raw["promised_records"]
    runs = warm + reps
    failed = sum(1 for r in runs if not r["ok"])
    digests = {r["digest"] for r in runs}
    checks = {
        "identical_output_across_reps": len(digests) == 1,
        "zero_checksum_failures":
            all(r["checksum_failures"] == 0 for r in runs),
        "promised_record_count": all(r["records"] == promised for r in runs),
        "no_failed_fits": failed == 0,
    }
    m = {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fit_s": statistics.median([r["fit_s"] for r in reps]),
        "fit_cpu_s": statistics.median([r["fit_cpu_s"] for r in reps]),
        "generate_rec_per_s": statistics.median(
            [r["records"] / g for r in reps for g in r["gen_s"]]),
        "fidelity_mean_jsd": raw.get("fidelity_mean_jsd"),
        "failed_frac": failed / len(runs),
    }
    spread = {k: stats.median_iqr([r[k] for r in reps])["iqr_frac"]
              for k in ("fit_s", "fit_cpu_s")}
    notes = ["%d timed reps + %d warm-up fits; fit_s IQR %.1f%% of median"
             % (len(reps), len(warm), 100 * spread["fit_s"]),
             "generate(%d) promises %d records (per-chunk target rounding)"
             % (params["generate_records"], promised)]
    notes += ["fit error: " + r["error"] for r in runs if r["error"]]
    return m, checks, {"attempted": len(runs), "failed": failed}, notes


def warm_fits(fits, setups):
    """The fits of every setup repetition but the first: a process's first
    fit runs cold (page faults, pool start-up, kernel autotuning)."""
    per_rep = len(fits) // len(setups)
    return fits[per_rep:] if len(setups) > 1 else fits


def serve_metrics(raw, ladder, schedule, bounds):
    """End-to-end serve metrics, per-step table and checks of serve_open.
    bounds: [(start_s, end_s)] of each ladder step."""
    jobs = raw["jobs"]
    rates = ladder["rates_jobs_per_s"]
    nominal = ladder["nominal_step"]
    top = len(rates) - 1
    steps = []
    for k, rate in enumerate(rates):
        rows = [j for j in jobs if j[0] == k]
        ok = [j for j in rows if j[6] == 0 and j[5] is not None]
        lat = [j[5] for j in ok]
        misses = lat + [math.inf] * (len(rows) - len(ok))
        p = stats.percentile_rule(misses, 99.0)
        met = (p["value"] is not None and p["value"] <= ladder["p99_limit_ms"]
               and raw["backlog_end"][k] <= ladder["backlog_limit_jobs"])
        steps.append({"rate": rate, "offered": len(rows), "completed": len(ok),
                      "limit_pct": p["pct"], "limit_value_ms": p["value"],
                      "backlog_end": raw["backlog_end"][k], "met": met})
    # Throughput at the top (overload) rate: records of jobs completing
    # inside that step's window.
    t0, t1 = bounds[top][0] * 1e3, bounds[top][1] * 1e3
    done_records = sum(j[7] for j, s in zip(jobs, schedule)
                       if j[6] == 0 and j[5] is not None
                       and t0 <= s["due_ms"] + j[5] < t1)
    top_rec_per_s = done_records / (bounds[top][1] - bounds[top][0])
    nom_ok = [j for j in jobs if j[0] == nominal and j[6] == 0]
    p50 = stats.percentile_rule([j[5] for j in nom_ok], 50.0)
    p99 = stats.percentile_rule([j[5] for j in nom_ok], 99.0)
    first = stats.percentile_rule([j[4] for j in nom_ok if j[4] is not None],
                                  99.0)
    offered = len(jobs)
    not_done = sum(1 for j in jobs if j[6] != 0)
    met_rates = [s["rate"] for s in steps if s["met"]]
    st = raw["service_stats"]
    exec_failed = (int(raw["wrong_count_jobs"]) + int(raw["mismatched_jobs"])
                   + sum(1 for j in jobs if j[6] not in (0, *SHED_CODES)))
    checks = {
        "served_jobs_equal_oracle": raw["mismatched_jobs"] == 0
                                    and raw["checked_jobs"] > 0,
        "completed_jobs_have_promised_count": raw["wrong_count_jobs"] == 0,
        "no_execution_errors": exec_failed == 0,
        "nominal_p99_has_samples": p99["pct"] == 99.0,
    }
    setups = raw["setup_s"]
    m = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "fit_s": statistics.median(warm_fits(raw["fit_s"], setups)),
        "fit_cpu_s": statistics.median(warm_fits(raw["fit_cpu_s"], setups)),
        "generate_rec_per_s": top_rec_per_s,
        "fidelity_mean_jsd": raw["fidelity_mean_jsd"],
        "failed_frac": not_done / offered,
        "serve_p50_ms": p50["value"],
        "serve_p99_ms": p99["value"],
        "serve_first_part_p99_ms": first["value"],
        "serve_rec_per_s": top_rec_per_s,
        "serve_max_rate_jobs_per_s": max(met_rates) if met_rates else 0.0,
    }
    due = [s["due_ms"] for s in schedule]
    late = stats.percentile_rule(stats.lateness_ms(
        due, [d + j[2] for d, j in zip(due, jobs)]), 99.0)
    notes = ["nominal rate %g jobs/s: p50 over n=%d, p%g over n=%d; "
             "first part p%s over n=%d" % (rates[nominal], p50["n"],
                                           p99["pct"] or 0, p99["n"],
                                           first["pct"], first["n"]),
             "generate_rec_per_s on serve_open is serve_rec_per_s "
             "(completed records/s at the top rate)",
             "%d completed jobs returned fewer than the n requested (per-chunk "
             "target rounding; all match the promised count)"
             % raw["jobs_short_of_n"],
             "loadgen late p%s = %.3f ms" % (late["pct"], late["value"] or 0)]
    for s in steps:
        notes.append("  step %5g jobs/s: offered %4d completed %4d  p%s %s ms"
                     "  backlog_end %d  %s" % (
                         s["rate"], s["offered"], s["completed"],
                         s["limit_pct"],
                         "%.1f" % s["limit_value_ms"]
                         if s["limit_value_ms"] not in (None, math.inf)
                         else "miss", s["backlog_end"],
                         "meets limit" if s["met"] else "over limit"))
    counts = {"attempted": offered, "failed": exec_failed}
    extra = {"steps": steps, "late": late, "jobs_per_batch":
             (st["completed"] + st["errors"]) / max(1, st["batches"]),
             "admit_us": stats.percentile_rule(
                 [(j[3] - j[2]) * 1e3 for j in jobs], 99.0)}
    return m, checks, counts, notes, extra


def trace_metrics(raw, trace_path, serve_extra, nominal):
    """Per-layer metrics of a traced run, plus the span attribution."""
    traced = raw["traced"] if "traced" in raw else raw
    c, p = traced["cycle"], traced["probes"]
    records = c["decoded_records"]
    m = {
        "ml.kernels.gru_gate_gflops": p["gru_gate_gflops"],
        "ml.kernels.matmul_bias_gflops": p["matmul_bias_gflops"],
        "ml.kernels.trans_a_acc_gflops": p["trans_a_acc_gflops"],
        "ml.kernels.trans_b_gflops": p["trans_b_gflops"],
        "gan.fit_iters_per_s_1t": p["fit_iters_per_s_1t"],
        "gan.fit_iters_per_s_nt": p["fit_iters_per_s_nt"],
        "core.preprocess.fit_ms": c["preprocess_fit_ms"],
        "core.preprocess.encode_rec_per_s":
            c["encoded_records"] / c["encode_s"],
        "core.train.seed_s": c["seed_s"],
        "core.train.finetune_s": c["finetune_s"],
        "core.train.retries": c["retries"],
        "core.train.seed_fallbacks": c["seed_fallbacks"],
        "gan.sample_series_per_s": c["series"] / c["sample_s"],
        "core.generate.sample_ms": c["sample_s"] * 1e3,
        "core.generate.decode_rec_per_s": records / c["decode_s"],
        "embed.ip2vec_train_s": p["ip2vec_train_s"],
        "embed.decode_us_per_query": p["decode_us_per_query"],
        "core.postprocess.remap_rec_per_s": records / c["remap_s"],
        "core.postprocess.repair_rec_per_s": records / c["repair_s"],
        "trace.overhead_frac": traced["trace_overhead_frac"],
    }
    # Serve layers exist only on serve_open; elsewhere they are 0 (no
    # admissions, batches or publishes happened).
    serve = {"serve.admit_us_p99": 0.0, "serve.jobs_per_batch": 0.0,
             "serve.shed_overloaded": 0.0, "serve.shed_rate_limited": 0.0,
             "serve.deadline_exceeded": 0.0, "serve.backlog_end": 0.0,
             "serve.publish_s": 0.0, "loadgen.late_ms_p99": 0.0}
    if serve_extra is not None:
        st = raw["service_stats"]
        serve.update({
            "serve.admit_us_p99": serve_extra["admit_us"]["value"],
            "serve.jobs_per_batch": serve_extra["jobs_per_batch"],
            "serve.shed_overloaded": st["shed_overloaded"],
            "serve.shed_rate_limited": st["shed_rate_limited"],
            "serve.deadline_exceeded": st["deadline_exceeded"],
            "serve.backlog_end": raw["backlog_end"][nominal],
            "serve.publish_s": statistics.median(raw["publish_s"]),
            "loadgen.late_ms_p99": serve_extra["late"]["value"],
        })
    m.update(serve)

    trace = json.loads(Path(trace_path).read_text())
    spans = [{"id": e["args"]["id"], "parent": e["args"]["parent"],
              "name": e["name"], "start": e["ts"] / 1e6,
              "end": (e["ts"] + e["dur"]) / 1e6} for e in trace["traceEvents"]]
    root = next(s for s in spans if s["name"] == "run")
    wall = root["end"] - root["start"]
    attribution = stats.attribute(spans, root["id"])
    m["trace.unattributed_frac"] = attribution.get("unattributed", 0.0) / wall
    checks = {
        "zero_dropped_spans": trace["otherData"]["dropped_spans"] == 0,
        "self_times_sum_to_wall":
            abs(sum(attribution.values()) - wall) <= 1e-6 * max(1.0, wall),
        "traced_train_no_fallbacks": c["seed_fallbacks"] == 0,
        "traced_zero_checksum_failures": c["checksum_failures"] == 0,
    }
    if "composed_fit_matches_facade" in raw:
        checks["composed_fit_matches_facade"] = \
            raw["composed_fit_matches_facade"]
    notes = ["traced wall %.3f s over %d spans; self time by layer:"
             % (wall, len(spans))]
    for name, v in sorted(attribution.items(), key=lambda kv: -kv[1]):
        notes.append("  %-34s %9.4f s  %5.1f%%" % (name, v, 100 * v / wall))
    return m, checks, notes, attribution


# ---------------------------------------------------------------------------

def run(args):
    if args.workload not in CONFIG["workloads"]:
        log("unknown workload %r" % args.workload)
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("error: the library sources (src/) are not next to perfbench/")
        return 2
    wl = CONFIG["workloads"][args.workload]
    params = wl["params"]
    binary = build()
    tag = "%s_s%d_t%d" % (args.workload, args.seed, args.trace)
    work = build_dir() / "run" / ("%s_%d" % (tag, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = work / "raw.json"
    trace_path = results / (tag + ".trace.json")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work), "--out", str(out),
           "--trace-out", str(trace_path)]
    for k, v in params.items():
        cmd += ["--set", "%s=%s" % (k, v)]
    schedule = None
    ladder = wl.get("ladder")
    if ladder:
        durations = [args.seconds * s for s in ladder["step_shares"]]
        schedule = stats.poisson_schedule(
            args.seed, ladder["rates_jobs_per_s"], durations, ladder["tenants"],
            ladder["models"], ladder["small_records"], ladder["large_records"],
            ladder["large_frac"])
        sched_path = work / "schedule.txt"
        sched_path.write_text("".join(
            "%.6f %d %s %s %d %d\n" % (j["due_ms"], j["step"], j["tenant"],
                                       j["model"], j["n"], j["seed"])
            for j in schedule))
        cmd += ["--schedule", str(sched_path), "--set", "step_ends_ms=" +
                ",".join("%r" % (e * 1e3)
                         for _, e in stats.step_bounds(durations))]
    try:
        subprocess.run(cmd, check=True, timeout=HARNESS_TIMEOUT_S,
                       stdout=sys.stderr)
        raw_all = json.loads(out.read_text())
        (results / (tag + ".raw.json")).write_text(json.dumps(raw_all))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = raw_all["result"]
    fp = raw_all["fingerprint"]

    serve_extra = None
    if ladder:
        m, checks, counts, notes, serve_extra = serve_metrics(
            raw, ladder, schedule, stats.step_bounds(durations))
    else:
        m, checks, counts, notes = fit_metrics(raw, params)
    e2e = m
    attribution = None
    if args.trace:
        m, tchecks, tnotes, attribution = trace_metrics(
            raw, trace_path, serve_extra, ladder["nominal_step"] if ladder else 0)
        checks.update(tchecks)
        notes += tnotes

    bench = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").exists() else None
    if args.trace:
        names = [x["name"] for x in bench["per_layer"]] if bench else list(m)
        units = LAYER_UNITS
    else:
        names = [x["name"] for x in bench["end_to_end"]] if bench else list(m)
        units = E2E_UNITS
    correct = all(checks.values())

    print("workload %s seed %d trace %d  [%s; nproc %d; simd %s/%s; %s %s]"
          % (args.workload, args.seed, args.trace, fp["cpu_model"],
             fp["nproc"], fp["simd_supported"], fp["simd_active"],
             fp["compiler"], fp["build_type"]))
    for k, v in m.items():
        print("  %-36s %14.6g %s" % (k, v if v is not None else math.nan,
                                     units.get(k, "")))
    for line in notes:
        print("  " + line)
    for k, ok in checks.items():
        print("  check %-40s %s" % (k, "ok" if ok else "FAILED"))

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fingerprint": fp, "correct": correct,
              "metrics": {k: {"value": v, "unit": units.get(k, "")}
                          for k, v in m.items()},
              "end_to_end": e2e, "checks": checks, "attribution": attribution,
              "serve_steps": serve_extra["steps"] if serve_extra else None}
    (results / (tag + ".json")).write_text(json.dumps(record, indent=1))

    metrics = {}
    for k in names:
        v = m.get(k)
        if v is None or not math.isfinite(v):
            correct = False
            v = 0.0
        metrics[k] = {"value": v, "unit": units[k]}
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1


def compare(argv):
    """Compares result records of two commits: medians per metric against
    the bounds in workloads.json. Refuses records from different hosts."""
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    a = ap.parse_args(argv)
    base = [json.loads(Path(p).read_text()) for p in a.base]
    new = [json.loads(Path(p).read_text()) for p in a.new]
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare: host fingerprints differ:")
        for fp in sorted(prints):
            print("  " + fp)
        return 3
    if len({(r["workload"], r["trace"]) for r in base + new}) != 1:
        print("refusing to compare: records are of different workloads/modes")
        return 3
    worse = 0
    for name in base[0]["end_to_end"]:
        b = [r["end_to_end"][name] for r in base
             if r["end_to_end"].get(name) is not None]
        n = [r["end_to_end"][name] for r in new
             if r["end_to_end"].get(name) is not None]
        if not b or not n:
            continue
        bm, nm = statistics.median(b), statistics.median(n)
        lower = E2E_UNITS.get(name) not in ("records/s", "jobs/s")
        change = (nm - bm) / bm if bm else 0.0
        regress = change if lower else -change
        bound = CONFIG["bounds"].get(name)
        bad = bound is not None and regress > bound
        worse += bad
        print("%-28s base %12.6g  new %12.6g  %+7.2f%%  bound %s  %s"
              % (name, bm, nm, 100 * change, bound, "WORSE" if bad else "ok"))
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is None and args.workload in CONFIG["workloads"]:
        args.seed = CONFIG["workloads"][args.workload]["default_seed"]
    try:
        return run(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, KeyError, ValueError) as e:
        log("benchmark failed: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
