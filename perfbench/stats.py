"""Statistics used by the benchmark: the percentile rule, median and
interquartile spread, the seeded open-loop arrival schedule, generator
lateness, and span self time. Pure functions of their inputs; unit-tested by
perfbench/test_stats.py."""

import math
import random
import statistics

# Percentiles the rule may report, highest first.
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile_rule(values, want=99.0):
    """The highest percentile not above `want` that has at least
    MIN_BEYOND samples beyond it (nearest-rank percentiles).

    Returns {"pct", "value", "n"}; pct and value are None when even the
    median lacks MIN_BEYOND samples beyond it. Infinite values (failed
    requests) sort last, so they count as misses."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in CANDIDATE_PERCENTILES:
        if pct > want:
            continue
        rank = max(1, math.ceil(pct / 100.0 * n)) if n else 0
        if n and n - rank >= MIN_BEYOND:
            return {"pct": pct, "value": ordered[rank - 1], "n": n}
    return {"pct": None, "value": None, "n": n}


def median_iqr(values):
    """Median and the interquartile distance as a share of the median,
    using statistics.quantiles(values, n=4) (the exclusive method)."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"median": v, "iqr_frac": 0.0, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "iqr_frac": spread, "n": len(values), "q1": q1,
            "q3": q3}


def step_bounds(durations_s):
    """[(start_s, end_s)] of consecutive ladder steps."""
    out, t = [], 0.0
    for d in durations_s:
        out.append((t, t + d))
        t += d
    return out


def poisson_schedule(seed, rates, durations_s, tenants, models, small, large,
                     large_frac):
    """Open-loop arrivals: during step k of the ladder (durations_s[k]
    seconds, steps back to back) jobs arrive as a Poisson process at
    rates[k] jobs/s. Each job picks a tenant and a model uniformly, is large
    (large records) with probability large_frac and small otherwise, and
    carries its own generation seed. The same seed always gives the same
    schedule."""
    rng = random.Random(seed)
    jobs = []
    for step, (rate, (t, end)) in enumerate(zip(rates,
                                                step_bounds(durations_s))):
        while True:
            t += rng.expovariate(rate)
            if t >= end:
                break
            big = rng.random() < large_frac
            jobs.append({
                "due_ms": t * 1000.0,
                "step": step,
                "tenant": "t%d" % rng.randrange(tenants),
                "model": models[rng.randrange(len(models))],
                "n": large if big else small,
                "seed": rng.getrandbits(62),
            })
    return jobs


def lateness_ms(due_ms, submitted_ms):
    """How far behind schedule each submission ran (never negative: an
    early wake-up is on time)."""
    return [max(0.0, s - d) for d, s in zip(due_ms, submitted_ms)]


def attribute(spans, root_id):
    """Splits the root span's wall time among layers.

    spans: dicts with id, parent, name, start, end. A span's self time is
    its duration minus the part its children cover. Children that overlap
    each other (work fanned out to threads) are one concurrent group: the
    group's covered wall time goes to its name as a whole and is not split
    further. Returns {name: seconds-or-ms (input units)}, with the root's
    own self time under "unattributed"; the values sum to the root's
    duration."""
    by_id = {s["id"]: s for s in spans}
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}

    def add(name, v):
        out[name] = out.get(name, 0.0) + v

    def walk(span, label):
        s0, e0 = span["start"], span["end"]
        children = sorted(kids.get(span["id"], []), key=lambda c: c["start"])
        groups = []
        for c in children:
            cs, ce = max(c["start"], s0), min(c["end"], e0)
            if ce <= cs:
                continue
            if groups and cs < groups[-1]["end"]:
                groups[-1]["members"].append(c)
                groups[-1]["end"] = max(groups[-1]["end"], ce)
            else:
                groups.append({"start": cs, "end": ce, "members": [c]})
        covered = 0.0
        for g in groups:
            covered += g["end"] - g["start"]
            if len(g["members"]) == 1:
                walk(g["members"][0], g["members"][0]["name"])
            else:
                add(g["members"][0]["name"], g["end"] - g["start"])
        add(label, (e0 - s0) - covered)

    walk(by_id[root_id], "unattributed")
    return out
