"""Compares two x100bench result sets, metric by metric.

usage:
  python3 benchmark/compare.py PARENT_DIR CHANGE_DIR [--traced]
  python3 benchmark/compare.py --self-test

A result set is a directory holding the result files of several runs, one
subdirectory per run (the --out DIR of `benchmark/run.sh`), e.g.
parent/01/olap_mem.json, parent/02/olap_mem.json, ...  Run i of the parent
is paired with run i of the change (sorted by path), so run the two sides
in alternating order: parent, change, change, parent, ... and at least ten
pairs. --traced compares the per-layer metrics of traced runs instead.

For every (workload, metric) one row gives each side's median and
quartiles and a verdict:
  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) exceeds the bound, and
              not every change run reads better than every parent run;
  unchanged   otherwise.
End-to-end metrics take their bound from BENCHMARK.json. Class metrics
(q1_p50_ms, point_p99_ms, checkpoint_p50_ms, max_rate_qps, sustained_qps,
...) are not in BENCHMARK.json and take CLASS_BOUND. Per-layer metrics
have no bound: they are worse by the improved rule, mirrored.
One more row per workload, failed_frac, compares failed / attempted summed
over the runs: worse whenever the change's fraction exceeds the parent's.
Exits 1 when any row is worse.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The timing bound the benchmark was specified with. Class metrics hold the
# timings; BENCHMARK.json cannot gate them because none repeats within it
# on every workload (README.md "Repeatability").
CLASS_BOUND = 0.10


def load_metrics():
    """BENCHMARK.json's metrics by name, with the kind each belongs to."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: dict(m, kind=kind)
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def load_set(directory, traced):
    """{workload: {metric: [value per run, in path order]}}, with each
    run's attempted and failed counts under the key None."""
    suffix = ".traced.json" if traced else ".json"
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "**", "*" + suffix),
                                 recursive=True)):
        if not traced and path.endswith(".traced.json"):
            continue
        if os.path.basename(path).startswith("trace-"):
            continue
        with open(path) as f:
            doc = json.load(f)
        if not doc.get("correct", False):
            raise SystemExit(f"{path}: run has wrong answers")
        per = runs.setdefault(doc["workload"], {})
        per.setdefault(None, []).append((doc["attempted"], doc["failed"]))
        for m in doc["metrics"]:
            if m["value"] is not None:
                per.setdefault(m["name"], []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound):
    """The comparison rule for one metric; returns (verdict, wins, pairs)."""
    n = min(len(parent), len(change))
    p, c = parent[:n], change[:n]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    q1, mp, q3 = quartiles(p)
    mc = statistics.median(c)
    iqr = q3 - q1
    if wins >= 0.9 * n and abs(mc - mp) > iqr and sign * (mc - mp) > 0:
        return "improved", wins, n
    if bound is None:
        if losses >= 0.9 * n and abs(mc - mp) > iqr and sign * (mc - mp) < 0:
            return "worse", wins, n
        return "unchanged", wins, n
    if mp:
        worse_by = -sign * (mc - mp) / abs(mp)
    else:  # a parent median of 0: any worsening is past every bound
        worse_by = float("inf") if sign * (mc - mp) < 0 else 0
    if worse_by > bound:
        return "worse", wins, n
    spread = iqr / abs(mp) if mp else 0
    all_better = all(sign * (b - a) > 0 for a in p for b in c)
    if spread > bound and not all_better:
        return "unresolved", wins, n
    return "unchanged", wins, n


def failed_verdict(parent, change):
    """failed / attempted summed over the runs of each side."""
    frac = lambda runs: sum(f for _, f in runs) / max(1, sum(a for a, _ in runs))
    p, c = frac(parent), frac(change)
    return ("worse" if c > p else "unchanged"), p, c


def compare(parent_runs, change_runs, metrics):
    rows = []
    for w in sorted(set(parent_runs) & set(change_runs)):
        pw, cw = parent_runs[w], change_runs[w]
        if None in pw and None in cw:
            v, p, c = failed_verdict(pw[None], cw[None])
            rows.append((w, "failed_frac", v, (p, p, p), (c, c, c), 0,
                         min(len(pw[None]), len(cw[None])), 0.0))
        for name in sorted(k for k in set(pw) & set(cw) if k is not None):
            spec = metrics.get(name)
            if spec is not None:
                better = spec["better"]
                bound = spec.get("bound")
            else:  # a class metric: rates are higher-better
                better = "higher" if name.endswith("_qps") else "lower"
                bound = CLASS_BOUND
            v, wins, n = verdict(pw[name], cw[name], better, bound)
            rows.append((w, name, v, quartiles(pw[name]), quartiles(cw[name]),
                         wins, n, bound))
    return rows


def print_rows(rows):
    print(f"{'workload':<11} {'metric':<34} {'verdict':<10} "
          f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'wins':>6} {'bound':>6}")
    for w, name, v, p, c, wins, n, bound in rows:
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        b = f"{bound:.0%}" if bound is not None else "-"
        print(f"{w:<11} {name:<34} {v:<10} {fmt(p):>32} {fmt(c):>32} "
              f"{wins:>3}/{n:<2} {b:>6}")


def self_test():
    metrics = {"setup_s": {"better": "lower", "bound": 0.25},
               "peak_rss_mb": {"better": "lower", "bound": 0.05},
               "exec.q1.agg_ms": {"better": "lower"}}
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    cases = [
        # (expected verdict, metric, parent runs, change runs)
        # 20% less on every pair: a gain.
        ("improved", "peak_rss_mb", base, [v * 0.8 for v in base]),
        # 8% more, past the 5% bound; 20% more is within setup_s's 25%.
        ("worse", "peak_rss_mb", base, [v * 1.08 for v in base]),
        ("unchanged", "setup_s", base, [v * 1.2 for v in base]),
        # Noise inside the bound.
        ("unchanged", "peak_rss_mb", base, list(reversed(base))),
        # The parent alone spreads wider than the bound.
        ("unresolved", "peak_rss_mb", [8, 12, 9, 11, 8, 12, 10, 9, 11, 10],
         [9, 11, 10, 10, 12, 8, 9, 11, 10, 10]),
        # Class metrics take CLASS_BOUND: 15% slower is worse, and a
        # higher-is-better rate flips the comparisons.
        ("worse", "checkpoint_p50_ms", base, [v * 1.15 for v in base]),
        ("unresolved", "point_p99_ms", [8, 12, 9, 11, 8, 12, 10, 9, 11, 10],
         [9, 11, 10, 10, 12, 8, 9, 11, 10, 10]),
        ("improved", "max_rate_qps", base, [v * 1.3 for v in base]),
        ("worse", "max_rate_qps", base, [v * 0.85 for v in base]),
        # A count that was 0 at the parent and is not at the change.
        ("worse", "ladder_refused", [0] * 10, [0] * 4 + [3] * 6),
        # Per-layer metrics have no bound: the improved rule, mirrored.
        ("worse", "exec.q1.agg_ms", base, [v * 1.5 for v in base]),
        ("unchanged", "exec.q1.agg_ms", base, list(reversed(base))),
    ]
    failures = 0
    for want, name, p, c in cases:
        got = compare({"w": {name: p}}, {"w": {name: c}}, metrics)[0][2]
        failures += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} {name}: {got}, "
              f"want {want}")
    # More failures per attempt at the change is worse, however few.
    ok_runs = [(1000, 0)] * 10
    for want, change in (("worse", [(1000, 0)] * 9 + [(1000, 1)]),
                         ("unchanged", ok_runs)):
        got = compare({"w": {None: ok_runs}}, {"w": {None: change}},
                      metrics)[0][2]
        failures += got != want
        print(f"{'ok  ' if got == want else 'FAIL'} failed_frac: {got}, "
              f"want {want}")
    if failures:
        sys.exit(1)
    print("self-test passed")


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        self_test()
        return
    traced = "--traced" in args
    dirs = [a for a in args if a != "--traced"]
    if len(dirs) != 2:
        raise SystemExit(__doc__)
    rows = compare(load_set(dirs[0], traced), load_set(dirs[1], traced),
                   load_metrics())
    print_rows(rows)
    if any(r[2] == "worse" for r in rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
