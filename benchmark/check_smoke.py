"""Checks the output of `benchmark/run.sh --smoke`.

usage: check_smoke.py BENCHMARK.json SMOKE_DIR TMPDIR

For every workload BENCHMARK.json names, the untraced run's summary line
must carry exactly the end-to-end metrics and the traced run's exactly the
per-layer metrics, each a finite number; every result and trace file must
parse as JSON; and no x100bench scratch directory may remain in TMPDIR.
Exits non-zero listing every problem found.
"""
import json
import math
import os
import sys


def summary(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def main():
    spec_path, smoke, tmpdir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            out = os.path.join(smoke, f"{w}.trace{trace}.out")
            try:
                s = summary(out)
            except (OSError, ValueError) as e:
                problems.append(f"{out}: {e}")
                continue
            if s.get("correct") is not True:
                problems.append(f"{out}: correct is {s.get('correct')}")
            got = set(s.get("metrics", {}))
            for name in sorted(wanted[trace] - got):
                problems.append(f"{out}: missing metric {name}")
            for name in sorted(got - wanted[trace]):
                problems.append(f"{out}: metric {name} not in BENCHMARK.json")
            for name, m in s.get("metrics", {}).items():
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{out}: {name} = {v!r}")
        for name in (f"{w}.json", f"{w}.traced.json", f"trace-{w}.json"):
            try:
                with open(os.path.join(smoke, name)) as f:
                    json.load(f)
            except (OSError, ValueError) as e:
                problems.append(f"{name}: {e}")
    left = [e for e in os.listdir(tmpdir) if e.startswith("x100bench-")]
    if left:
        problems.append(f"scratch left in {tmpdir}: {left}")
    for p in problems:
        print("FAIL", p)
    if problems:
        sys.exit(1)
    print(f"smoke OK: {len(spec['workloads'])} workloads, "
          f"{len(wanted[0])} end-to-end and {len(wanted[1])} per-layer "
          "metrics present, outputs parse, no scratch left")


if __name__ == "__main__":
    main()
