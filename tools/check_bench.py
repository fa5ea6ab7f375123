#!/usr/bin/env python3
"""Gate a fresh bench record against the committed baseline.

Usage: check_bench.py <fresh.json> <committed-baseline.json>

Every gated bench writes one record shape (tools/Cli.h, benchRecord):

  {"bench", "pr", "host", "config": {...},
   "metrics": [{"name", "value", "unit", "better", "bound"}, ...]}

The fresh record must name the same bench and config as the baseline, and
carry every baseline metric with a finite value. Each metric then stays
within the baseline's bound in its better direction: for "lower", at most
base * (1 + bound); for "higher", at least base / (1 + bound). A bound of
0 makes counts and correctness bits exact; null only reports the number.
"""
import json
import math
import sys

FIELDS = {"name", "value", "unit", "better", "bound"}


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            record = json.load(f)
        metrics = {m["name"]: m for m in record["metrics"]}
        if any(set(m) != FIELDS for m in metrics.values()):
            raise ValueError(f"a metric lacks one of {sorted(FIELDS)}")
        return record, metrics
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"{path} is not a bench record: {e}")


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <fresh.json> <committed-baseline.json>")
    fresh, got = load(sys.argv[1])
    base, want = load(sys.argv[2])
    for key in ("bench", "config"):
        if fresh.get(key) != base.get(key):
            fail(f"{key} {json.dumps(fresh.get(key))} differs from the "
                 f"baseline's {json.dumps(base.get(key))}")
    lines = []
    for name, b in want.items():
        if name not in got:
            fail(f"{name} is missing")
        value, ref, bound = got[name]["value"], b["value"], b["bound"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"{name} is {json.dumps(value)}, not a finite number")
        line = f"{name} {value!r} {b['unit']} (baseline {ref!r}"
        if bound is None:
            lines.append(line + ", report only)")
            continue
        if b["better"] == "lower":
            limit, ok = ref * (1 + bound), value <= ref * (1 + bound)
        else:
            limit, ok = ref / (1 + bound), value >= ref / (1 + bound)
        line += f", {b['better']} is better, limit {limit!r})"
        if not ok:
            fail(line)
        lines.append(line)
    for line in lines:
        print(f"check_bench: {fresh['bench']}: {line}")
    print("check_bench: OK")


if __name__ == "__main__":
    main()
