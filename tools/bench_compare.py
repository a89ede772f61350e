#!/usr/bin/env python3
"""Compare two bench report JSON files produced with `--json <path>`.

Usage:
    tools/bench_compare.py baseline.json current.json [--tolerance 0.05]

Each file is the {"name", "repo_sha", "config", "values"} document written
by benchutil::report_flush(). Values are compared with a relative tolerance
(default 5%); values whose baseline magnitude is below --abs-floor use an
absolute tolerance instead, so near-zero metrics do not trip on noise.

Exit status: 0 when every shared value is within tolerance and both files
hold the same value names; 1 on any regression, missing value, or non-finite
mismatch; 2 on usage/parse errors or when the two reports come from
different benches (mismatched "name" fields — comparing those is always a
setup bug, not a regression).
"""

import argparse
import json
import math
import sys


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or not isinstance(doc.get("values"), dict):
        print(f"error: {path} has no \"values\" object", file=sys.stderr)
        sys.exit(2)
    return doc


def as_float(value):
    # Non-finite doubles are serialized as quoted strings by the C++ writer.
    if isinstance(value, str):
        return float(value.replace("Infinity", "inf"))
    return float(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative tolerance (default 0.05 = 5%%)")
    parser.add_argument("--abs-floor", type=float, default=1e-9,
                        help="below this baseline magnitude, compare absolutely")
    args = parser.parse_args()

    base = load_report(args.baseline)
    curr = load_report(args.current)

    if base.get("name") != curr.get("name"):
        print(f"error: cannot compare different benches: baseline is "
              f"{base.get('name')!r} ({args.baseline}) but current is "
              f"{curr.get('name')!r} ({args.current}); pass two reports "
              f"from the same bench", file=sys.stderr)
        sys.exit(2)

    base_values = base["values"]
    curr_values = curr["values"]
    failures = 0
    checked = 0

    for name in sorted(set(base_values) | set(curr_values)):
        if name not in base_values:
            print(f"FAIL {name}: missing from baseline")
            failures += 1
            continue
        if name not in curr_values:
            print(f"FAIL {name}: missing from current run")
            failures += 1
            continue
        b = as_float(base_values[name])
        c = as_float(curr_values[name])
        checked += 1
        if math.isnan(b) and math.isnan(c):
            continue
        if not math.isfinite(b) or not math.isfinite(c):
            if b != c:
                print(f"FAIL {name}: baseline={b} current={c}")
                failures += 1
            continue
        scale = max(abs(b), args.abs_floor)
        delta = abs(c - b)
        if abs(b) < args.abs_floor:
            ok = delta <= args.abs_floor
        else:
            ok = delta / scale <= args.tolerance
        if not ok:
            print(f"FAIL {name}: baseline={b:g} current={c:g} "
                  f"(rel delta {delta / scale:.2%} > {args.tolerance:.2%})")
            failures += 1

    sha_b = base.get("repo_sha", "?")
    sha_c = curr.get("repo_sha", "?")
    print(f"compared {checked} values ({sha_b[:12]} -> {sha_c[:12]}): "
          f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
