#!/usr/bin/env python3
"""Validate BENCH_<name>.json summaries against schemas/bench_summary_schema.json
and flag wall-clock regressions against the committed baseline.

Usage:
    check_bench_summary.py BENCH_table1.json [BENCH_figure6.json ...]
    check_bench_summary.py --strict BENCH_*.json   # regressions become failures

Each summary's wall_ns is compared to scripts/bench_baseline.json (keyed
by bench name, recorded on a warm developer machine). A summary more
than 20% slower than its baseline is reported; by default that's a
warning — CI machines are noisy — and only --strict turns it into a
non-zero exit. A bench missing from the baseline is fine (new bench);
the message suggests re-recording.
"""

import json
import sys
from pathlib import Path

from schema_subset import Invalid, fail, validate

HERE = Path(__file__).resolve().parent
SCHEMA_PATH = HERE.parent / "schemas" / "bench_summary_schema.json"
BASELINE_PATH = HERE / "bench_baseline.json"
REGRESSION_THRESHOLD = 1.20


def main():
    args = sys.argv[1:]
    strict = "--strict" in args
    files = [Path(a) for a in args if a != "--strict"]
    if not files:
        print(__doc__, file=sys.stderr)
        return 2

    schema = json.loads(SCHEMA_PATH.read_text())
    baseline = {}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text()).get("wall_ns", {})

    regressions = []
    try:
        for f in files:
            summary = json.loads(f.read_text())
            validate(summary, schema, path=f.name)
            name = summary["name"]
            wall = summary["wall_ns"]
            base = baseline.get(name)
            if base is None:
                print(
                    f"{f.name}: {wall / 1e6:.1f} ms, no baseline for "
                    f"{name!r} (re-record scripts/bench_baseline.json)"
                )
                continue
            ratio = wall / max(base, 1)
            verdict = "ok"
            if ratio > REGRESSION_THRESHOLD:
                verdict = f"REGRESSION (> {REGRESSION_THRESHOLD:.0%} of baseline)"
                regressions.append((name, ratio))
            print(
                f"{f.name}: {wall / 1e6:.1f} ms vs baseline "
                f"{base / 1e6:.1f} ms ({ratio:.2f}x) {verdict}"
            )
    except Invalid as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1

    if regressions:
        for name, ratio in regressions:
            print(f"WARN {name} is {ratio:.2f}x its baseline", file=sys.stderr)
        if strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
