#!/usr/bin/env python3
"""Gate for the panel fixed-point engine (docs/PERFORMANCE.md).

Reads a TMARK_BENCH_JSON dump from bench_perf_tmark, finds the
"fit-engine comparison" table, and asserts that one width-q run of the
engine (every class in one panel) has a lower median wall time than the
sum of the width-1 medians (each class run alone). The two sides were
measured alternately in one process, so host drift hits both.

The panel form streams each sparse structure once per iteration for all
q columns instead of q times; a width-q run that is not cheaper than q
width-1 runs means the panel path has regressed to uselessness.

Usage: check_fit_engine.py FILE
"""

import argparse
import json
import sys

TABLE_TITLE = "fit-engine comparison"


def fail(message):
    print(f"check_fit_engine: {message}", file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    args = parser.parse_args()

    try:
        with open(args.file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read {args.file}: {e}")

    table = next((t for t in doc.get("tables", [])
                  if t.get("title") == TABLE_TITLE), None)
    if table is None:
        return fail(f"{args.file}: no '{TABLE_TITLE}' table "
                    "(bench_perf_tmark out of date?)")

    headers = table["headers"]
    try:
        engine_col = headers.index("engine")
        median_col = headers.index("fit_ms_median")
        count_col = headers.index("iterations")
    except ValueError as e:
        return fail(f"{args.file}: comparison table missing column: {e}")

    width_q = [row for row in table["rows"] if row[engine_col] == "width_q"]
    width_1 = [row for row in table["rows"] if row[engine_col] == "width_1"]
    if len(width_q) != 1 or not width_1:
        return fail(f"{args.file}: expected one 'width_q' row and at least "
                    "one 'width_1' row in the comparison table")

    # Every column is bit-identical at any width, so the width-q run and
    # the width-1 runs must agree on the total column-iteration count; a
    # mismatch means the comparison timed two different workloads.
    q_iterations = int(width_q[0][count_col])
    w1_iterations = sum(int(row[count_col]) for row in width_1)
    if q_iterations != w1_iterations:
        return fail(f"{args.file}: iteration counts differ (width-q "
                    f"{q_iterations} vs width-1 {w1_iterations}) — "
                    "columns diverged?")

    q_median = float(width_q[0][median_col])
    w1_sum = sum(float(row[median_col]) for row in width_1)
    if not q_median < w1_sum:
        return fail(
            f"{args.file}: width-{len(width_1)} run is not cheaper than "
            f"{len(width_1)} width-1 runs: median {q_median:.3f} ms vs sum "
            f"of medians {w1_sum:.3f} ms")

    print(f"check_fit_engine: ok — width-{len(width_1)} median "
          f"{q_median:.3f} ms vs {len(width_1)} width-1 medians summing to "
          f"{w1_sum:.3f} ms ({w1_sum / q_median:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
