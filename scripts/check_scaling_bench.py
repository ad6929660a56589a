#!/usr/bin/env python3
"""Gate for the scaling bench (docs/PERFORMANCE.md "Scaling").

Reads a TMARK_BENCH_JSON dump from bench_perf_scaling and asserts, for
every n of the "scaling curve" table, that the iteration counts agree
across its thread counts (fits are bit-identical at any thread count, so a
mismatch means different workloads were timed), and, for every row of the
"scaling memory" table, that the compact (adaptive 32-bit) structures are
strictly smaller than the forced-wide 64-bit ones — for the adjacency (the
HIN's relation CSR matrices) and the operators (one index shared by O and
R, plus their two value arrays) alike. The memory comparison is analytic
byte accounting, so it is exact and noise-free. No timing is gated.

Usage: check_scaling_bench.py FILE
"""

import argparse
import collections
import json
import sys

CURVE_TITLE = "scaling curve"
MEMORY_TITLE = "scaling memory"


def fail(message):
    print(f"check_scaling_bench: {message}", file=sys.stderr)
    return 1


def find_table(doc, title, path):
    table = next((t for t in doc.get("tables", [])
                  if t.get("title") == title), None)
    if table is None:
        raise KeyError(f"{path}: no '{title}' table "
                       "(bench_perf_scaling out of date?)")
    return table


def columns(table, names, path):
    headers = table["headers"]
    try:
        return [headers.index(name) for name in names]
    except ValueError as e:
        raise KeyError(f"{path}: table missing column: {e}")


def check_curve(table, path):
    n_col, t_col, iter_col = columns(
        table, ["n", "threads", "iterations"], path)
    iterations = collections.defaultdict(dict)
    for row in table["rows"]:
        iterations[row[n_col]][row[t_col]] = int(row[iter_col])
    if not iterations:
        raise ValueError(f"{path}: '{CURVE_TITLE}' table has no rows")
    for n, by_threads in sorted(iterations.items()):
        if len(set(by_threads.values())) != 1:
            raise ValueError(
                f"{path}: n={n}: iteration counts differ across thread "
                f"counts {by_threads} — fits diverged?")
        print(f"check_scaling_bench: n={n}: iterations by thread count "
              f"{by_threads}")


def check_memory(table, path):
    cols = columns(
        table,
        ["n", "adjacency_compact_bytes", "adjacency_wide_bytes",
         "operator_compact_bytes", "operator_wide_bytes"], path)
    if not table["rows"]:
        raise ValueError(f"{path}: '{MEMORY_TITLE}' table has no rows")
    for row in table["rows"]:
        n, adj_c, adj_w, op_c, op_w = (row[c] for c in cols)
        for label, compact, wide in (("adjacency", int(adj_c), int(adj_w)),
                                     ("operator", int(op_c), int(op_w))):
            if compact >= wide:
                raise ValueError(
                    f"{path}: n={n}: compact {label} structures are not "
                    f"smaller than wide ones ({compact} vs {wide} bytes)")
        print(f"check_scaling_bench: n={n}: adjacency {adj_c}/{adj_w} "
              f"operator {op_c}/{op_w} compact/wide bytes")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    args = parser.parse_args()

    try:
        with open(args.file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read {args.file}: {e}")

    try:
        check_curve(find_table(doc, CURVE_TITLE, args.file), args.file)
        check_memory(find_table(doc, MEMORY_TITLE, args.file), args.file)
    except (KeyError, ValueError) as e:
        return fail(str(e).strip("'"))

    print("check_scaling_bench: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
