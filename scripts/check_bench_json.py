#!/usr/bin/env python3
"""Validates a TMARK_BENCH_JSON dump against the tmark-bench-v1 schema.

Usage: check_bench_json.py FILE [--require-series PREFIX]
                                [--require-histogram NAME]
                                [--require-gauge NAME]
                                [--require-positive-gauge NAME]
                                [--check-attribution]

The schema is documented in docs/OBSERVABILITY.md. Exits 0 when FILE is a
well-formed document, 1 (with a message on stderr) otherwise. The optional
--require-* flags additionally assert that the metrics snapshot contains a
series whose name starts with PREFIX / a histogram with at least one
observation named NAME / a gauge named NAME — the ctest wiring uses them to
pin the fit telemetry end-to-end. --require-positive-gauge further demands
value > 0; the memory gauges (mem.peak_rss_bytes, tensor.merged.bytes) use
it, since a zero there means the instrumentation silently broke.
"""

import argparse
import json
import sys


class SchemaError(Exception):
    pass


def expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def check_number(value, path):
    expect(value is None or isinstance(value, (int, float)), path,
           f"expected number or null, got {type(value).__name__}")


def check_string_list(value, path):
    expect(isinstance(value, list), path, "expected a list")
    for i, item in enumerate(value):
        expect(isinstance(item, str), f"{path}[{i}]", "expected a string")


def check_table(table, path):
    expect(isinstance(table, dict), path, "expected an object")
    expect(isinstance(table.get("title"), str), f"{path}.title",
           "expected a string")
    check_string_list(table.get("headers"), f"{path}.headers")
    rows = table.get("rows")
    expect(isinstance(rows, list), f"{path}.rows", "expected a list")
    width = len(table["headers"])
    for i, row in enumerate(rows):
        check_string_list(row, f"{path}.rows[{i}]")
        expect(len(row) == width, f"{path}.rows[{i}]",
               f"expected {width} cells to match headers, got {len(row)}")


def check_named_value(entry, path):
    expect(isinstance(entry, dict), path, "expected an object")
    expect(isinstance(entry.get("name"), str), f"{path}.name",
           "expected a string")
    check_number(entry.get("value"), f"{path}.value")
    expect(entry.get("value") is not None, f"{path}.value",
           "must not be null")


def check_histogram(hist, path):
    expect(isinstance(hist, dict), path, "expected an object")
    expect(isinstance(hist.get("name"), str), f"{path}.name",
           "expected a string")
    for key in ("count", "sum", "mean", "min", "max", "p50", "p95", "p99"):
        expect(key in hist, path, f"missing key '{key}'")
        check_number(hist[key], f"{path}.{key}")
    if hist.get("count"):
        # Quantile summaries of a populated histogram must be ordered.
        order = [hist[k] for k in ("min", "p50", "p95", "p99", "max")]
        if all(isinstance(v, (int, float)) for v in order):
            for a, b, ka, kb in zip(order, order[1:],
                                    ("min", "p50", "p95", "p99"),
                                    ("p50", "p95", "p99", "max")):
                expect(a <= b + 1e-9, path, f"{ka}={a} exceeds {kb}={b}")
    buckets = hist.get("buckets")
    expect(isinstance(buckets, list), f"{path}.buckets", "expected a list")
    total = 0
    for i, bucket in enumerate(buckets):
        bpath = f"{path}.buckets[{i}]"
        expect(isinstance(bucket, dict), bpath, "expected an object")
        check_number(bucket.get("le"), f"{bpath}.le")  # null = +inf
        expect(isinstance(bucket.get("count"), int), f"{bpath}.count",
               "expected an integer")
        total += bucket["count"]
    expect(total == hist["count"], f"{path}.buckets",
           f"bucket counts sum to {total}, histogram count is "
           f"{hist['count']}")


def check_series(series, path):
    expect(isinstance(series, dict), path, "expected an object")
    expect(isinstance(series.get("name"), str), f"{path}.name",
           "expected a string")
    expect(isinstance(series.get("total_count"), int), f"{path}.total_count",
           "expected an integer")
    values = series.get("values")
    expect(isinstance(values, list), f"{path}.values", "expected a list")
    for i, v in enumerate(values):
        check_number(v, f"{path}.values[{i}]")
    expect(len(values) <= series["total_count"], f"{path}.values",
           "stored values exceed total_count")


COUNTER_KEYS = ("cycles", "instructions", "llc_misses", "branch_misses")


def check_counter_object(value, path):
    expect(isinstance(value, dict), path, "expected an object")
    expect(set(value) == set(COUNTER_KEYS), path,
           f"expected exactly keys {COUNTER_KEYS}, got {sorted(value)}")
    for key, v in value.items():
        expect(isinstance(v, int) and v >= 0, f"{path}.{key}",
               "expected a non-negative integer")


def check_attribution_row(row, path):
    expect(isinstance(row, dict), path, "expected an object")
    expect(isinstance(row.get("name"), str), f"{path}.name",
           "expected a string")
    expect(isinstance(row.get("count"), int) and row["count"] > 0,
           f"{path}.count", "expected a positive integer")
    for key in ("total_ms", "self_ms"):
        expect(isinstance(row.get(key), (int, float)), f"{path}.{key}",
               "expected a number")
        expect(row[key] >= 0, f"{path}.{key}", "must be non-negative")
    expect(row["self_ms"] <= row["total_ms"] + 1e-9, path,
           f"self_ms={row['self_ms']} exceeds total_ms={row['total_ms']}")
    # Counter columns come in pairs, or not at all.
    expect(("total_counters" in row) == ("self_counters" in row), path,
           "total_counters and self_counters must appear together")
    if "total_counters" in row:
        check_counter_object(row["total_counters"],
                             f"{path}.total_counters")
        check_counter_object(row["self_counters"], f"{path}.self_counters")


def check_span(span, path):
    expect(isinstance(span, dict), path, "expected an object")
    expect(isinstance(span.get("name"), str), f"{path}.name",
           "expected a string")
    check_number(span.get("start_ms"), f"{path}.start_ms")
    check_number(span.get("duration_ms"), f"{path}.duration_ms")
    if "counters" in span:
        check_counter_object(span["counters"], f"{path}.counters")
    fields = span.get("fields")
    expect(isinstance(fields, dict), f"{path}.fields", "expected an object")
    for key, value in fields.items():
        expect(isinstance(value, str), f"{path}.fields.{key}",
               "expected a string")
    children = span.get("children")
    expect(isinstance(children, list), f"{path}.children", "expected a list")
    for i, child in enumerate(children):
        check_span(child, f"{path}.children[{i}]")


def check_document(doc):
    expect(isinstance(doc, dict), "$", "expected a top-level object")
    expect(doc.get("schema") == "tmark-bench-v1", "$.schema",
           f"expected 'tmark-bench-v1', got {doc.get('schema')!r}")
    expect(isinstance(doc.get("binary"), str), "$.binary",
           "expected a string")
    tables = doc.get("tables")
    expect(isinstance(tables, list), "$.tables", "expected a list")
    for i, table in enumerate(tables):
        check_table(table, f"$.tables[{i}]")
    metrics = doc.get("metrics")
    expect(isinstance(metrics, dict), "$.metrics", "expected an object")
    for section, checker in (("counters", check_named_value),
                             ("gauges", check_named_value),
                             ("histograms", check_histogram),
                             ("series", check_series)):
        entries = metrics.get(section)
        expect(isinstance(entries, list), f"$.metrics.{section}",
               "expected a list")
        for i, entry in enumerate(entries):
            checker(entry, f"$.metrics.{section}[{i}]")
    spans = doc.get("spans")
    expect(isinstance(spans, list), "$.spans", "expected a list")
    for i, span in enumerate(spans):
        check_span(span, f"$.spans[{i}]")
    if "attribution" in doc:
        rows = doc["attribution"]
        expect(isinstance(rows, list), "$.attribution", "expected a list")
        for i, row in enumerate(rows):
            check_attribution_row(row, f"$.attribution[{i}]")


def check_attribution_consistency(doc):
    """Cross-checks the attribution table against the span tree and the
    fit-timing histogram. In a single-threaded trace the exclusive times
    of all rows must sum to the total root-span time (the table is a
    partition of it); at higher thread counts concurrent sibling spans
    overlap in wall time, so only the lower bound holds (clamping negative
    exclusive times can only inflate the sum, never shrink it). The
    tmark.fit root spans must agree with the tmark.fit.total_ms histogram
    to within 5% at any thread count (both are main-thread wall-clock)."""
    rows = doc.get("attribution")
    expect(isinstance(rows, list) and rows, "$.attribution",
           "expected a non-empty attribution table")
    spans = doc["spans"]
    expect(spans, "$.spans", "attribution check needs recorded spans")
    self_sum = sum(row["self_ms"] for row in rows)
    root_sum = sum(span["duration_ms"] for span in spans)
    threads = next((g["value"] for g in doc["metrics"]["gauges"]
                    if g["name"] == "parallel.threads"), 1)
    slack = max(0.01 * root_sum, 0.05)
    expect(self_sum >= root_sum - slack, "$.attribution",
           f"self_ms sums to {self_sum:.3f}, below the root-span total "
           f"{root_sum:.3f}")
    if threads <= 1:
        expect(self_sum <= root_sum + slack, "$.attribution",
               f"self_ms sums to {self_sum:.3f} but root spans total "
               f"{root_sum:.3f} (single-threaded traces must partition)")
    fit_roots = sum(span["duration_ms"] for span in spans
                    if span["name"] == "tmark.fit")
    fit_hist = next((h for h in doc["metrics"]["histograms"]
                     if h["name"] == "tmark.fit.total_ms"), None)
    if fit_hist is not None and fit_roots > 0:
        expect(abs(fit_roots - fit_hist["sum"]) <= 0.05 * fit_hist["sum"],
               "$.attribution",
               f"tmark.fit root spans total {fit_roots:.3f} ms but the "
               f"tmark.fit.total_ms histogram records "
               f"{fit_hist['sum']:.3f} ms (>5% apart)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--require-series", action="append", default=[],
                        metavar="PREFIX",
                        help="fail unless a non-empty series whose name "
                             "starts with PREFIX is present")
    parser.add_argument("--require-histogram", action="append", default=[],
                        metavar="NAME",
                        help="fail unless histogram NAME has count > 0")
    parser.add_argument("--require-gauge", action="append", default=[],
                        metavar="NAME",
                        help="fail unless gauge NAME is present")
    parser.add_argument("--require-positive-gauge", action="append",
                        default=[], metavar="NAME",
                        help="fail unless gauge NAME is present with "
                             "value > 0")
    parser.add_argument("--check-attribution", action="store_true",
                        help="fail unless a non-empty attribution table is "
                             "present whose exclusive times partition the "
                             "root-span time and agree with the "
                             "tmark.fit.total_ms histogram")
    args = parser.parse_args()

    try:
        with open(args.file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        print(f"check_bench_json: cannot read {args.file}: {e}",
              file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"check_bench_json: {args.file} is not valid JSON: {e}",
              file=sys.stderr)
        return 1

    try:
        check_document(doc)
        series = doc["metrics"]["series"]
        for prefix in args.require_series:
            expect(any(s["name"].startswith(prefix) and s["values"]
                       for s in series),
                   "$.metrics.series",
                   f"no non-empty series named '{prefix}*'")
        histograms = doc["metrics"]["histograms"]
        for name in args.require_histogram:
            expect(any(h["name"] == name and h["count"] > 0
                       for h in histograms),
                   "$.metrics.histograms",
                   f"no populated histogram named '{name}'")
        gauges = doc["metrics"]["gauges"]
        for name in args.require_gauge:
            expect(any(g["name"] == name for g in gauges),
                   "$.metrics.gauges",
                   f"no gauge named '{name}'")
        for name in args.require_positive_gauge:
            expect(any(g["name"] == name and g["value"] > 0
                       for g in gauges),
                   "$.metrics.gauges",
                   f"no gauge named '{name}' with value > 0")
        if args.check_attribution:
            check_attribution_consistency(doc)
    except SchemaError as e:
        print(f"check_bench_json: {args.file}: {e}", file=sys.stderr)
        return 1

    print(f"check_bench_json: {args.file} conforms to tmark-bench-v1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
