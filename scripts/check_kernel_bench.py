#!/usr/bin/env python3
"""Regression gate for the blocked panel micro-kernels (docs/PERFORMANCE.md).

Reads a TMARK_BENCH_JSON dump from bench_perf_kernels and asserts:

  * the "kernel microbenchmarks" table covers every kernel at every panel
    width, and no blocked panel kernel is slower than its unblocked scalar
    reference by more than --slack;
  * the "fused-epilogue comparison" table covers every width, and the fused
    passes are not slower than the unfused sweep sequence by more than
    --slack.

Each row's sides were timed in alternating rounds on one pinned thread; the
gate reads the median of the per-round ratios (blocked_over_scalar,
fused_over_unfused), so a disturbance that hits one round cannot fail it.

The slack is deliberately generous (default 1.5x, same spirit as
check_fit_engine.py): the gate exists to catch a blocked or fused path that
has regressed past its scalar baseline, not to certify a speedup on a
loaded CI machine. docs/PERFORMANCE.md quotes real quiet-machine numbers.

Usage: check_kernel_bench.py FILE [--slack 1.5]
"""

import argparse
import json
import sys

KERNEL_TABLE = "kernel microbenchmarks"
FUSED_TABLE = "fused-epilogue comparison"
EXPECTED_KERNELS = (
    "matmul_panel",
    "transpose_matmul_panel",
    "bilinear_panel",
    "contract_mode1_panel",
    "similarity_apply_panel",
)
EXPECTED_WIDTHS = ("1", "2", "4", "8", "16")


def fail(message):
    print(f"check_kernel_bench: {message}", file=sys.stderr)
    return 1


def find_table(doc, title, path):
    table = next((t for t in doc.get("tables", []) if t.get("title") == title),
                 None)
    if table is None:
        raise KeyError(f"{path}: no '{title}' table "
                       "(bench_perf_kernels out of date?)")
    return table


def columns(table, names, path):
    headers = table["headers"]
    try:
        return [headers.index(name) for name in names]
    except ValueError as e:
        raise KeyError(f"{path}: '{table['title']}' missing column: {e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file")
    parser.add_argument("--slack", type=float, default=1.5,
                        help="allowed median blocked/scalar ratio")
    args = parser.parse_args()

    try:
        with open(args.file, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"cannot read {args.file}: {e}")

    try:
        kernel_table = find_table(doc, KERNEL_TABLE, args.file)
        kernel_col, width_col, scalar_col, blocked_col, ratio_col = columns(
            kernel_table, ("kernel", "width", "scalar_ms", "blocked_ms",
                           "blocked_over_scalar"), args.file)
        fused_table = find_table(doc, FUSED_TABLE, args.file)
        fwidth_col, unfused_col, fused_col, fratio_col = columns(
            fused_table, ("width", "unfused_ms", "fused_ms",
                          "fused_over_unfused"), args.file)
    except KeyError as e:
        return fail(str(e).strip("'\""))

    seen = set()
    for row in kernel_table["rows"]:
        kernel, width = row[kernel_col], row[width_col]
        seen.add((kernel, width))
        scalar_ms, blocked_ms = float(row[scalar_col]), float(row[blocked_col])
        ratio = float(row[ratio_col])
        if scalar_ms <= 0.0 or blocked_ms <= 0.0 or ratio <= 0.0:
            return fail(f"{args.file}: non-positive timing for {kernel} "
                        f"width {width}")
        if ratio > args.slack:
            return fail(
                f"{args.file}: blocked {kernel} too slow at width {width}: "
                f"median per-round blocked/scalar ratio {ratio:.3f} "
                f"(medians {blocked_ms:.3f} vs {scalar_ms:.3f} ms; allowed "
                f"up to {args.slack})")
    missing = [(k, w) for k in EXPECTED_KERNELS for w in EXPECTED_WIDTHS
               if (k, w) not in seen]
    if missing:
        return fail(f"{args.file}: kernel table missing rows: {missing}")

    fused_seen = set()
    for row in fused_table["rows"]:
        width = row[fwidth_col]
        fused_seen.add(width)
        unfused_ms, fused_ms = float(row[unfused_col]), float(row[fused_col])
        ratio = float(row[fratio_col])
        if unfused_ms <= 0.0 or fused_ms <= 0.0 or ratio <= 0.0:
            return fail(f"{args.file}: non-positive timing for fused row "
                        f"width {width}")
        if ratio > args.slack:
            return fail(
                f"{args.file}: fused epilogue too slow at width {width}: "
                f"median per-round fused/unfused ratio {ratio:.3f} "
                f"(medians {fused_ms:.3f} vs {unfused_ms:.3f} ms; allowed "
                f"up to {args.slack})")
    missing_widths = [w for w in EXPECTED_WIDTHS if w not in fused_seen]
    if missing_widths:
        return fail(f"{args.file}: fused table missing widths: "
                    f"{missing_widths}")

    print(f"check_kernel_bench: ok — {len(kernel_table['rows'])} kernel rows "
          f"and {len(fused_table['rows'])} fused rows within slack "
          f"{args.slack}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
