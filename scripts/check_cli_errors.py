#!/usr/bin/env python3
"""Integration check for tmark_cli's error contract (docs/ERRORS.md).

Drives the real binary against the checked-in malformed-input corpus and a
freshly generated good file, asserting the contract every subcommand must
honor:

  * unreadable or malformed --hin / --model files  ->  exit code 2 and
    exactly one `error: ...` line on stderr (no stack trace, no abort);
  * --metrics-json written even on failure, with the io.errors counters;
  * well-formed input -> exit code 0 and nothing on stderr;
  * a flag the command does not document (a typo, another command's flag,
    a removed flag) -> the usage-error contract, in tmark_cli and in the
    tmark_served built beside it.

Usage: check_cli_errors.py --cli PATH --corpus DIR
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

FAILURES = []


def fail(label, message):
    FAILURES.append(f"{label}: {message}")


def run(cli, argv, timeout=120):
    """Runs the binary; one still running after `timeout` s is killed and
    reported with returncode None."""
    try:
        return subprocess.run(
            [cli] + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(
            [cli] + argv, None, "", f"still running after {timeout} s")


def expect_error(cli, argv, label):
    """The single-line `error:` contract: exit 2, one stderr line."""
    proc = run(cli, argv)
    if proc.returncode != 2:
        fail(label, f"expected exit code 2, got {proc.returncode} "
                    f"(stderr: {proc.stderr!r})")
        return
    lines = [l for l in proc.stderr.splitlines() if l]
    if len(lines) != 1:
        fail(label, f"expected exactly one stderr line, got {lines!r}")
        return
    if not lines[0].startswith("error: "):
        fail(label, f"stderr line must start with 'error: ': {lines[0]!r}")


def expect_usage_error(cli, argv, label, timeout=120):
    """Flag errors additionally print usage; still exit 2, error: first."""
    proc = run(cli, argv, timeout)
    if proc.returncode != 2:
        fail(label, f"expected exit code 2, got {proc.returncode}")
        return
    lines = [l for l in proc.stderr.splitlines() if l]
    if not lines or not lines[0].startswith("error: "):
        fail(label, f"first stderr line must start with 'error: ': {lines!r}")


def expect_ok(cli, argv, label):
    proc = run(cli, argv)
    if proc.returncode != 0:
        fail(label, f"expected exit code 0, got {proc.returncode} "
                    f"(stderr: {proc.stderr!r})")
    if proc.stderr.strip():
        fail(label, f"expected empty stderr, got {proc.stderr!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True, help="path to tmark_cli")
    parser.add_argument("--corpus", required=True,
                        help="tests/hin/corrupt directory")
    args = parser.parse_args()

    hin_corpus = sorted(
        f for f in os.listdir(args.corpus) if f.endswith(".hin"))
    model_corpus = sorted(
        f for f in os.listdir(args.corpus) if f.endswith(".tmm"))
    if not hin_corpus or not model_corpus:
        print(f"FAIL: no corpus files under {args.corpus}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="tmark_cli_errors.") as tmp:
        good = os.path.join(tmp, "good.hin")

        # Well-formed path: generate then read back, all exit 0.
        expect_ok(args.cli,
                  ["generate", "--preset", "example", "--out", good],
                  "generate example")
        expect_ok(args.cli, ["info", "--hin", good], "info good")
        expect_ok(args.cli,
                  ["classify", "--hin", good, "--train-fraction", "0.5"],
                  "classify good")

        # Every subcommand that reads --hin must honor the contract on every
        # corpus file.
        for name in hin_corpus:
            path = os.path.join(args.corpus, name)
            for command in ("info", "classify", "rank"):
                expect_error(args.cli, [command, "--hin", path],
                             f"{command} {name}")

        # Corrupt and missing model files through `rank --model`.
        for name in model_corpus:
            expect_error(
                args.cli,
                ["rank", "--hin", good,
                 "--model", os.path.join(args.corpus, name)],
                f"rank model {name}")
        expect_error(args.cli,
                     ["info", "--hin", os.path.join(tmp, "missing.hin")],
                     "info missing file")
        expect_error(args.cli,
                     ["rank", "--hin", good,
                      "--model", os.path.join(tmp, "missing.tmm")],
                     "rank missing model")

        # Flag-level input errors.
        expect_usage_error(args.cli,
                           ["generate", "--preset", "atlantis",
                            "--out", os.path.join(tmp, "x.hin")],
                           "generate unknown preset")
        expect_usage_error(args.cli,
                           ["classify", "--hin", good,
                            "--train-fraction", "nan"],
                           "classify nan fraction")
        expect_usage_error(args.cli, ["info"], "info without --hin")
        # Unknown profiling flags must hit the flag-error contract, not be
        # silently swallowed by a prefix match on --profile-json.
        expect_usage_error(args.cli,
                           ["classify", "--hin", good,
                            "--profile-mode", "fast"],
                           "classify unknown --profile-mode")
        expect_usage_error(args.cli,
                           ["info", "--hin", good, "--profile-counters", "1"],
                           "info unknown --profile-counters")
        # Every command accepts only its documented flags plus the global
        # ones: a misspelled flag, one that belongs to another command, or
        # a removed one must fail instead of leaving its default in place.
        expect_usage_error(args.cli,
                           ["classify", "--hin", good,
                            "--train-fracton", "0.9"],
                           "classify misspelled --train-fraction")
        expect_usage_error(args.cli,
                           ["classify", "--hin", good, "--treads", "4"],
                           "classify misspelled --threads")
        expect_usage_error(args.cli, ["info", "--hin", good, "--top", "3"],
                           "info with rank's --top")
        # The fit-engine selector the CLI no longer takes; its name is
        # spelled in two parts so the tree keeps no live spelling of it.
        removed_flag = "--fit" + "-mode"
        for command in ("classify", "rank"):
            expect_usage_error(args.cli,
                               [command, "--hin", good, removed_flag,
                                "batched"],
                               f"{command} removed {removed_flag}")
        # tmark_served is built beside tmark_cli (tools/CMakeLists.txt).
        served = os.path.join(os.path.dirname(args.cli), "tmark_served")
        expect_usage_error(served,
                           ["--hin", good, "--serve-socket",
                            os.path.join(tmp, "served.sock"),
                            "--max-reqests", "1"],
                           "tmark_served misspelled --max-requests",
                           timeout=30)

        # Serving flags honor the same contract: a serve command that cannot
        # start must exit 2 with a single error line, not hang or abort.
        expect_usage_error(args.cli, ["serve", "--hin", good],
                           "serve without --serve-socket")
        sock = os.path.join(tmp, "serve.sock")
        expect_usage_error(args.cli,
                           ["serve", "--hin", good, "--serve-socket", sock,
                            "--batch-window-us", "fast"],
                           "serve non-numeric --batch-window-us")
        expect_usage_error(args.cli,
                           ["serve", "--hin", good, "--serve-socket", sock,
                            "--max-queue", "0"],
                           "serve zero --max-queue")
        expect_error(args.cli,
                     ["serve", "--hin", os.path.join(tmp, "missing.hin"),
                      "--serve-socket", sock],
                     "serve missing hin")

        # Observability sinks compose: one run may write the span tree as
        # both tmark JSON and a Chrome trace, plus the profile document.
        trace_json = os.path.join(tmp, "trace.json")
        trace_chrome = os.path.join(tmp, "trace_chrome.json")
        profile_json = os.path.join(tmp, "profile.json")
        expect_ok(args.cli,
                  ["classify", "--hin", good, "--train-fraction", "0.5",
                   "--trace-json", trace_json,
                   "--trace-chrome", trace_chrome,
                   "--profile-json", profile_json],
                  "classify with composed sinks")
        for path, label in ((trace_json, "trace json"),
                            (trace_chrome, "chrome trace"),
                            (profile_json, "profile json")):
            if not os.path.exists(path):
                fail("composed sinks", f"{label} file was not written")
                continue
            with open(path, encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as e:
                    fail("composed sinks", f"{label} is not valid JSON: {e}")
                    continue
            if path == trace_chrome:
                events = doc.get("traceEvents")
                if not isinstance(events, list) or not events:
                    fail("composed sinks", "chrome trace has no events")
                elif any(e.get("ph") != "X" for e in events):
                    fail("composed sinks",
                         "chrome trace events must all be complete ('X')")
            if path == profile_json:
                if doc.get("schema") != "tmark-profile-v1":
                    fail("composed sinks",
                         f"profile schema is {doc.get('schema')!r}")

        # Telemetry on failure: the metrics dump must still be written and
        # must carry the io.errors counters for the failed load.
        metrics = os.path.join(tmp, "metrics.json")
        corrupt = os.path.join(args.corpus, hin_corpus[0])
        proc = run(args.cli,
                   ["info", "--hin", corrupt, "--metrics-json", metrics])
        if proc.returncode != 2:
            fail("metrics on failure",
                 f"expected exit code 2, got {proc.returncode}")
        elif not os.path.exists(metrics):
            fail("metrics on failure", "--metrics-json file was not written")
        else:
            with open(metrics, encoding="utf-8") as fh:
                doc = json.load(fh)
            counters = {c["name"]: c["value"]
                        for c in doc.get("counters", [])}
            if counters.get("io.errors", 0) < 1:
                fail("metrics on failure",
                     f"io.errors counter missing or zero: {counters}")
            if not any(name.startswith("io.errors.") for name in counters):
                fail("metrics on failure",
                     f"per-code io.errors.<code> counter missing: {counters}")

    if FAILURES:
        print(f"FAIL: {len(FAILURES)} CLI error-contract violations:",
              file=sys.stderr)
        for failure in FAILURES:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ok: tmark_cli error contract holds "
          f"({len(hin_corpus)} hin + {len(model_corpus)} model corpus files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
