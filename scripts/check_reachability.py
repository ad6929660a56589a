#!/usr/bin/env python3
"""Lint: every library header is reached by something that runs.

A header under src/tmark/ passes when some file under src/, tools/, bench/
or examples/ (.h, .cc or .cpp) other than its own .cc includes it. Tests do
not count: code that only its own tests call is dead weight, and a later
change should make it a caller's configuration or delete it.

Usage: check_reachability.py --repo-root DIR
"""

import argparse
import os
import re
import sys

LIBRARY_DIR = "src/tmark"
REACHING_DIRS = ["src", "tools", "bench", "examples"]
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")

INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def source_files(root):
    for rel_dir in REACHING_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, rel_dir)):
            for name in sorted(names):
                if name.endswith(SOURCE_SUFFIXES):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repo-root", required=True)
    args = parser.parse_args()

    # Include path of a library header (as written in an #include) -> the
    # files that include it.
    includers = {}
    headers = []
    for rel in source_files(args.repo_root):
        if rel.startswith(LIBRARY_DIR + "/") and rel.endswith(".h"):
            headers.append(rel)
        with open(os.path.join(args.repo_root, rel), encoding="utf-8") as fh:
            for target in INCLUDE.findall(fh.read()):
                includers.setdefault(target, set()).add(rel)

    if not headers:
        print(f"FAIL: no headers under {LIBRARY_DIR}/ (lint out of date?)",
              file=sys.stderr)
        return 1
    failures = []
    for header in sorted(headers):
        include_path = os.path.relpath(header, "src")
        own_source = header[:-len(".h")] + ".cc"
        if not includers.get(include_path, set()) - {own_source}:
            failures.append(include_path)

    if failures:
        print(f"FAIL: {len(failures)} headers reached by nothing under "
              f"{', '.join(d + '/' for d in REACHING_DIRS)} but their own "
              ".cc:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"ok: all {len(headers)} headers under {LIBRARY_DIR}/ are reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
