#!/usr/bin/env python3
"""Signal-shutdown check for the serving daemons (docs/SERVING.md).

Starts tmark_served and `tmark_cli serve` on a Unix socket, round after
round. Each round connects as soon as the socket accepts, waits for one
answer, sends SIGTERM at once and, with the client still connected,
requires exit code 0 within EXIT_TIMEOUT_S. A daemon that installs its
SIGTERM handler only after it starts answering is killed by the default
action in that window (exit -15); one whose shutdown waits for idle
clients to hang up never exits. Either fails the check.

Usage: check_serve_shutdown.py --served PATH --cli PATH
"""

import argparse
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

ROUNDS = 25
START_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 10.0


def request(sock, payload):
    """Sends one frame and reads one reply frame."""
    data = payload.encode()
    sock.sendall(str(len(data)).encode() + b"\n" + data)
    stream = sock.makefile("rb")
    length = int(stream.readline())
    return stream.read(length).decode()


def connect(path, proc):
    """Connects as soon as the daemon's socket accepts."""
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited {proc.returncode} at start-up")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            time.sleep(0.001)
    raise RuntimeError("daemon socket never accepted")


def run_round(argv, path):
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        with connect(path, proc) as sock:
            reply = request(sock, "classify 0")
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"still running {EXIT_TIMEOUT_S:g} s after SIGTERM"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not reply.startswith("ok "):
        return f"unexpected reply {reply!r}"
    if proc.returncode != 0:
        return f"exit code {proc.returncode} after SIGTERM ({stderr.strip()!r})"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--served", required=True)
    parser.add_argument("--cli", required=True)
    args = parser.parse_args()

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        hin = os.path.join(tmp, "net.hin")
        subprocess.run([args.cli, "generate", "--preset", "dblp",
                        "--nodes", "200", "--out", hin],
                       check=True, stdout=subprocess.DEVNULL)
        path = os.path.join(tmp, "serve.sock")
        daemons = {
            "tmark_served": [args.served],
            "tmark_cli serve": [args.cli, "serve"],
        }
        for name, prefix in daemons.items():
            argv = prefix + ["--hin", hin, "--serve-socket", path,
                             "--log-level", "error"]
            for i in range(ROUNDS):
                try:
                    error = run_round(argv, path)
                except (OSError, RuntimeError, ValueError) as e:
                    error = str(e)
                if error is not None:
                    failures.append(f"{name} round {i}: {error}")
                    break
            else:
                print(f"check_serve_shutdown: {name}: {ROUNDS} rounds ok")

    for failure in failures:
        print(f"check_serve_shutdown: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
