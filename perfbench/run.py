#!/usr/bin/env python3
"""Repository benchmark for T-Mark: cold batch jobs and tmark_served.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_200k|walk_dblp|update_50k \\
        --seed N --seconds S --trace 0|1 [--smoke]

It builds the library, tmark_cli, tmark_served and perfbench_tool from the
checkout (into $CARGO_TARGET_DIR, default .bench_build), makes the
workload's inputs from --seed with the repository's generators, measures
for --seconds, checks the correctness gates, and prints one JSON object as
the last stdout line. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics; --smoke shrinks the inputs for the benchmark's own
tests. README.md gives each workload's reason and the layer map.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The pinned thread count of every program under test, per workload. The
# batch job gets every core (4 on the reference host), as it would by
# default. update_50k gets one fewer, so a refresh leaves a core to the
# lookups and the client. walk_dblp gets 1: on DBLP's 800-node panels two
# threads answered no faster than one and spent 10-35% more CPU per
# request, and every parallel region woke pool threads on halted vCPUs,
# which tripled the walk p50 in a run at 10% host steal.
NPROC = os.cpu_count() or 1
THREADS = {"cold_200k": min(4, NPROC), "walk_dblp": 1,
           "update_50k": min(3, NPROC)}
# Traced runs check that layer self-times add up to the end-to-end total
# within this share of it.
SUM_TOLERANCE = 0.01
WORKLOADS = ("cold_200k", "walk_dblp", "update_50k")

_children = []


class BenchError(Exception):
    """A failed step: the run prints no result and exits non-zero."""


def now_ms():
    # CLOCK_MONOTONIC, the clock perfbench_tool stamps its spans with.
    return time.monotonic() * 1e3


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- build


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else Path.cwd() / path


def build(out):
    """Configures and builds perfbench/ (which pulls in the repo's sources)."""
    cmake_dir = out / "cmake"
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []

    def attempt():
        with open(log, "a") as sink:
            if not (cmake_dir / "CMakeCache.txt").exists():
                subprocess.run(
                    ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator],
                    stdout=sink, stderr=subprocess.STDOUT, check=True)
            subprocess.run(
                ["cmake", "--build", str(cmake_dir), "-j",
                 str(os.cpu_count() or 1)],
                stdout=sink, stderr=subprocess.STDOUT, check=True)

    try:
        attempt()
    except subprocess.CalledProcessError:
        # A cache left by another source tree cannot be reused.
        shutil.rmtree(cmake_dir, ignore_errors=True)
        try:
            attempt()
        except subprocess.CalledProcessError as err:
            tail = log.read_text(errors="replace").splitlines()[-20:]
            raise BenchError("build failed:\n" + "\n".join(tail)) from err
    tools = {
        "cli": cmake_dir / "tmark" / "tools" / "tmark_cli",
        "served": cmake_dir / "tmark" / "tools" / "tmark_served",
        "tool": cmake_dir / "perfbench_tool",
    }
    cache = {}
    for line in (cmake_dir / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    return tools, f"{build_type}: {flags}".strip()


# ------------------------------------------------------------- processes


def run_text(args, timeout=170):
    """Runs a short-lived program and returns its stdout."""
    proc = subprocess.run([str(a) for a in args], capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} {args[1]} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc.stdout


def run_tool(args):
    """Runs perfbench_tool and returns its last stdout line, a JSON object."""
    return json.loads(run_text(args).strip().splitlines()[-1])


def frame(payload):
    data = payload.encode()
    return str(len(data)).encode() + b"\n" + data


def read_frame(sock):
    head = b""
    while not head.endswith(b"\n"):
        chunk = sock.recv(1)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        head += chunk
    size = int(head)
    body = b""
    while len(body) < size:
        chunk = sock.recv(size - len(body))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        body += chunk
    return body.decode()


class Daemon:
    """One tmark_served process on a Unix socket.

    start_s is the time from exec to the first OK answer, the serving
    workloads' set-up time.
    """

    def __init__(self, tools, hin, threads, sock_path, log_path,
                 metrics_json=None):
        self.sock_path = sock_path
        args = [tools["served"], "--hin", hin, "--serve-socket", sock_path,
                "--threads", threads, "--log-level", "warn"]
        if metrics_json:
            args += ["--metrics-json", metrics_json]
        start = time.monotonic()
        self.log = open(log_path, "a")
        self.proc = subprocess.Popen([str(a) for a in args],
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.log)
        _children.append(self.proc)
        self.start_s = self._first_ok(start)

    def _first_ok(self, start):
        while time.monotonic() - start < 150:
            if self.proc.poll() is not None:
                raise BenchError("tmark_served exited during start-up")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.sock_path)
                    s.sendall(frame("classify 0"))
                    reply = read_frame(s)
                    if reply.startswith("ok "):
                        return time.monotonic() - start
                    raise BenchError(f"first answer failed: {reply}")
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.001)
        raise BenchError("tmark_served did not answer within 150 s")

    def catches_sigterm(self):
        """Whether the daemon has installed its SIGTERM handler, from the
        caught-signals mask in /proc/<pid>/status."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as status:
                for line in status:
                    if line.startswith("SigCgt:"):
                        mask = int(line.split()[1], 16)
                        return bool(mask >> (signal.SIGTERM - 1) & 1)
        except FileNotFoundError:
            pass
        return False

    def stop(self):
        """SIGTERM, once every client connection is closed: a connection
        left open keeps the server's shutdown waiting in ReadFrame.

        tmark_served answers before it installs its SIGTERM handler, so a
        SIGTERM sent right after start-up would kill it; wait for the
        handler first."""
        deadline = time.monotonic() + 30
        while not self.catches_sigterm():
            if self.proc.poll() is not None:
                raise BenchError("tmark_served exited before it was stopped")
            if time.monotonic() > deadline:
                raise BenchError("tmark_served never installed its SIGTERM "
                                 "handler")
            time.sleep(0.001)
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("tmark_served did not stop on SIGTERM")
        finally:
            self.log.close()
        if code != 0:
            raise BenchError(f"tmark_served exited {code}")


def stop_children():
    for proc in _children:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


# ------------------------------------------------------------ workloads


def cold_200k(ctx):
    """The batch user: fresh job processes on a 200k-node network."""
    tools, work, threads = ctx["tools"], ctx["work"], ctx["threads"]
    nodes = 20000 if ctx["smoke"] else 200000
    hin = work / "input.hin"
    gens = []
    sizes = set()
    for _ in range(3):
        start = time.monotonic()
        run_text([tools["cli"], "generate", "--preset", f"synthetic:{nodes}",
                  "--seed", ctx["seed"], "--out", hin, "--threads", threads])
        gens.append(time.monotonic() - start)
        sizes.add(hin.stat().st_size)
    if len(sizes) != 1:
        raise BenchError("the generator wrote different inputs for one seed")

    jobs = []
    start = time.monotonic()
    min_jobs = 2 if ctx["trace"] else 3
    while len(jobs) < min_jobs or time.monotonic() - start < ctx["seconds"]:
        i = len(jobs)
        traced = ctx["trace"] and i % 2 == 1
        # A fresh output file, so no write-back of the last one is waited on.
        (work / "model.txt").unlink(missing_ok=True)
        spawn = now_ms()
        job = run_tool([tools["tool"], "job", "--hin", hin,
                        "--model", work / "model.txt", "--threads", threads,
                        "--gate", int(i == 0), "--trace", int(traced),
                        "--id", i])
        job["spawn_ms"] = spawn
        job["traced"] = traced
        jobs.append(job)
        # A run must end within 180 s: start no job that could cross it.
        if time.monotonic() - ctx["t0"] + 2 * job["wall_ms"] / 1e3 > 120:
            break

    # Gate: the model reloads to the in-memory posteriors, and its accuracy
    # is what `tmark_cli classify` reports on the same input and split.
    text = run_text([tools["cli"], "classify", "--hin", hin,
                     "--threads", threads])
    cli_accuracy = text.split("held-out accuracy")[1].split()[0]
    gates = {
        "reload_equal": bool(jobs[0].get("reload_ok")),
        "accuracy_equals_cli": all(j["accuracy_4"] == cli_accuracy
                                   for j in jobs),
    }
    plain = [j for j in jobs if not j["traced"]]
    record = {
        "input": {"bytes": jobs[0]["hin_bytes"], "nodes": jobs[0]["nodes"],
                  "links": jobs[0]["links"]},
        "setup_runs_s": gens,
        # Per job, so a slow job can be told apart as more work (fit
        # iterations) or a slower host (steal).
        "jobs": [{k: j[k] for k in ("wall_ms", "cpu_ms", "peak_rss_mb",
                                    "fit_iters", "steal_pct", "traced")}
                 for j in jobs],
        "host.steal_pct": statistics.fmean(j["steal_pct"] for j in jobs),
        "cli_accuracy": cli_accuracy,
        "gates": gates,
    }
    metrics = {
        "setup_s": median(gens),
        "p50_ms": median([j["wall_ms"] for j in plain]),
        "cpu_ms_per_op": median([j["cpu_ms"] for j in plain]),
        "peak_rss_mb": median([j["peak_rss_mb"] for j in plain]),
        "accuracy": jobs[0]["accuracy"],
    }
    layers, table = {}, {}
    if ctx["trace"]:
        traced_jobs = [j for j in jobs if j["traced"]]
        for key in traced_jobs[0]["layers"]:
            layers[key] = median([j["layers"][key] for j in traced_jobs])
        table = job_layer_table(traced_jobs[0])
        layers["trace.overhead_pct"] = 100.0 * (
            median([j["wall_ms"] for j in traced_jobs])
            / metrics["p50_ms"] - 1.0)
        gates["layer_sum"] = table["sum_ok"]
        ctx["spans"] = [s for j in traced_jobs for s in j["spans"]]
        # How late a job's first call ran after the job was due.
        layers["gen.late_ms"] = max(j["spans"][1]["start_ms"] - j["spawn_ms"]
                                    for j in jobs)
        layers["host.steal_pct"] = record["host.steal_pct"]
    return {
        "metrics": metrics, "layers": layers, "table": table,
        "record": record, "gates": gates,
        "attempted": len(jobs), "failed": 0,
    }


def job_layer_table(job):
    """Self time of every span of one traced job. They add up to its wall
    time apart from the root's own gaps, which must stay under the
    tolerance; a self time below minus the tolerance means child spans
    overlap or stick out of their parent, and fails the check too."""
    spans, self_ms = job["spans"], job["self_ms"]
    wall = spans[0]["end_ms"] - spans[0]["start_ms"]
    rows = {s["name"]: round(self_ms[i], 3) for i, s in enumerate(spans)
            if i > 0}
    gap = self_ms[0]
    slack = SUM_TOLERANCE * wall
    return {"total_ms": wall, "self_ms": rows, "unattributed_ms": gap,
            "tolerance": SUM_TOLERANCE,
            "sum_ok": abs(gap) <= slack and min(self_ms) >= -slack}


SERVING = {
    # walk_dblp: Poisson arrivals of 4-request bursts (one user action asks
    # for several rankings), 30 bursts/s. As single requests at 120/s the
    # lone scheduler worker sat 75% busy and queueing amplified host drift
    # into 20-45% run-to-run latency spreads. The network is the DBLP preset
    # at the generator's default seed: one served data set, so its held-out
    # accuracy is one fixed number; the workload seed drives the traffic.
    "walk_dblp": dict(preset="dblp", network_seed=7, rate=120.0, burst=4,
                      starts=9, smoke_starts=2),
    "update_50k": dict(preset="synthetic:50000", smoke_preset="synthetic:5000",
                       rate=2000.0, smoke_rate=500.0, burst=1, starts=3,
                       smoke_starts=2, period_ms=1000.0,
                       smoke_period_ms=400.0),
}


def serving(ctx):
    """walk_dblp and update_50k: tmark_served under open-loop load."""
    name, tools, work = ctx["workload"], ctx["tools"], ctx["work"]
    threads = ctx["threads"]
    spec = SERVING[name]
    smoke = ctx["smoke"]
    walk = name == "walk_dblp"
    preset = spec.get("smoke_preset", spec["preset"]) if smoke \
        else spec["preset"]
    rate = spec.get("smoke_rate", spec["rate"]) if smoke else spec["rate"]
    hin = work / "input.hin"
    run_text([tools["cli"], "generate", "--preset", preset,
              "--seed", spec.get("network_seed", ctx["seed"]), "--out", hin])
    info = run_text([tools["cli"], "info", "--hin", hin])
    nodes = int(info.split("nodes:")[1].split()[0])
    links = int(info.split("links:")[1].split()[0])
    phase_s = ctx["seconds"] / 2 if ctx["trace"] else ctx["seconds"]
    deltas = {"files": [], "bytes": [], "ops": []}
    if not walk:
        period = spec["smoke_period_ms" if smoke else "period_ms"]
        deltas = run_tool([tools["tool"], "deltas", "--hin", hin, "--count",
                           int(math.ceil(phase_s * 1e3 / period)) + 2,
                           "--seed", ctx["seed"],
                           "--out-prefix", rel(work / "delta_")])
    delta_list = ",".join(deltas["files"])

    starts = []
    daemon = None
    for i in range(spec["smoke_starts" if smoke else "starts"]):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(tools, hin, threads, rel(work / f"d{i}.sock"),
                        work / "served.log")
        starts.append(daemon.start_s)

    def load(daemon):
        args = [tools["tool"], "loadgen", "--socket", daemon.sock_path,
                "--daemon-pid", daemon.proc.pid, "--seconds", phase_s,
                "--mode", "walk" if walk else "update", "--rate", rate,
                "--burst", spec["burst"], "--nodes", nodes,
                "--seed", ctx["seed"], "--connections", min(4, NPROC)]
        if not walk:
            args += ["--update-period-ms", period, "--deltas", delta_list]
        return args

    sample = work / "walk_sample.txt"
    answers = work / "classify.txt"
    main = run_tool(load(daemon) + ["--classify-out", answers]
                    + (["--sample-out", sample] if walk else []))
    daemon.stop()

    traced = None
    if ctx["trace"]:
        # Same load on a daemon that keeps its metrics registry on; the
        # untraced phase above is the baseline for the tracing overhead.
        metrics_json = work / "served_metrics.json"
        daemon = Daemon(tools, hin, threads, rel(work / "traced.sock"),
                        work / "served.log", metrics_json=metrics_json)
        traced = run_tool(load(daemon)
                          + ["--spans-out", work / "request_spans.json"])
        daemon.stop()
        traced["served"] = json.loads(metrics_json.read_text())

    fresh = main["fresh_ms"]
    verify = run_tool(
        [tools["tool"], "verify", "--hin", hin, "--threads", threads,
         "--deltas", delta_list, "--applied", len(fresh),
         "--classify", answers]
        + (["--walk-sample", sample] if walk else [])
        + (["--trace", 1, "--model", work / "verify.model"]
           if ctx["trace"] else []))

    verbs = main["verbs"]
    attempted = sum(v["attempted"] for v in verbs.values())
    failed = sum(v["errors"] + v["timeouts"] for v in verbs.values())
    gates = {"served_answers": verify["served_gate"]["ok"]}
    if walk:
        gates["walk_sample"] = verify["walk_gate"]["ok"]
    else:
        gates["updates_visible"] = len(fresh) >= 1
        gates["updates_ok"] = (verbs["update"]["errors"]
                               + verbs["update"]["timeouts"] == 0)
    completed = sum(v["ok"] for v in verbs.values())
    metrics = {
        "setup_s": median(starts),
        # The operation whose latency is gated: a walk on walk_dblp, an
        # update (sent -> first lookup answered with its generation) on
        # update_50k. A lookup's own latency is the record's: the daemon
        # spends ~3 us of its ~55 us, the rest is the wake-up of a halted
        # vCPU, which host steal stretched fourfold between runs.
        "p50_ms": main["latency_p50_ms"] if walk else median(fresh),
        "cpu_ms_per_op": main["daemon_cpu_ms"] / max(completed, 1),
        "peak_rss_mb": main["daemon_hwm_mb"],
        "accuracy": verify["accuracy"],
    }
    record = {
        "input": {"bytes": hin.stat().st_size, "nodes": nodes,
                  "links": links, "preset": preset,
                  "delta_bytes": deltas["bytes"], "delta_ops": deltas["ops"]},
        "setup_runs_s": starts,
        "rate_per_s": rate,
        "burst": spec["burst"],
        "requests": completed,
        "verbs": verbs,
        "fresh_ms": fresh,
        "latency_p50_ms": main["latency_p50_ms"],
        "latency_p90_ms": main["latency_p90_ms"],
        "latency_p95_ms": main["latency_p95_ms"],
        "latency_p99_ms": main["latency_p99_ms"],
        "stale_share": main["stale_share"],
        "refresh_p99_ms": main["refresh_p99_ms"],
        "quiet_p99_ms": main["quiet_p99_ms"],
        "gen.late_p99_ms": main["late_p99_ms"],
        "host.steal_pct": main["steal_pct"],
        "served_gate": verify["served_gate"],
        "walk_gate": verify.get("walk_gate"),
        "gates": gates,
    }
    layers, table = {}, {}
    if traced is not None:
        layers = dict(verify["layers"])
        table = request_layer_table(walk, traced)
        gates["layer_sum"] = table["sum_ok"]
        t_verbs = traced["verbs"]
        t_completed = sum(v["ok"] for v in t_verbs.values())
        attempted += sum(v["attempted"] for v in t_verbs.values())
        failed += sum(v["errors"] + v["timeouts"] for v in t_verbs.values())
        layers["trace.overhead_pct"] = 100.0 * (
            traced["daemon_cpu_ms"] / max(t_completed, 1)
            / metrics["cpu_ms_per_op"] - 1.0)
        layers["gen.late_ms"] = traced["late_p99_ms"]
        layers["host.steal_pct"] = traced["steal_pct"]
        table["startup_layers"] = verify["layers"]
        ctx["spans"] = verify["spans"]
        ctx["request_spans"] = work / "request_spans.json"
    return {
        "metrics": metrics, "layers": layers, "table": table,
        "record": record, "gates": gates,
        "attempted": attempted, "failed": failed,
    }


def request_layer_table(walk, traced):
    """Per-request self times of the served path, in ms.

    The client measures due -> sent (generator lateness) and sent -> reply;
    the daemon's serve.request_ms is the scheduler's time per request
    (queue wait plus the batch it rode in) and serve.batch_exec_ms the
    engine's time per batch. Transport (sockets, framing, protocol) is the
    residual, so the rows add up to the client's latency by construction;
    the check is that no row is negative, i.e. that no measured part
    exceeds what encloses it by more than the tolerance.
    """
    served = traced["served"]
    hist = {h["name"]: h for h in served.get("histograms", [])}
    series = {s["name"]: s for s in served.get("series", [])}
    n = max(traced["completed"], 1)
    total = traced["latency_sum_ms"] / n
    late = traced["late_sum_ms"] / n
    rpc = traced["rpc_sum_ms"] / n
    req = hist.get("serve.request_ms", {"sum": 0.0, "count": 1})
    server = req["sum"] / max(req["count"], 1)
    rows = {"gen.late": late, "serve.transport": rpc - server}
    if walk:
        batch = hist.get("serve.batch_exec_ms", {"sum": 0.0, "count": 1})
        widths = series.get("serve.batch_width", {}).get("values", [])
        engine = batch["sum"] / max(batch["count"], 1)
        rows["serve.queue_wait"] = server - engine
        rows["serve.engine"] = engine
        extra = {"serve.batch_ms": engine,
                 "serve.batch_width": statistics.mean(widths) if widths else 0,
                 "serve.rejected": next(
                     (c["value"] for c in served.get("counters", [])
                      if c["name"] == "serve.rejected"), 0)}
    else:
        rows["serve.lookup"] = server
        upd = hist.get("update.total_ms", {"sum": 0.0, "count": 1})
        ops = hist.get("update.operators_ms", {"sum": 0.0, "count": 1})
        extra = {"serve.refresh_ms": upd["sum"] / max(upd["count"], 1),
                 "serve.refresh_patch_ms": ops["sum"] / max(ops["count"], 1),
                 "serve.stale_share": traced["stale_share"],
                 "serve.refresh_p99_ms": traced["refresh_p99_ms"],
                 "serve.quiet_p99_ms": traced["quiet_p99_ms"]}
    return {"total_ms": total, "self_ms": rows, "tolerance": SUM_TOLERANCE,
            "sum_ok": min(rows.values()) >= -SUM_TOLERANCE * total,
            "requests": n, **extra}


def rel(path):
    """Socket and delta paths relative to the working directory, which the
    daemon and perfbench_tool share: a Unix socket path must stay short."""
    return os.path.relpath(path, Path.cwd())


# ----------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"error: no T-Mark sources at {ROOT}", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        # Compilers and tools put their temporary files inside the checkout.
        (out / "tmp").mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(out / "tmp")
        tools, build_flags = build(out)
        tag = f"{args.workload}-s{args.seed}-t{args.trace}"
        work = out / "work" / f"{tag}-{os.getpid()}"
        results = out / "results" / tag
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ctx = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "smoke": args.smoke, "tools": tools, "work": work,
               "threads": THREADS[args.workload],
               "t0": time.monotonic()}
        try:
            run = (cold_200k if args.workload == "cold_200k" else serving)(ctx)
        finally:
            stop_children()
        results.mkdir(parents=True, exist_ok=True)
        if args.trace:
            (results / "layers.json").write_text(
                json.dumps(run["table"], indent=1) + "\n")
            (results / "spans.json").write_text(
                json.dumps(ctx.get("spans", [])) + "\n")
            if "request_spans" in ctx:
                shutil.copy(ctx["request_spans"],
                            results / "request_spans.json")
        shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            KeyError, ValueError) as err:
        stop_children()
        print(f"error: {err}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "nproc": NPROC, "threads": THREADS[args.workload],
        "build_flags": build_flags, **run["record"],
    }
    (results / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    correct = all(run["gates"].values())
    units = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    values = run["layers"] if args.trace else run["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in units[kind]}
    if args.trace:
        print(json.dumps({"layer_table": run["table"]}))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(correct), "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
