#!/usr/bin/env python3
"""INTO-OA benchmark: the campaign path and the serving path, end to end.

Run from the repository root:

    python3 perfbench/run.py --workload campaign_quick --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 15 --trace 1

The first call builds the repository's libraries, intooa-served,
intooa-gateway and perfbench-tool into .bench_build/ (or $CARGO_TARGET_DIR).
With --trace 0 the last stdout line is a JSON object with every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric and
the lines above it print the per-layer table and the span self-time table.
perfbench/README.md explains the workloads and how to read the numbers.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
SPECS = ["S-1", "S-2", "S-3", "S-4", "S-5"]
TOPOLOGIES = 30625
NPROC = len(os.sched_getaffinity(0))
METHOD_KEYS = {"FE-GA": "fe_ga", "VGAE-BO": "vgae_bo", "INTO-OA-r": "into_oa_r",
               "INTO-OA-m": "into_oa_m", "INTO-OA": "into_oa"}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- building


def build():
    """Configures and builds the benchmark package; returns binary paths."""
    cmake_dir = os.path.join(BUILD, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", str(NPROC), "--target",
         "perfbench-tool", "intooa-served", "intooa-gateway"],
    ]
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    tail = f.read()[-2000:]
                raise BenchError(f"build failed ({' '.join(cmd[:2])}):\n{tail}")
    return {
        "tool": os.path.join(cmake_dir, "perfbench-tool"),
        "served": os.path.join(cmake_dir, "intooa", "svc", "intooa-served"),
        "gateway": os.path.join(cmake_dir, "intooa", "gateway", "intooa-gateway"),
    }


def run_tool(args, cwd, timeout=170, ok_codes=(0,)):
    """Runs perfbench-tool and returns its last stdout line as JSON."""
    proc = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode not in ok_codes:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}: "
                         f"{proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- statistics


def registry_delta(before, after):
    """Delta of two obs MetricsSnapshot JSON documents: counters and
    histogram count/sum as differences, quantiles over the bucket
    differences, gauges as read at the end."""
    counters = {k: int(v - before["counters"].get(k, 0)) for k, v in after["counters"].items()}
    hists = {}
    for name, h in after["histograms"].items():
        h0 = before["histograms"].get(name, {"count": 0, "sum": 0, "buckets": []})
        b0 = dict((int(b), c) for b, c in h0["buckets"])
        buckets = {int(b): c - b0.get(int(b), 0) for b, c in h["buckets"]}
        buckets = {b: c for b, c in buckets.items() if c > 0}
        hists[name] = {"count": int(h["count"] - h0["count"]), "sum": h["sum"] - h0["sum"],
                       "p50": bucket_quantile(buckets, 0.5),
                       "p99": bucket_quantile(buckets, 0.99)}
    return {"counters": counters, "gauges": dict(after["gauges"]), "histograms": hists}


def bucket_quantile(buckets, q):
    """q-quantile of log2 buckets (bucket b holds [2^(b-1), 2^b)),
    interpolating linearly inside the target bucket like
    obs::HistogramSnapshot::quantile."""
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    target, cum = q * total, 0
    for b in sorted(buckets):
        c = buckets[b]
        if cum + c >= target:
            lo, hi = (0.0, 0.0) if b == 0 else (2.0 ** (b - 1), 2.0 ** b)
            return lo + (target - cum) / c * (hi - lo)
        cum += c
    return 0.0


def registry_layers(delta, wall_s):
    """Per-layer rows that come from one process's obs registry delta."""
    c, g, h = delta["counters"], delta["gauges"], delta["histograms"]
    hist = lambda name: h.get(name, {"count": 0, "sum": 0, "p50": 0.0, "p99": 0.0})
    ns = lambda name: hist(name)["sum"] / 1e9
    ratio = lambda a, b: a / (a + b) if a + b else 0.0
    workers = g.get("pool.workers", 0.0)
    return {
        "runtime.pool_utilization": ns("pool.task") / (workers * wall_s) if workers and wall_s else 0.0,
        "runtime.queue_depth_max": g.get("pool.queue_depth_max", 0.0),
        "core.score_pool_s": ns("optimizer.score_pool"),
        "core.simulations": c.get("evaluator.simulations", 0),
        "core.candidates_scored": c.get("optimizer.candidates_scored", 0),
        "core.cache_hit_rate": ratio(c.get("evaluator.cache_hit", 0), c.get("evaluator.cache_miss", 0)),
        "graph.featurize_s": ns("wl.featurize"),
        "graph.featurize_count": hist("wl.featurize")["count"],
        "graph.label_count": g.get("wl.label_count", 0.0),
        "gp.fit_s": ns("gp.fit"),
        "gp.joint_fit_s": ns("gp.joint_fit"),
        "gp.full_refits": c.get("gp.fit.full_refits", 0),
        "gp.incremental_rate": ratio(c.get("gp.fit.incremental_hits", 0), c.get("gp.fit.full_refits", 0)),
        "sizing.size_s": ns("sizing.size"),
        "sizing.acquisition_s": ns("sizing.size") - ns("sizing.evaluate"),
        "sim.solves": hist("sim.mna_solve")["count"],
        "sim.solve_s": ns("sim.mna_solve"),
        "store.appends": c.get("store.appends", 0),
    }


def work_counters(delta):
    """The work counters every campaign run checks for exact equality."""
    c, h = delta["counters"], delta["histograms"]
    return {
        "evaluator.simulations": c.get("evaluator.simulations", 0),
        "sim.mna_solve": h.get("sim.mna_solve", {}).get("count", 0),
        "wl.featurize": h.get("wl.featurize", {}).get("count", 0),
        "gp.fit.full_refits": c.get("gp.fit.full_refits", 0),
    }


def read_spans(path, group):
    with open(path) as f:
        return [{"name": n, "start": s, "end": e, "id": (group, i),
                 "parent": (group, p) if p else None, "request": r}
                for n, s, e, i, p, r in json.load(f)]


def span_table(spans):
    """Per span name: count, total and self time (duration minus the union
    of its children's intervals). Unattributed = self time of the root spans
    that have children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    rows, unattributed = {}, 0.0
    for s in spans:
        covered, cursor = 0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        dur = s["end"] - s["start"]
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur / 1e9
        row[2] += (dur - covered) / 1e9
        if s["parent"] is None and s["id"] in children:
            unattributed += (dur - covered) / 1e9
    return rows, unattributed


def write_chrome_trace(spans, path):
    groups = sorted({s["id"][0] for s in spans})
    events = [{"name": s["name"], "ph": "X", "ts": s["start"] / 1e3,
               "dur": (s["end"] - s["start"]) / 1e3, "pid": 1,
               "tid": groups.index(s["id"][0]),
               "args": {"request": s["request"],
                        "parent": s["parent"][1] if s["parent"] else 0}}
              for s in spans]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


# ---------------------------------------------------------------- campaign


def campaign_args(bins, csv_dir, tiny):
    p = CONFIG["campaign_quick"]["protocol"]
    args = [bins["tool"], "campaign", "--threads", str(NPROC), "--csv-dir", csv_dir,
            "--runs", str(p["runs"]), "--iters", str(p["iters"]), "--init", str(p["init"]),
            "--pool", str(p["pool"]), "--sizing-init", str(p["sizing_init"]),
            "--sizing-iters", str(p["sizing_iters"]), "--seed", str(p["seed"])]
    if tiny:
        args += ["--specs", "S-1", "--methods", "INTO-OA", "--runs", "1", "--iters", "2",
                 "--init", "3", "--pool", "20"]
    return args


def launch_campaign(args, cwd):
    """Starts a campaign process; returns it and its launch-to-ready time."""
    t0 = time.monotonic()
    proc = subprocess.Popen(args, cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline().strip()
    setup = time.monotonic() - t0
    if line != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"campaign process did not start: {err[-1500:]}")
    return proc, setup


def run_campaign_once(bins, work, tiny, reference, spans_path=None, probe=False):
    csv_dir = os.path.join(work, "csv")
    shutil.rmtree(csv_dir, ignore_errors=True)
    args = campaign_args(bins, csv_dir, tiny)
    if spans_path:
        args += ["--spans", spans_path]
    if probe:
        args += ["--featurize-probe"]
    proc, setup = launch_campaign(args, work)
    try:
        out, err = proc.communicate("go\n", timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"campaign process exited {proc.returncode}: {err[-1500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    result["registry"] = registry_delta(result.pop("registry_before"),
                                        result.pop("registry_after"))

    # Correctness: every CSV against its committed digest, and the work
    # counters for exact equality. Each mismatch is a failed operation.
    failures = []
    for s in result["sets"]:
        name = os.path.basename(s["csv"])
        with open(s["csv"], "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        if reference["csv_sha256"].get(name) != digest:
            failures.append(f"CSV digest mismatch: {name} has sha256 {digest}")
    counters = work_counters(result["registry"])
    for name, value in counters.items():
        if reference["counters"].get(name) != value:
            failures.append(f"work counter {name} = {value}, reference {reference['counters'].get(name)}")
    result.update(counters=counters, failures=failures,
                  attempted=len(result["sets"]) + len(counters))
    return result


def campaign_quick(bins, args, work):
    tiny = args.tiny
    reference = load_json(os.path.join(HERE, "reference.json"))["tiny" if tiny else "quick"]
    if args.corrupt_expected:
        name = sorted(reference["csv_sha256"])[0]
        reference["csv_sha256"][name] = "0" * 64
    repeats = 1 if tiny else CONFIG["campaign_quick"]["setup_repeats"]
    # Set-up: launch-to-ready of a fresh campaign process, repeated.
    setups = []
    for _ in range(repeats - 1):
        proc, setup = launch_campaign(campaign_args(bins, "csv", tiny) + ["--setup-only"], work)
        proc.communicate(timeout=30)
        setups.append(setup)

    if not args.trace:
        r = run_campaign_once(bins, work, tiny, reference)
        setups.append(r["setup_s"])
        for line in r["failures"]:
            log("FAILED:", line)
        runs = r["registry"]["counters"].get("evaluator.sizer_runs", 0)
        size = r["registry"]["histograms"].get("sizing.size", {})
        metrics = {
            "setup_s": statistics.median(setups),
            "campaign_wall_s": r["wall_s"],
            "campaign_cpu_s": r["cpu_s"],
            "peak_rss_mb": r["maxrss_kb"] / 1024.0,
            "p50_ms": size.get("p50", 0.0) / 1e6,
            "cpu_ms_per_req": r["cpu_s"] * 1e3 / runs if runs else 0.0,
        }
        print(f"campaign_quick: {len(r['sets'])} sets, {runs} topology evaluations, "
              f"wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"work counters {r['counters']}")
        return metrics, r["attempted"], len(r["failures"])

    # Traced: one untraced and one traced campaign process (their wall
    # ratio is the tracing overhead), the VAE timing and the fresh-WL probe.
    plain = run_campaign_once(bins, work, tiny, reference)
    spans_path = os.path.join(work, "campaign-spans.json")
    traced = run_campaign_once(bins, work, tiny, reference, spans_path, probe=True)
    vae = run_tool([bins["tool"], "vae"], work) if not tiny else {"vae_train_s": 0.0}
    layers = empty_layers()
    for s in traced["sets"]:
        layers["campaign.set_s." + METHOD_KEYS[s["method"]]] += s["seconds"]
    layers["campaign.unattributed_s"] = traced["wall_s"] - sum(s["seconds"] for s in traced["sets"])
    layers.update(registry_layers(traced["registry"], traced["wall_s"]))
    layers["baselines.vae_train_s"] = vae["vae_train_s"]
    layers["graph.featurize_fresh_us"] = traced.get("featurize_fresh_us", 0.0)
    layers["obs.trace_overhead_pct"] = (traced["wall_s"] / plain["wall_s"] - 1.0) * 100.0
    spans = read_spans(spans_path, 0)
    write_chrome_trace(spans, trace_path(args))
    for line in plain["failures"] + traced["failures"]:
        log("FAILED:", line)
    print_tables(args.workload, layers, spans)
    return (layers, plain["attempted"] + traced["attempted"],
            len(plain["failures"]) + len(traced["failures"]))


# ---------------------------------------------------------------- serving


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_get(port, path, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


class Deployment:
    """intooa-served (unix socket, fresh --store) behind intooa-gateway
    (TCP loopback), started from `work` so the socket path stays short."""

    def __init__(self, bins, work):
        self.bins, self.work = bins, work
        self.served = self.gateway = None
        self.port = None

    def start(self):
        for name in ("store.bin", "served.sock"):
            if os.path.exists(os.path.join(self.work, name)):
                os.remove(os.path.join(self.work, name))
        self.errlog = open(os.path.join(self.work, "daemons.log"), "a")
        self.served = subprocess.Popen(
            [self.bins["served"], "--listen", "unix:served.sock", "--store", "store.bin",
             "--threads", str(NPROC), "--log-level", "warn"],
            cwd=self.work, stdout=subprocess.DEVNULL, stderr=self.errlog)
        deadline = time.monotonic() + 20
        while True:
            self.port = free_port()
            self.gateway = subprocess.Popen(
                [self.bins["gateway"], "--listen", f"tcp:127.0.0.1:{self.port}",
                 "--evaluator", "unix:served.sock", "--log-level", "warn"],
                cwd=self.work, stdout=subprocess.DEVNULL, stderr=self.errlog)
            if self._wait_ready(deadline):
                return
            if time.monotonic() > deadline:
                raise BenchError("daemons did not become ready")

    def _wait_ready(self, deadline):
        """Gateway /healthz, then /v1/stats (a handshake with served)."""
        for path in ("/healthz", "/v1/stats"):
            while True:
                if self.gateway.poll() is not None:
                    return False  # lost the port race; retry on another
                if self.served.poll() is not None:
                    raise BenchError("intooa-served exited during start-up")
                try:
                    if http_get(self.port, path)[0] == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise BenchError(f"no 200 from {path}")
                time.sleep(0.002)
        return True

    def pids(self):
        return [self.served.pid, self.gateway.pid]

    def stats(self):
        status, body = http_get(self.port, "/v1/stats")
        if status != 200:
            raise BenchError(f"/v1/stats answered {status}")
        return json.loads(body)["metrics"]

    def peak_rss_mb(self):
        total = 0.0
        for pid in self.pids():
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def stop(self):
        for proc in (self.gateway, self.served):
            if proc is not None and proc.poll() is None:
                proc.terminate()
        for proc in (self.gateway, self.served):
            if proc is None:
                continue
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.served is not None:
            self.errlog.close()
        self.served = self.gateway = None


def write_keys(path, keys):
    with open(path, "w") as f:
        for spec, topology, digest in keys:
            f.write(f"{spec} {topology} {digest or ''}\n")


def read_replies(path):
    out = []
    with open(path) as f:
        for line in f:
            step, spec, topology, status, digest, latency = line.split()
            out.append({"step": int(step), "spec": spec, "topology": int(topology),
                        "status": int(status), "digest": digest, "latency_ms": float(latency)})
    return out


def key_of(index):
    return SPECS[index // TOPOLOGIES], index % TOPOLOGIES


def loadgen(bins, work, dep, keys, schedule, seed, limit_ms, replies=None, spans=None,
            drain_ms=None):
    """Sends `keys` through the gateway on `schedule` [(rate, seconds)];
    returns the generator's per-step results. After each step's window the
    generator waits `drain_ms` (default: the larger of 5 s and 20 latency
    limits) for the last replies."""
    if drain_ms is None:
        drain_ms = max(5000.0, 20 * limit_ms)
    path = os.path.join(work, "stream.txt")
    write_keys(path, keys)
    args = [bins["tool"], "loadgen", "--port", str(dep.port), "--keys", path,
            "--schedule", ",".join(f"{r}:{s}" for r, s in schedule),
            "--seed", str(seed), "--conns", str(NPROC), "--limit-ms", str(limit_ms),
            "--cpu-pids", ",".join(str(p) for p in dep.pids()),
            "--drain-ms", str(drain_ms)]
    if replies:
        args += ["--replies", replies]
    if spans:
        args += ["--spans", spans]
    return run_tool(args, work)["steps"]


def serve_config(args):
    cfg = dict(CONFIG[args.workload])
    if args.tiny:
        cfg.update(CONFIG["tiny"][args.workload])
    return cfg


def serve(bins, args, work, cold):
    """serve_warm / serve_cold. Returns (metrics, attempted, failed)."""
    cfg = serve_config(args)
    rng = random.Random(args.seed)
    tally = {"attempted": 0, "failed": 0, "notes": []}

    # Inputs, all drawn from the seed: warm = a small key set; cold = a
    # permutation of the 5 x 30625 keys (its first key is the set-up probe).
    universe = range(len(SPECS) * TOPOLOGIES)
    if cold:
        permutation = [key_of(i) for i in rng.sample(universe, 12000)]
        setup_keys = [permutation[0] + (None,)]
    else:
        setup_keys = [key_of(i) + (None,) for i in rng.sample(universe, cfg["key_set_size"])]
    expected = {}  # warm: record digest per key, from the first set-up

    def stream_for(count, offset):
        if cold:
            if 1 + offset + count > len(permutation):
                raise BenchError("cold key stream exhausted")
            return [k + (None,) for k in permutation[1 + offset:1 + offset + count]]
        pick = random.Random(args.seed * 7919 + offset)
        keys = sorted(expected)
        return [k + (expected[k],) for k in (pick.choice(keys) for _ in range(count))]

    # End to end, the window is split across fresh deployments (daemons and
    # store): each is set up (timed), then driven at the reference rate for
    # its share of the window. Pooling them averages out the placement luck
    # of one deployment.
    deployments = 1 if args.trace else cfg["deployments"]
    window_s = args.seconds / deployments
    per_window = int(cfg["reference_rate"] * window_s) + 1
    dep = Deployment(bins, work)
    try:
        setups, windows, first_digests = [], [], None
        for i in range(deployments):
            dep.stop()
            setup_s, digests = set_up(bins, args, work, dep, setup_keys)
            setups.append(setup_s)
            tally["attempted"] += 1
            if first_digests is None:
                first_digests = digests
                expected.update(digests)
                if args.corrupt_expected and not cold:
                    expected[sorted(expected)[0]] = "0" * 16
            elif digests != first_digests:
                tally["failed"] += 1
                tally["notes"].append("set-up digests differ between fresh deployments")
            if args.trace:
                layers = serve_traced(bins, args, work, dep, cfg, stream_for, cold, rng, tally)
                report_notes(tally)
                return layers, tally["attempted"], tally["failed"]
            windows.append(run_schedule(bins, args, work, dep, cfg,
                                        [(cfg["reference_rate"], window_s)], stream_for,
                                        i * per_window, cold, rng, tally))
        report_notes(tally)
        refs = [w["ref"] for w in windows]
        latencies = [x for w in windows for x in w["ref_latencies_ms"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "campaign_wall_s": sum(r["wall_s"] for r in refs),
            "campaign_cpu_s": sum(r["cpu_s"] for r in refs),
            "peak_rss_mb": max(w["rss_mb"] for w in windows),
            "p50_ms": statistics.median(latencies),
            "cpu_ms_per_req": sum(r["cpu_s"] for r in refs) * 1e3
            / max(sum(r["ok"] for r in refs), 1),
        }
        print(f"{args.workload}: {deployments} deployments, {len(latencies)} requests at "
              f"{cfg['reference_rate']}/s; p50 {metrics['p50_ms']:.3f} ms")
        return metrics, tally["attempted"], tally["failed"]
    finally:
        dep.stop()


def report_notes(tally):
    for line in tally["notes"]:
        log("FAILED:", line)


def set_up(bins, args, work, dep, setup_keys):
    """One set-up on fresh daemons and a fresh store: launch, readiness,
    and the warm-up pass (warm) or one probe request (cold). Returns the
    set-up time and the record digests the set-up saw."""
    path = os.path.join(work, "setup-replies.txt")
    t0 = time.monotonic()
    dep.start()
    loadgen(bins, work, dep, setup_keys, [(0, 1)], args.seed, 1e9, replies=path)
    setup_s = time.monotonic() - t0
    replies = read_replies(path)
    if any(r["status"] != 200 for r in replies):
        raise BenchError("a set-up request failed")
    return setup_s, {(r["spec"], r["topology"]): r["digest"] for r in replies}


def run_schedule(bins, args, work, dep, cfg, schedule, stream_for, offset, cold, rng, tally):
    """Sends `schedule` (the reference step first, then any ladder steps)
    through the gateway. Checks every reply's digest (warm) or a seeded
    sample of reference replies recomputed in process (cold), and prints
    the step table."""
    limit = cfg["latency_limit_ms"]
    count = sum(int(r * s) + 1 for r, s in schedule)
    path = os.path.join(work, "replies.txt")
    steps = loadgen(bins, work, dep, stream_for(count, offset), schedule, args.seed, limit,
                    replies=path)
    rss = dep.peak_rss_mb()
    ref, ladder = steps[0], steps[1:]
    tally["attempted"] += sum(s["sent"] for s in steps)
    tally["failed"] += ref["failed"] + sum(s["mismatched"] for s in ladder)
    mismatched = sum(s["mismatched"] for s in steps)
    if mismatched:
        tally["notes"].append(f"{mismatched} replies with a wrong record digest")

    if cold:
        replies = [r for r in read_replies(path) if r["step"] == 0 and r["status"] == 200]
        sample = rng.sample(replies, min(cfg["oracle_sample"], len(replies)))
        check = [(r["spec"], r["topology"], r["digest"]) for r in sample]
        if args.corrupt_expected and check:
            check[0] = check[0][:2] + ("0" * 16,)
        oracle_path = os.path.join(work, "oracle.txt")
        write_keys(oracle_path, check)
        oracle = run_tool([bins["tool"], "evaluate", "--mode", "inproc", "--keys", oracle_path,
                           "--threads", str(NPROC)], work, ok_codes=(0, 3))
        bad = oracle["failed"] + oracle["mismatched"]
        tally["attempted"] += oracle["sent"]
        tally["failed"] += bad
        if bad:
            tally["notes"].append(f"{bad} cold replies differ from the in-process recompute")

    def meets(s):
        return s["failed"] == 0 and s["p99_ms"] <= limit and not s["backlog_growing"]

    print(f"{args.workload}: steps (latency limit p99 <= {limit:g} ms; a failure or a "
          "growing backlog also misses it)")
    print(f"  {'rate/s':>8} {'secs':>5} {'sent':>7} {'ok':>7} {'failed':>6} {'p50_ms':>9} "
          f"{'p99_ms':>9} {'lag99_ms':>8} {'backlog':>7}  slo")
    for i, s in enumerate(steps):
        print(f"  {s['rate']:>8g} {s['seconds']:>5.2f} {s['sent']:>7} {s['ok']:>7} "
              f"{s['failed']:>6} {s['p50_ms']:>9.3f} {s['p99_ms']:>9.3f} {s['lag_p99_ms']:>8.3f} "
              f"{s['backlog_max']:>7g}  {'ok' if meets(s) else 'miss'}"
              f"{'  (reference)' if i == 0 else ''}")
    print(f"  reference step: {ref['sent']} samples, "
          f"{ref['sent'] - int(0.99 * ref['sent'])} beyond its p99")
    passing = [s["rate"] for s in ladder if meets(s)]
    # Failed requests miss every limit: they enter the pooled latencies as
    # infinitely late.
    ref_latencies = [r["latency_ms"] if r["status"] == 200 else float("inf")
                     for r in read_replies(path) if r["step"] == 0]
    return {"ref": ref, "steps": steps, "rss_mb": rss, "count": count,
            "ref_latencies_ms": ref_latencies,
            "max_rps_slo": float(max(passing)) if passing else 0.0}


def serve_traced(bins, args, work, dep, cfg, stream_for, cold, rng, tally):
    """The same seeded stream at the reference rate through each hop in
    turn: in process, the ClientPool, the Session, then HTTP (the untraced
    ladder, then a traced pass). Differencing the hops attributes each."""
    rate, limit = cfg["reference_rate"], cfg["latency_limit_ms"]
    pass_s = args.seconds * CONFIG["timed_window"]["trace_pass_share"]
    count = max(4, int(rate * pass_s))
    spans, hops = [], {}
    t0 = time.monotonic()
    stats0 = dep.stats()
    store_size0 = os.path.getsize(os.path.join(work, "store.bin"))
    for group, mode in enumerate(["inproc", "pool", "session"]):
        path = os.path.join(work, f"{mode}-keys.txt")
        write_keys(path, stream_for(count, group * count))
        spans_path = os.path.join(work, f"{mode}-spans.json")
        cmd = [bins["tool"], "evaluate", "--mode", mode, "--keys", path, "--rate", str(rate),
               "--seed", str(args.seed), "--threads", str(NPROC), "--spans", spans_path]
        if mode != "inproc" or not cold:
            cmd += ["--connect", "unix:served.sock"]
        if mode == "inproc" and not cold:
            cmd += ["--memory"]
        hops[mode] = run_tool(cmd, work, ok_codes=(0, 3))
        spans += read_spans(spans_path, group)
        tally["attempted"] += hops[mode]["sent"]
        tally["failed"] += hops[mode]["failed"] + hops[mode]["mismatched"]

    offset = 3 * count
    share = CONFIG["timed_window"]["ladder_reference_share"]
    step_s = args.seconds * (1 - share) / len(cfg["ladder"])
    schedule = [(rate, args.seconds * share)] + [(r, step_s) for r in cfg["ladder"]]
    ladder = run_schedule(bins, args, work, dep, cfg, schedule, stream_for, offset, cold, rng,
                          tally)
    offset += ladder["count"]
    plain = ladder["ref"]
    loaded = next(s for s in ladder["steps"][1:] if s["rate"] == cfg["loaded_rate"])
    stats_h0 = dep.stats()
    spans_path = os.path.join(work, "http-spans.json")
    http_keys = stream_for(count + 1, offset)
    traced = loadgen(bins, work, dep, http_keys, [(rate, pass_s)], args.seed, limit,
                     spans=spans_path)[0]
    tally["attempted"] += traced["sent"]
    tally["failed"] += traced["failed"]
    stats1 = dep.stats()
    spans += read_spans(spans_path, 3)
    wall = time.monotonic() - t0
    _, metrics_text = http_get(dep.port, "/metrics")
    store_size1 = os.path.getsize(os.path.join(work, "store.bin"))
    dep.stop()

    gateway = {}
    for line in metrics_text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            gateway[key] = float(value)

    # store.append_us_p50: replay records this run stored (the pool hop's
    # cold keys, or the warm key set) into a scratch store.
    stored = stream_for(count, count) if cold else sorted({k[:2] + (None,) for k in http_keys})
    path = os.path.join(work, "replay-keys.txt")
    write_keys(path, stored)
    if os.path.exists(os.path.join(work, "replay.bin")):
        os.remove(os.path.join(work, "replay.bin"))
    replay = run_tool([bins["tool"], "store-replay", "--from", "store.bin", "--to",
                       "replay.bin", "--keys", path], work)

    delta = registry_delta(stats0, stats1)
    request_ns = registry_delta(stats_h0, stats1)["histograms"].get(
        "svc.request_ns", {"p50": 0.0, "p99": 0.0})
    c = delta["counters"]
    session = hops["session"]
    layers = empty_layers()
    layers.update(registry_layers(delta, wall))
    layers.update({
        "sizing.inproc_ms_p50": hops["inproc"]["service_p50_us"] / 1e3 if cold else 0.0,
        "store.bytes_appended": store_size1 - store_size0,
        "store.append_us_p50": replay["append_us_p50"],
        "svc.pool_p50_us": hops["pool"]["service_p50_us"],
        "svc.pool_p99_us": hops["pool"]["service_p99_us"],
        "svc.request_p50_us": request_ns["p50"] / 1e3,
        "svc.request_p99_us": request_ns["p99"] / 1e3,
        "svc.busy_rejections": c.get("svc.busy_rejections", 0),
        "svc.served_memory": c.get("svc.served_memory", 0),
        "svc.served_computed": c.get("svc.served_computed", 0),
        "svc.pool_replays": hops["pool"]["replays"]
        + gateway.get("intooa_svc_pool_replays_total", 0.0),
        "api.session_p50_us": session["service_p50_us"],
        "api.session_p99_us": session["service_p99_us"],
        "gateway.hop_p50_us": traced["service_p50_ms"] * 1e3 - session["service_p50_us"],
        "gateway.request_p99_us":
            gateway.get('intooa_gateway_request_ns{quantile="0.99"}', 0.0) / 1e3,
        "gateway.responses_5xx": sum(s["status_5xx"] for s in ladder["steps"])
        + traced["status_5xx"],
        # The generator records its spans after each step's threads have
        # joined, off the request path, so tracing adds nothing to a served
        # request: 0 by construction.
        "obs.trace_overhead_pct": 0.0,
        "loadgen.p99_ms": plain["p99_ms"],
        "loadgen.p50_ms_loaded": loaded["p50_ms"],
        "loadgen.max_rps_slo": ladder["max_rps_slo"],
        "loadgen.lag_p99_ms": traced["lag_p99_ms"],
        "loadgen.sent": traced["sent"],
        "loadgen.failed": traced["failed"],
        "loadgen.backlog_max": traced["backlog_max"],
    })
    write_chrome_trace(spans, trace_path(args))
    print(f"\n{args.workload}: hops at {rate}/s")
    print(f"  {'hop':<11} {'sent':>6} {'failed':>6} {'call_p50_us':>12} {'call_p99_us':>12}")
    for mode in ("inproc", "pool", "session"):
        r = hops[mode]
        print(f"  {mode:<11} {r['sent']:>6} {r['failed'] + r['mismatched']:>6} "
              f"{r['service_p50_us']:>12.1f} {r['service_p99_us']:>12.1f}")
    for label, r in (("http", plain), ("http+spans", traced)):
        print(f"  {label:<11} {r['sent']:>6} {r['failed']:>6} {r['service_p50_ms'] * 1e3:>12.1f}")
    print_tables(args.workload, layers, spans)
    return layers



# ---------------------------------------------------------------- output


def empty_layers():
    return {m["name"]: 0.0 for m in BENCH["per_layer"]}


def trace_path(args):
    return os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")


def print_tables(workload, layers, spans):
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    print(f"\nper-layer table: {workload}")
    print(f"  {'layer':<10} {'metric':<28} {'value':>16} unit")
    for m in BENCH["per_layer"]:
        name = m["name"]
        print(f"  {name.split('.')[0]:<10} {name:<28} {layers[name]:>16.6g} {units[name]}")
    rows, unattributed = span_table(spans)
    print(f"\nspan self time: {workload}")
    print(f"  {'span':<28} {'count':>8} {'total_s':>12} {'self_s':>12}")
    for name in sorted(rows):
        count, total, own = rows[name]
        print(f"  {name:<28} {count:>8} {total:>12.6f} {own:>12.6f}")
    print(f"  {'unattributed':<28} {'':>8} {'':>12} {unattributed:>12.6f}")
    print()


def emit(metrics, attempted, failed, trace):
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    names = {m["name"] for m in spec}
    if set(metrics) != names:
        raise BenchError(f"metric set mismatch: {sorted(set(metrics) ^ names)}")
    out = {"correct": failed == 0, "attempted": int(attempted), "failed": int(failed),
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                       for m in spec}}
    print(json.dumps(out), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one spec, one method, a few requests")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: corrupt one reference digest; it must fail")
    args = parser.parse_args()
    workloads = [w["name"] for w in BENCH["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload}; one of {workloads}")

    bins = build()
    work = os.path.join(BUILD, "run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload == "campaign_quick":
            metrics, attempted, failed = campaign_quick(bins, args, work)
        else:
            metrics, attempted, failed = serve(bins, args, work,
                                               cold=args.workload == "serve_cold")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(metrics, attempted, failed, args.trace)


if __name__ == "__main__":
    # A SIGTERM unwinds through the finally blocks, which stop the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        BENCH = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        CONFIG = load_json(os.path.join(HERE, "config.json"))
        main()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)
