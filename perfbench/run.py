#!/usr/bin/env python3
"""End-to-end benchmark of plc1901: runs one workload against `plcsim`.

    python3 perfbench/run.py --workload testbed|sweep|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds `plcsim`
and the tracer (`perfbench_trace`) into $CARGO_TARGET_DIR
(default `.bench_build`) in one fixed Release configuration; later runs
reuse the binaries. Inputs are generated from --seed. Each run repeats
whole rounds of the workload's operations until --seconds have passed,
checks every output, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured on the untraced
program. --trace 1 runs the same rounds through the tracer and
reports per-layer metrics; it also writes a Chrome-trace span file
under <build>/traces/. See perfbench/README.md.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import functools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
PLCSIM = BUILD / "repo" / "examples" / "plcsim"
TRACER = BUILD / "perfbench_trace"

WORKERS = 2  # --jobs of every plcsim process and of the tracer.
SWEEP_SCENARIOS = ["dcf-comparison", "e20-mac-observatory", "e21-boosted-cw",
                   "e6-throughput-vs-n", "e8-boosting"]
CA1 = {"label": "CA1", "type": "1901", "name": "CA0/CA1",
       "cw": [8, 16, 32, 64], "dc": [0, 1, 3, 15]}

# testbed workload: one spec, N = 1..7, TESTBED_SECONDS of measurement
# per N after the testbed's fixed warm-up.
TESTBED_STATIONS = [1, 2, 3, 4, 5, 6, 7]
TESTBED_SECONDS = 8
TESTBED_WARMUP_S = 2.0  # tools::TestbedConfig::warmup

# serve workload: per round, every sweep scenario once with the model
# leg and once sim-only, each with a fresh seed and its duration scaled
# by SERVE_DURATION_SCALE (cold jobs), then every one of them again
# (warm re-submissions), in a seeded order.
SERVE_DURATION_SCALE = 0.1
SERVE_MAX_QUEUE = 16
POLL_S = 0.002  # client sleep between job status polls
HEALTHZ_PERIOD_S = 0.02  # traced serve runs only
# The daemon keeps every finished job, so its resident set grows with
# the jobs served; peak_rss_mb is read after a fixed number of rounds
# to stay independent of how many rounds a run reaches.
SERVE_RSS_ROUNDS = 8

# Output-check tolerances (see README "Output checks").
EXACT_PAIR_TOL = 0.025     # |p(N=2) - exact pair|, absolute
WARMUP_SHARE_TOL = 0.05    # medium-minus-MME share vs the warm-up share
MONOTONE_SIGMAS = 4.0      # p(N+1) >= p(N) - 4 sigma
MODEL_REL_TOL = 1e-9       # independent fixed points vs the model leg


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------- build

def build():
    """Builds plcsim and the tracer once; returns seconds spent."""
    if PLCSIM.exists() and TRACER.exists():
        return 0.0
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no plc1901 source tree at {ROOT}")
    start = time.perf_counter()
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", "4",
                 "--target", "plcsim_cli", "perfbench_trace"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return time.perf_counter() - start


# ---------------------------------------------------------- processes

class Proc:
    """Wall time and rusage of one finished child process."""

    def __init__(self, wall, status, rusage):
        self.wall = wall
        self.status = status
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0


def run_proc(args, cwd, log_path):
    """Runs one program process to its end, timed from spawn to reap."""
    with open(log_path, "ab") as err:
        start = time.perf_counter()
        child = subprocess.Popen([str(a) for a in args], cwd=cwd,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _, status, rusage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, child.returncode, rusage)


def write_json(path, value):
    path.write_text(json.dumps(value, separators=(",", ":")))


def hex_seed(rng):
    return hex(rng.getrandbits(48))


# -------------------------------------------------------------- inputs

def registry_specs(work):
    """The registry's own specs of the sweep scenarios."""
    return {name: json.loads(subprocess.run(
        [str(PLCSIM), "scenario", name, "--dump-spec"], cwd=work, check=True,
        capture_output=True, text=True).stdout) for name in SWEEP_SCENARIOS}


def testbed_spec(seed):
    return {"schema": "plc-scenario/1", "name": "perfbench-testbed",
            "title": "perfbench testbed: CA1, N = 1..7",
            "macs": [CA1], "stations": TESTBED_STATIONS,
            "duration_ns": 1_000_000_000, "repetitions": 1, "seed": seed,
            "legs": {"sim": False, "model": False, "testbed": True,
                     "exact_pair": False},
            "testbed": {"tests": 1,
                        "duration_ns": TESTBED_SECONDS * 1_000_000_000}}


def exact_pair_spec(macs):
    return {"schema": "plc-scenario/1", "name": "perfbench-exact-pair",
            "macs": macs, "stations": [2], "duration_ns": 1_000_000_000,
            "repetitions": 1,
            "legs": {"sim": False, "model": False, "testbed": False,
                     "exact_pair": True}}


def make_rounds(workload, seed, registry):
    """Yields the specs of each round; round i is the same for every
    run with this seed, however many rounds a run reaches."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    while True:
        if workload == "testbed":
            yield [testbed_spec(hex_seed(rng))]
        elif workload == "sweep":
            yield [dict(registry[n], seed=hex_seed(rng))
                   for n in SWEEP_SCENARIOS]
        else:
            cold = []
            for name in SWEEP_SCENARIOS:
                base = registry[name]
                duration = int(base["duration_ns"] * SERVE_DURATION_SCALE)
                for model in (True, False):
                    cold.append(dict(
                        base, name=name if model else name + "-sim-only",
                        seed=hex_seed(rng), duration_ns=duration,
                        legs=dict(base["legs"], model=model)))
            warm = list(range(len(cold)))
            rng.shuffle(warm)
            yield cold + [cold[i] for i in warm]


# --------------------------------------------------------------- http

def http(port, method, path, body=b""):
    """One HTTP/1.1 request on a fresh connection (the daemon closes
    every connection after its response). Returns (status, body)."""
    with socket.create_connection(("127.0.0.1", port)) as conn:
        conn.sendall((f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                      f"Content-Length: {len(body)}\r\n"
                      "Connection: close\r\n\r\n").encode() + body)
        chunks = []
        while True:
            data = conn.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), payload


def proc_cpu_s(pid):
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the daemon")


class Spans:
    """In-memory spans of this process (name, start, end, parent), kept
    as Chrome trace events on the CLOCK_MONOTONIC timeline the traced
    tracer uses too."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.events = []
        self.stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        start = time.monotonic_ns() / 1000.0
        span_id = len(self.events)
        event = {"name": name, "ph": "X", "ts": start, "dur": 0.0,
                 "pid": os.getpid(), "tid": 1,
                 "args": {"id": span_id,
                          "parent": self.stack[-1] if self.stack else -1}}
        self.events.append(event)
        self.stack.append(span_id)
        try:
            yield
        finally:
            self.stack.pop()
            event["dur"] = time.monotonic_ns() / 1000.0 - start


class Daemon:
    """One `plcsim serve` process with a fresh store."""

    def __init__(self, work):
        with open(work / "daemon.log", "ab") as err:
            self.child = subprocess.Popen(
                [str(PLCSIM), "serve", "--port", "0", "--jobs", str(WORKERS),
                        "--max-queue", str(SERVE_MAX_QUEUE),
                        "--cache", str(work / "store"), "--json"],
                cwd=work, stdout=subprocess.PIPE, stderr=err, text=True)
        banner = json.loads(self.child.stdout.readline())
        self.port = banner["port"]
        while True:
            try:
                if http(self.port, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            time.sleep(0.001)

    def submit_and_fetch(self, body, poll_s, spans=None):
        """Closed-loop job: POST, poll to done, fetch the report."""
        spans = spans or Spans(enabled=False)
        start = time.perf_counter()
        with spans.span("serve.job"):
            with spans.span("serve.submit"):
                status, reply = http(self.port, "POST", "/v1/jobs", body)
            submitted = time.perf_counter()
            if status not in (200, 202):
                raise BenchError(f"submit refused: {status} {reply[:200]!r}")
            job_id = json.loads(reply)["id"]
            polls = 0
            while True:
                polls += 1
                with spans.span("serve.poll"):
                    status, reply = http(self.port, "GET", f"/v1/jobs/{job_id}")
                job = json.loads(reply)
                if job["state"] == "done":
                    break
                if job["state"] in ("failed", "cancelled"):
                    raise BenchError(f"job {job_id} {job['state']}: "
                                     f"{job.get('error', '')}")
                time.sleep(poll_s)
            with spans.span("serve.report"):
                status, report = http(self.port, "GET",
                                      f"/v1/jobs/{job_id}/report")
        if status != 200:
            raise BenchError(f"report of {job_id}: HTTP {status}")
        return {"latency": time.perf_counter() - start,
                "submit": submitted - start, "job": job, "polls": polls,
                "report": report}

    def stop(self):
        if self.child.poll() is None:
            self.child.send_signal(signal.SIGTERM)
            try:
                self.child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
        if self.child.returncode != 0:
            raise BenchError(f"daemon exited {self.child.returncode}")


# ------------------------------------------------------------ checks

def metric(report, name, **labels):
    for m in report["metrics"]:
        if m["name"] == name and m.get("labels", {}) == labels:
            return m["value"]
    raise BenchError(f"report has no metric {name} {labels}")


FAILED_CHECKS = []


def require(ok, what):
    """Records a failed output check; the run then reports correct=false."""
    if not ok:
        log("check failed: " + what)
        FAILED_CHECKS.append(what)


def check_testbed(report, exact):
    """MME counters vs the medium, monotone collisions, N=2 vs exact."""
    s = report["scalars"]
    p = {n: s[f"CA1.n{n}.testbed_collision_mean"] for n in TESTBED_STATIONS}
    require(s["CA1.n1.testbed_collided"] == 0, "N=1 has collisions")
    for n in TESTBED_STATIONS[1:-1]:
        attempts = s[f"CA1.n{n + 1}.testbed_acknowledged"]
        sigma = (2 * max(p[n], p[n + 1]) / attempts) ** 0.5
        require(p[n + 1] >= p[n] - MONOTONE_SIGMAS * sigma,
                f"collision probability falls from N={n} to N={n + 1}")
    require(p[7] > p[2] > 0, "collision probability does not rise with N")
    require(abs(p[2] - exact["CA1"]) <= EXACT_PAIR_TOL,
            f"testbed N=2 {p[2]:.4f} vs exact pair {exact['CA1']:.4f}")
    # Sum(Ai) counts every acknowledged MPDU, collided ones included;
    # the medium's counters also cover the warm-up the MME reset drops.
    mme_ack = sum(s[f"CA1.n{n}.testbed_acknowledged"] for n in TESTBED_STATIONS)
    mme_col = sum(s[f"CA1.n{n}.testbed_collided"] for n in TESTBED_STATIONS)
    med_col = metric(report, "medium.mpdus", outcome="collided")
    med_all = metric(report, "medium.mpdus", outcome="success") + med_col
    warm = TESTBED_WARMUP_S / (TESTBED_WARMUP_S + TESTBED_SECONDS)
    for mme, med, what in ((mme_ack, med_all, "sum(Ai)"),
                           (mme_col, med_col, "sum(Ci)")):
        share = (med - mme) / med
        require(mme <= med and abs(share - warm) <= WARMUP_SHARE_TOL,
                f"{what}={mme} vs medium {med}: share {share:.4f}, "
                f"warm-up {warm:.4f}")


@functools.lru_cache(maxsize=None)
def bianchi_dcf(n, cw_min, cw_max):
    """Freeze-corrected Bianchi fixed point (infinite retry): gamma and
    the per-event idle/success/collision probabilities."""
    def tau_of(gamma):
        num = den = 0.0
        weight, window = 1.0, cw_min
        per_slot = 1.0 / max(1.0 - gamma, 1e-12)
        for _ in range(4096):
            if weight <= 1e-16:
                break
            num += weight
            den += weight * (1.0 + (window - 1) / 2.0 * per_slot)
            weight *= gamma
            window = min(window * 2, cw_max)
        return num / den

    def gamma_of(tau):
        return 0.0 if n == 1 else 1.0 - (1.0 - tau) ** (n - 1)

    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tau_of(gamma_of(mid)) - mid > 0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return gamma_of(tau), event_probabilities(n, tau)


def event_probabilities(n, tau):
    idle = (1.0 - tau) ** n
    success = n * tau * (1.0 - tau) ** (n - 1)
    return idle, success, max(0.0, 1.0 - idle - success)


def throughput(spec, probs):
    t = spec["timing"]
    frame = spec["frame_length_ns"]
    idle, success, collision = probs
    event = (idle * t["slot_ns"]
             + success * (frame + t["success_overhead_ns"])
             + collision * (frame + t["collision_overhead_ns"]))
    return success * frame / event


def close(a, b, tol=MODEL_REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_model(spec, report, exact):
    """Model leg vs independent recomputation; N=2 sim vs exact pair."""
    s = report["scalars"]
    require(spec["timing"]["burst_gap_ns"] == 0, "burst gap is not 0")
    for mac in spec["macs"]:
        for n in spec["stations"]:
            key = f"{mac['label']}.n{n}."
            if key + "sim_collision_probability" in s and n == 2 \
                    and mac["label"] in exact:
                require(abs(s[key + "sim_collision_probability"]
                            - exact[mac["label"]]) <= EXACT_PAIR_TOL,
                        f"{spec['name']} {key}sim vs exact pair")
            if key + "model_throughput" not in s:
                continue
            gamma = s[key + "model_collision_probability"]
            if mac["type"] == "dcf":
                ref_gamma, probs = bianchi_dcf(n, mac["cw_min"], mac["cw_max"])
                require(close(gamma, ref_gamma), f"{key} DCF gamma")
            elif n >= 2:
                tau = 1.0 - (1.0 - gamma) ** (1.0 / (n - 1))
                probs = event_probabilities(n, tau)
            else:
                continue  # gamma = 0 at N = 1 does not determine tau
            require(close(s[key + "model_throughput"], throughput(spec, probs),
                          1e-6), f"{spec['name']} {key}model_throughput")
    if spec["name"] == "e21-boosted-cw" and spec["legs"]["model"]:
        boosted = next(m for m in spec["macs"] if m["type"] == "boosted-cw")
        n = boosted["target_stations"]
        require(s[f"{boosted['label']}.n{n}.model_throughput"]
                >= s[f"CA1.n{n}.model_throughput"],
                "boosted CW loses to CA1 at its target N")


def exact_pair_values(work, macs):
    """The exact N=2 chain per 1901 variant, computed by plcsim apart
    from the timed runs."""
    spec_path = work / "exact-pair.json"
    write_json(spec_path, exact_pair_spec(macs))
    if run_proc([PLCSIM, "scenario", spec_path, "--report",
                 work / "exact-pair.report.json"], work,
                work / "checks.log").status:
        raise BenchError("exact-pair run failed")
    s = json.loads((work / "exact-pair.report.json").read_text())["scalars"]
    return {m["label"]: s[f"{m['label']}.n2.exact_collision_probability"]
            for m in macs}


def exact_macs(rounds):
    macs = {}
    for spec in rounds[0]:
        if 2 in spec["stations"]:
            for mac in spec["macs"]:
                if mac["type"] == "1901":
                    macs.setdefault(mac["label"], mac)
    return list(macs.values())


# --------------------------------------------------------- workloads

def faster_half(walls):
    """Indices of the faster half of a run's rounds, in round order.
    On a shared host, other tenants slow this machine in spells of
    seconds to minutes that stretch every round they overlap; the
    timing metrics are taken over the rounds such a spell reached
    least, so one spell does not decide a run's figures."""
    order = sorted(range(len(walls)), key=lambda i: (walls[i], i))
    log("round walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    return sorted(order[:(len(walls) + 1) // 2])


def run_cli(workload, seed, seconds, work, registry):
    """testbed / sweep: one `plcsim scenario` process per spec."""
    source = make_rounds(workload, seed, registry)
    rounds = [next(source)]
    # Set-up: the cold validation of the round's specs, as a user would
    # check a spec before a long run (includes the boosted-cw search).
    for i, spec in enumerate(rounds[0]):
        path = work / f"validate{i}.json"
        write_json(path, spec)
        if run_proc([PLCSIM, "scenario", path, "--validate"], work,
                    work / "plcsim.log").status:
            raise BenchError(f"--validate failed on {spec['name']}")
    first_op = time.perf_counter()
    done = []
    attempted = failed = 0
    deadline = first_op + seconds
    while not done or time.perf_counter() < deadline:
        if len(rounds) == len(done):
            rounds.append(next(source))
        specs = rounds[len(done)]
        ops = []
        for i, spec in enumerate(specs):
            path = work / f"r{len(done)}-{i}.json"
            write_json(path, spec)
            attempted += 1
            proc = run_proc([PLCSIM, "scenario", path, "--jobs", WORKERS,
                             "--report", path.with_suffix(".report.json")],
                            work, work / "plcsim.log")
            failed += proc.status != 0
            ops.append(proc)
        done.append(ops)
    # Output checks, outside the timed window.
    exact = exact_pair_values(work, exact_macs(rounds))
    for r in range(len(done)):
        for i, spec in enumerate(rounds[r]):
            path = work / f"r{r}-{i}.report.json"
            if done[r][i].status:
                continue
            report = json.loads(path.read_text())
            if workload == "testbed":
                check_testbed(report, exact)
            else:
                check_model(spec, report, exact)
    walls = [sum(op.wall for op in ops) for ops in done]
    timed = [done[i] for i in faster_half(walls)]
    return {
        "attempted": attempted, "failed": failed,
        "wall_s": statistics.median(sum(op.wall for op in ops) for ops in timed),
        "cpu_s": statistics.median(sum(op.cpu for op in ops) for ops in timed),
        "peak_rss_mb": statistics.median(max(op.rss_mb for op in ops)
                                         for ops in done),
        "first_op": first_op,
        "latencies": [op.wall for ops in timed for op in ops],
    }


def run_serve(seed, seconds, work, registry, spans=None):
    """serve: one daemon, closed loop of jobs from this process. With
    `spans`, also probes /healthz at a fixed light rate and scrapes the
    daemon's store counters before it stops."""
    source = make_rounds("serve", seed, registry)
    rounds = []
    daemon = Daemon(work)
    probe = HealthProbe(daemon.port) if spans else None
    try:
        done = []
        attempted = failed = 0
        first_op = time.perf_counter()
        deadline = first_op + seconds
        cpu_before = proc_cpu_s(daemon.child.pid)
        hwm = None
        while not done or time.perf_counter() < deadline:
            round_start = time.perf_counter()
            jobs = []
            rounds.append(next(source))
            with (spans or Spans(enabled=False)).span("round"):
                for spec in rounds[-1]:
                    attempted += 1
                    body = json.dumps(spec, separators=(",", ":")).encode()
                    try:
                        jobs.append(daemon.submit_and_fetch(body, POLL_S, spans))
                    except BenchError as e:
                        log(str(e))
                        failed += 1
                        jobs.append(None)
            cpu_after = proc_cpu_s(daemon.child.pid)
            done.append({"wall": time.perf_counter() - round_start,
                         "cpu": cpu_after - cpu_before, "jobs": jobs})
            cpu_before = cpu_after
            if len(done) == SERVE_RSS_ROUNDS:
                hwm = proc_hwm_mb(daemon.child.pid)
        if hwm is None:
            hwm = proc_hwm_mb(daemon.child.pid)
        store = scrape_store(daemon.port) if spans else {}
    finally:
        if probe:
            probe.stop()
        daemon.stop()
    check_served(rounds, done, work)
    jobs = [j for d in done for j in d["jobs"] if j is not None]
    timed = [done[i] for i in faster_half([d["wall"] for d in done])]
    return {
        "attempted": attempted, "failed": failed,
        "wall_s": statistics.median(d["wall"] for d in timed),
        "cpu_s": statistics.median(d["cpu"] for d in timed),
        "peak_rss_mb": hwm, "first_op": first_op,
        "latencies": [j["latency"] for d in timed for j in d["jobs"]
                      if j is not None],
        "jobs": jobs,
        "rounds": rounds, "store": store,
        "healthz": probe.samples if probe else [],
    }


class HealthProbe:
    """GET /healthz every HEALTHZ_PERIOD_S from a thread of its own."""

    def __init__(self, port):
        self.port = port
        self.samples = []
        self.halt = threading.Event()
        self.thread = threading.Thread(target=self.loop)
        self.thread.start()

    def loop(self):
        while not self.halt.wait(HEALTHZ_PERIOD_S):
            start = time.perf_counter()
            if http(self.port, "GET", "/healthz")[0] == 200:
                self.samples.append(time.perf_counter() - start)

    def stop(self):
        self.halt.set()
        self.thread.join()


def scrape_store(port):
    status, text = http(port, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"/metrics: HTTP {status}")
    values = {}
    for line in text.decode().splitlines():
        name, _, value = line.partition(" ")
        if name.startswith("plc_store_"):
            values[name[len("plc_store_"):]] = float(value)
    return values


def check_served(rounds, done, work):
    """Every cold report equals `plcsim scenario --report` run apart;
    every warm re-submission returns the cold bytes from store hits."""
    cold_runs = []
    for r, d in enumerate(done):
        cold = {}
        for i, (spec, job) in enumerate(zip(rounds[r], d["jobs"])):
            if job is None:
                continue
            key = json.dumps(spec, sort_keys=True)
            if key not in cold:
                cold[key] = job
                path = work / f"s{r}-{i}.json"
                write_json(path, spec)
                cold_runs.append((spec, job, path))
                check_model(spec, json.loads(job["report"]), {})
            else:
                require(job["report"] == cold[key]["report"],
                        f"warm {spec['name']} differs from its cold run")
                require(job["job"]["store_misses"] == 0,
                        f"warm {spec['name']} missed the store")

    def cli_report(path):
        # A store of its own: served reports carry the store's
        # provenance section, and a CLI run with --cache does too.
        out = path.with_suffix(".report.json")
        proc = run_proc([PLCSIM, "scenario", path, "--jobs", 1, "--report",
                         out, "--cache", work / "check-store"], work,
                        work / "checks.log")
        return out.read_bytes() if proc.status == 0 else None

    with ThreadPoolExecutor(WORKERS) as pool:
        for (spec, job, _), cli in zip(
                cold_runs, pool.map(cli_report, [c[2] for c in cold_runs])):
            require(cli == job["report"],
                    f"served {spec['name']} differs from the CLI report")


# ------------------------------------------------------------ traced

PER_LAYER = [
    ("traced.run_wall_s", "s"),
    ("scenario.parse_ms", "ms"), ("scenario.run_s", "s"),
    ("obs.report_serialize_ms", "ms"),
    ("analysis.solves", "count"), ("analysis.solve_ms_mean", "ms"),
    ("analysis.window_search_ms", "ms"),
    ("sim.run_points_s", "s"), ("sim.task_cpu_s", "s"),
    ("sim.parallel_efficiency", "ratio"), ("sim.events", "count"),
    ("sim.ns_per_event.event_kernel", "ns"),
    ("sim.ns_per_event.slot_kernel", "ns"),
] + [(f"tools.testbed_run_s.n{n}", "s") for n in TESTBED_STATIONS] + [
    ("des.events_dispatched", "count"), ("des.ns_per_event", "ns"),
    ("medium.events.idle", "count"), ("medium.events.success", "count"),
    ("medium.events.collision", "count"), ("medium.idle_share", "ratio"),
    ("testbed.sim_s_per_cpu_s", "s/s"), ("testbed.peak_rss_mb.n7", "MB"),
    ("store.hits", "count"), ("store.misses", "count"),
    ("store.publishes", "count"), ("store.bytes_written", "B"),
    ("store.hit_ratio", "ratio"), ("store.warm_run_ms", "ms"),
    ("serve.submit_ms_p50", "ms"), ("serve.job_wall_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"), ("serve.polls_per_job", "count"),
    ("serve.healthz_ms_p50", "ms"), ("serve.healthz_ms_p90", "ms"),
]
# Rounds handed to the tracer; it stops at the first round
# boundary after --seconds.
TRACE_ROUNDS = {"testbed": 40, "sweep": 200}
OP_SPANS = ("scenario.parse", "scenario.run", "store.warm_run",
            "obs.report_serialize")


def per_round_op_seconds(events):
    """Sum of each round's parse/run/serialize spans, the in-process
    counterpart of the untraced wall_s."""
    by_id = {e["args"]["id"]: e for e in events}
    totals = {}
    for e in events:
        if e["name"] not in OP_SPANS:
            continue
        root = e
        while root["args"]["parent"] >= 0:
            root = by_id[root["args"]["parent"]]
        totals[root["args"]["id"]] = totals.get(root["args"]["id"], 0.0) \
            + e["dur"] / 1e6
    return list(totals.values())


def serve_layers(result):
    """serve.* and store.* figures of one run_serve result."""
    jobs = result["jobs"]
    walls = [j["job"]["wall_seconds"] for j in jobs]
    rounds = len(result["rounds"])
    store = result["store"]
    values = {
        "serve.submit_ms_p50": 1e3 * statistics.median(j["submit"] for j in jobs),
        "serve.job_wall_ms_p50": 1e3 * statistics.median(walls),
        "serve.overhead_ms_p50": 1e3 * statistics.median(
            j["latency"] - w for j, w in zip(jobs, walls)),
        "serve.polls_per_job": statistics.mean(j["polls"] for j in jobs),
        "serve.healthz_ms_p50": 1e3 * statistics.median(result["healthz"]),
        "serve.healthz_ms_p90": 1e3 * percentile(result["healthz"], 90),
        "store.hit_ratio": store["hits"] / max(1.0, store["hits"]
                                               + store["misses"]),
    }
    for key in ("hits", "misses", "publishes", "bytes_written"):
        values["store." + key] = store[key] / rounds
    return values


def run_tracer(mode, rounds, seconds, work, name):
    """perfbench_trace over `rounds`; returns (layers, spans, reports)."""
    path = work / f"{name}.jsonl"
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n"
                            for r in rounds))
    out = work / name
    if run_proc([TRACER, "rounds", mode, path, seconds, WORKERS, out], work,
                work / "tracer.log").status:
        raise BenchError("tracer failed; see tracer.log")
    layers = json.loads(Path(f"{out}.layers.json").read_text())
    spans = json.loads(Path(f"{out}.spans.json").read_text())
    reports = [[Path(f"{out}.r{r}-{i}.report.json").read_bytes()
                for i in range(len(rounds[r]))]
               for r in range(layers["rounds"])]
    return layers, spans, reports


def probe_round(seed, registry):
    """One small round that reaches every in-process layer: a 1 s per N
    testbed, e21 (window search, model leg, event kernel), e20 (slot
    kernel) and a sim-only spec twice (the second run is warm)."""
    rng = random.Random(f"perfbench/probe/{seed}")

    def scaled(name, model):
        base = registry[name]
        return dict(base, seed=hex_seed(rng),
                    duration_ns=int(base["duration_ns"] * SERVE_DURATION_SCALE),
                    legs=dict(base["legs"], model=model))

    testbed = dict(testbed_spec(hex_seed(rng)), name="perfbench-probe",
                   testbed={"tests": 1, "duration_ns": 1_000_000_000})
    sim_only = scaled("e8-boosting", False)
    return [testbed, scaled("e21-boosted-cw", True),
            scaled("e20-mac-observatory", True), sim_only, sim_only]


def run_traced(args, work, registry):
    """--trace 1: the workload's rounds through perfbench_trace (serve:
    the daemon loop with client spans and a /healthz probe, then round 0
    in-process). Layers the workload does not reach are measured on a
    small probe in the same run, so every metric is a measurement.
    Returns the per-layer metrics; writes one Chrome-trace file."""
    spans = Spans()
    values = {name: 0.0 for name, _ in PER_LAYER}
    attempted = failed = 0
    if args.workload == "serve":
        served = run_serve(args.seed, args.seconds, work, registry, spans)
        attempted, failed = served["attempted"], served["failed"]
        values.update(serve_layers(served))
        values["traced.run_wall_s"] = served["wall_s"]
        rounds = served["rounds"][:1]
        layers, events, reports = run_tracer("serve", rounds, 0, work, "trace")
        for i, job in enumerate(served["jobs"][:len(reports[0])]):
            require(job is None or reports[0][i] == job["report"],
                    f"in-process report {i} differs from the served one")
    else:
        source = make_rounds(args.workload, args.seed, registry)
        rounds = [next(source) for _ in range(TRACE_ROUNDS[args.workload])]
        layers, events, reports = run_tracer(args.workload, rounds,
                                             args.seconds, work, "trace")
        per_round = per_round_op_seconds(events)
        values["traced.run_wall_s"] = statistics.median(
            per_round[i] for i in faster_half(per_round))
        exact = exact_pair_values(work, exact_macs(rounds))
        for specs, texts in zip(rounds, reports):
            for spec, text in zip(specs, texts):
                if args.workload == "testbed":
                    check_testbed(json.loads(text), exact)
                else:
                    check_model(spec, json.loads(text), exact)
        with spans.span("probe.serve"):
            values.update(serve_layers(
                run_serve(args.seed, 0, work, registry, Spans())))
    attempted += layers["operations"]
    for name in values:
        if name in layers and not values[name]:
            values[name] = layers[name]

    probe = probe_round(args.seed, registry)
    probe_layers, probe_events, probe_reports = run_tracer(
        "serve", [probe], 0, work, "probe")
    for spec, text in zip(probe[1:3], probe_reports[0][1:3]):
        check_model(spec, json.loads(text), {})
    for name in values:
        if name in probe_layers and not values[name]:
            values[name] = probe_layers[name]
    rss_spec = rounds[0][0] if args.workload == "testbed" else probe[0]
    write_json(work / "n7.json", rss_spec)
    proc = run_proc([TRACER, "testbed-one", work / "n7.json", 7], work,
                    work / "tracer.log")
    if proc.status:
        raise BenchError("testbed-one failed")
    values["testbed.peak_rss_mb.n7"] = proc.rss_mb

    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    trace_path = traces / f"{args.workload}-seed{args.seed}.trace.json"
    trace_path.write_text(json.dumps({
        "traceEvents": events + probe_events + spans.events,
        "displayTimeUnit": "ms"}))
    log(f"wrote {trace_path}")
    units = dict(PER_LAYER)
    return ({"attempted": attempted, "failed": failed},
            {name: (values[name], units[name]) for name in values})


# ---------------------------------------------------------------- main

def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result, build_s):
    lat_ms = [x * 1000.0 for x in result["latencies"]]
    return {
        "wall_s": (result["wall_s"], "s"),
        "cpu_s": (result["cpu_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (result["first_op"] - T_START - build_s, "s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (percentile(lat_ms, 90) if len(lat_ms) > 1
                       else lat_ms[0], "ms"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["testbed", "sweep", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build_s = build()
    except BenchError as e:
        log(str(e))
        return 2
    work = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        registry = registry_specs(work)
        if args.trace:
            result, metrics = run_traced(args, work, registry)
        elif args.workload == "serve":
            result = run_serve(args.seed, args.seconds, work, registry)
            metrics = end_to_end(result, build_s)
        else:
            result = run_cli(args.workload, args.seed, args.seconds, work,
                             registry)
            metrics = end_to_end(result, build_s)
    except (BenchError, OSError, subprocess.CalledProcessError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not FAILED_CHECKS, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
