#!/usr/bin/env python3
"""Benchmark of what a microbrowse user waits on.

    python3 perfbench/run.py --workload cold_pairs|warm_mix|train_pipeline \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The first run configures and builds
the repository's mbctl and mbserved, plus the benchmark's own load client
(pb_client) and in-process probe (pb_probe), under .bench_build/. Every run
then drives the real binaries from outside:

  cold_pairs      sibling pairs of a seeded corpus, both argument orders, plus
                  one predict_ctr per creative, against a server whose result
                  caches are smaller than the request set (every request is a
                  miss); closed loop, one request in flight per connection.
  warm_mix        a seeded working set well inside the default caches, sent
                  once to warm them, then pipelined (every request is a hit).
  train_pipeline  the README operator flow, repeated: generate -> stats ->
                  train -> pack -> mbserved start -> first scored response,
                  then held-out pairs are scored over the socket.

The last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics". --trace 0 reports the end-to-end
metrics; --trace 1 repeats the measured phase with client spans on, times
each module's public functions with pb_probe, and reports the per-layer
metrics. Spans, per-layer metrics and both phases' end-to-end numbers are
written to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time


def _process_start_monotonic():
    """Monotonic time at which this process started (10 ms resolution)."""
    now = time.monotonic()
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
        return now - max(0.0, age)
    except (OSError, ValueError, IndexError):
        return now


T0 = _process_start_monotonic()

BUILD_DIR = os.path.join(".bench_build", "cmake")
WORK_ROOT = os.path.join(".bench_build", "runs")
TRACE_DIR = os.path.join(".bench_build", "traces")
BINARIES = {
    "mbctl": os.path.join(BUILD_DIR, "tools", "mbctl"),
    "mbserved": os.path.join(BUILD_DIR, "tools", "mbserved"),
    "pb_client": os.path.join(BUILD_DIR, "pb_client"),
    "pb_probe": os.path.join(BUILD_DIR, "pb_probe"),
}

# Every model is trained from a fixed-seed corpus: the serving workloads
# score against the same bundle in every run, and each train_pipeline pass
# does the same work, so a run's cost does not move with the seed's corpus
# (the cost of a 150-adgroup pass differs by ~20% from seed to seed).
# --seed picks the traffic: the request corpora and the held-out pairs.
TRAIN_SEED = 7
# A fixed set of sibling pairs is scored in both orders in every cold round.
# Pairs whose verdict names the same creative in both orders count as failed
# (the order-dependence fault); seed-independent inputs keep the failed
# share identical in every run.
ORDER_SEED = 8
# Served verdicts must agree with the order of observed CTRs on more than
# this share of pair requests (chance is 0.5).
VERDICT_FLOOR = 0.52
SERVER_THREADS = 2

FULL = {
    # Every model: a 150-adgroup corpus of TRAIN_SEED. The serving set-up
    # runs the README pass setup_passes times and serves the last bundle.
    "train_adgroups": 150,
    "setup_passes": 3,
    "order_adgroups": 60,
    # A cold round: 1000 predict_ctr, the fixed order-check pairs (214 pairs
    # from 60 adgroups) and 1200 seeded pairs, each pair in both orders. The
    # 512-entry caches hold an eighth of a round, so every request misses.
    "cold_adgroups": 450,
    "cold_pairs": 1200,
    "cold_predicts": 1000,
    "cold_cache": 512,
    "cold_conns": 2,
    "cold_segment": 1000,
    # Requests re-scored in process and re-sent at the end of a cold run; at
    # most the per-shard capacity of the 16-shard pair cache, so all stay.
    "rescore_sample": 32,
    # A warm round: 500 pairs in both orders and 400 predict_ctr.
    "warm_adgroups": 200,
    "warm_pairs": 500,
    "warm_predicts": 400,
    "warm_conns": 2,
    "warm_window": 16,
    "warm_segment": 2000,
    # After each README pass, a fresh server scores 1200 held-out sibling
    # pairs in both orders and 750 predict_ctr: three latency segments, the
    # first of which also pays the server's first-contact costs.
    "heldout_adgroups": 450,
    "timing_pairs": 1200,
    "timing_predicts": 750,
    "pipe_segment": 1000,
    "probe_pairs": 300,
    "probe_requests": 600,
}
# Short runs for the benchmark's own tests: the same models, fewer requests.
SMOKE = dict(FULL, setup_passes=1, order_adgroups=20, cold_adgroups=150, cold_pairs=400,
             cold_predicts=300, cold_cache=128, cold_segment=200, rescore_sample=8,
             warm_adgroups=30, warm_pairs=60, warm_predicts=60, warm_segment=100,
             pipe_segment=200, timing_pairs=400, timing_predicts=200, probe_pairs=20,
             probe_requests=40)


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer from the program)."""


class Timeout(Exception):
    pass


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Processes


class Processes:
    """Starts every child of a run, and stops and reaps each one."""

    def __init__(self, log_path):
        self.log = open(log_path, "ab")
        self.live = []

    def step(self, args):
        """Runs one program to its end; returns (exit code, peak RSS in KiB)."""
        proc = subprocess.Popen(args, stdout=self.log, stderr=self.log)
        self.live.append(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss

    def output(self, args):
        """Runs one program to its end; returns its standard output."""
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=self.log)
        self.live.append(proc)
        out, _ = proc.communicate()
        self.live.remove(proc)
        if proc.returncode != 0:
            raise BenchError("%s exited %d" % (args[0], proc.returncode))
        return out.decode()

    def start(self, args):
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=self.log)
        self.live.append(proc)
        return proc

    def stop(self, proc):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout:
            proc.stdout.close()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self):
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout:
                proc.stdout.close()
        self.live = []
        self.log.close()


def build():
    """Configures and builds the four binaries; returns seconds spent."""
    start = time.monotonic()
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "ab") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                                 stdout=out, stderr=out)
            if rc != 0:
                raise BenchError("cmake configure failed; see " + log_path)
        rc = subprocess.call(["cmake", "--build", BUILD_DIR, "-j", "4", "--target"]
                             + list(BINARIES), stdout=out, stderr=out)
        if rc != 0:
            raise BenchError("build failed; see " + log_path)
    return time.monotonic() - start


# ---------------------------------------------------------------------------
# Inputs


def read_corpus(path):
    """Adgroups of an mbctl corpus TSV: lists of (wire snippet, observed CTR)."""
    groups = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            cells = line.rstrip("\n").split("\t")
            impressions, clicks = int(cells[4]), int(cells[5])
            wire = "|".join(part.strip() for part in cells[7].split("|"))
            groups.setdefault(cells[0], []).append((wire, clicks / max(1, impressions)))
    return list(groups.values())


def score_pair_line(a, b):
    return json.dumps({"type": "score_pair", "a": a, "b": b}, separators=(",", ":"))


def predict_line(snippet):
    return json.dumps({"type": "predict_ctr", "snippet": snippet}, separators=(",", ":"))


def sibling_requests(groups, pairs=None, predicts=None):
    """Sibling pairs in both argument orders, and predict_ctr requests.

    Takes the first `pairs` sibling pairs and the first `predicts` creatives
    in corpus order (all of them when None), so a round has the same number
    of requests whatever the seed. Returns (pair lines, pair facts, predict
    lines); pair facts are (index of the (a, b) line, index of the (b, a)
    line, +1/-1/0 order of a's observed CTR over b's)."""
    pair_lines, facts, predict_lines = [], [], []
    for group in groups:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                (a, ctr_a), (b, ctr_b) = group[i], group[j]
                facts.append((len(pair_lines), len(pair_lines) + 1,
                              (ctr_a > ctr_b) - (ctr_a < ctr_b)))
                pair_lines += [score_pair_line(a, b), score_pair_line(b, a)]
        predict_lines += [predict_line(snippet) for snippet, _ in group]
    if pairs is not None:
        if len(facts) < pairs:
            raise BenchError("corpus holds %d sibling pairs, %d needed" % (len(facts), pairs))
        facts, pair_lines = facts[:pairs], pair_lines[:2 * pairs]
    if predicts is not None:
        if len(predict_lines) < predicts:
            raise BenchError("corpus holds %d creatives, %d needed"
                             % (len(predict_lines), predicts))
        predict_lines = predict_lines[:predicts]
    return pair_lines, facts, predict_lines


def cross_pair(groups):
    """A score_pair of creatives from the first and last adgroups: not a
    sibling pair, so it is in no request set and leaves no cache hit."""
    return {"type": "score_pair", "a": groups[0][0][0], "b": groups[-1][0][0]}


def offset_facts(facts, offset):
    return [(i + offset, j + offset, order) for i, j, order in facts]


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def pair_of(line):
    request = json.loads(line)
    return request["a"], request["b"]


# ---------------------------------------------------------------------------
# Checks. Each returns a list of problems; an empty list means it passed.


def bits(value):
    return struct.pack("<d", float(value))


def check_client(summary, expect_hits):
    """Answers the load client checked itself on every response."""
    problems = []
    if summary["id_mismatch"]:
        problems.append("%d responses echoed the wrong request id" % summary["id_mismatch"])
    if summary["value_mismatch"]:
        problems.append("%d answers differ from the first answer to the same request"
                        % summary["value_mismatch"])
    if expect_hits and summary["misses"]:
        problems.append("%d measured requests missed a warmed cache" % summary["misses"])
    return problems


def verdict_agreement(facts, winners):
    """Share of pair requests whose winner names the higher observed CTR."""
    agree = total = 0
    for i, j, order in facts:
        if order == 0:
            continue
        total += 2
        agree += (winners[i] == "a") == (order > 0)
        agree += (winners[j] == "b") == (order > 0)
    return agree / total if total else 0.0


def check_agreement(facts, winners, floor=VERDICT_FLOOR):
    rate = verdict_agreement(facts, winners)
    if rate <= floor:
        return ["verdicts agree with observed CTR order on %.4f of pairs, floor %.2f"
                % (rate, floor)]
    return []


def order_dependent_pairs(facts, winners):
    """Pairs whose verdict depends on argument order: both orders answer with
    the same label, so a different creative wins in each."""
    return sum(1 for i, j, _ in facts if winners[i] == winners[j])


def check_bitwise(served, local, what):
    bad = [k for k, (s, l) in enumerate(zip(served, local)) if bits(s) != bits(l)]
    if len(served) != len(local):
        return ["%s: %d served values against %d local" % (what, len(served), len(local))]
    if bad:
        return ["%s: %d of %d values differ (first at %d: %r vs %r)"
                % (what, len(bad), len(served), bad[0], served[bad[0]], local[bad[0]])]
    return []


def check_resend(summary):
    """The re-sent sample returns its earlier values, marked as cache hits."""
    problems = []
    values = summary["values"]
    for entry in summary["resend"]:
        if entry["cache"] != "hit":
            problems.append("re-sent request %d was not a cache hit" % entry["index"])
        elif bits(entry["value"]) != bits(values[entry["index"]]):
            problems.append("re-sent request %d changed value" % entry["index"])
    return problems


def check_same_artifacts(passes):
    problems = []
    for k, digests in enumerate(passes[1:], start=2):
        for name, digest in digests.items():
            if digest != passes[0][name]:
                problems.append("pass %d wrote a different %s" % (k, name))
    return problems


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# Server and client


def rpc(port, request, timeout=30.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise BenchError("server closed the connection")
            data += chunk
    return json.loads(data)


def vm_hwm_mib(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Server:
    def __init__(self, procs, model, stats, cache=None):
        args = [BINARIES["mbserved"], "--model", model, "--stats", stats, "--port", "0",
                "--threads", str(SERVER_THREADS)]
        if cache is not None:
            args += ["--cache-capacity", str(cache)]
        self.procs = procs
        self.proc = procs.start(args)
        line = self.proc.stdout.readline().decode()
        if "listening on port" not in line:
            procs.stop(self.proc)
            raise BenchError("mbserved did not start: %r" % line)
        self.port = int(line.split("listening on port")[1].split()[0])

    def wait_ready(self):
        for _ in range(500):
            if rpc(self.port, {"type": "readyz"}).get("ok"):
                return
            time.sleep(0.01)
        raise BenchError("mbserved never became ready")

    def statsz(self):
        return rpc(self.port, {"type": "statsz"})

    def peak_rss_mib(self):
        return vm_hwm_mib(self.proc.pid)

    def stop(self):
        self.procs.stop(self.proc)


def run_client(procs, work, port, requests_path, tag, conns, window, segment,
               seconds=None, rounds=None, resend=0, trace=False):
    out = os.path.join(work, tag + ".summary.json")
    args = [BINARIES["pb_client"], "--port", str(port), "--requests", requests_path,
            "--out", out, "--conns", str(conns), "--window", str(window),
            "--segment", str(segment), "--resend-last", str(resend)]
    args += ["--seconds", str(seconds)] if seconds else ["--rounds", str(rounds)]
    if trace:
        args += ["--trace-out", os.path.join(work, tag + ".spans.json")]
    rc, _ = procs.step(args)
    if rc != 0:
        raise BenchError("pb_client exited %d" % rc)
    with open(out) as f:
        return json.load(f)


def latency_metrics(segments):
    """Rate and percentiles as medians over the segments of a phase."""
    if not segments:
        raise BenchError("the measured phase completed no whole segment")
    return {
        "requests_per_s": median([s["n"] / s["dur_s"] for s in segments]),
        "latency_p50_ms": median([s["p50_us"] for s in segments]) / 1e3,
        "latency_p99_ms": median([s["p99_us"] for s in segments]) / 1e3,
    }


def statsz_layers(statsz, client_p50_ms):
    """Per-layer serving metrics read from statsz after the measured phase."""
    endpoints = statsz["endpoints"]
    served = [endpoints[e] for e in ("score_pair", "predict_ctr") if e in endpoints]
    total = sum(e["requests"] for e in served) or 1
    p50_us = sum(e["latency_p50_ms"] * e["requests"] for e in served) / total * 1e3
    p99_us = max(e["latency_p99_ms"] for e in served) * 1e3 if served else 0.0
    caches = [statsz["pair_cache"], statsz["point_cache"]]
    lookups = sum(c["hits"] + c["misses"] for c in caches) or 1
    return {
        "serve.service_p50_us": p50_us,
        "serve.service_p99_us": p99_us,
        "serve.transport_us": client_p50_ms * 1e3 - p50_us,
        "serve.cache_hit_ratio": sum(c["hits"] for c in caches) / lookups,
        "serve.cache_evictions": float(sum(c["evictions"] for c in caches)),
        "serve.batch_size_mean": float(endpoints.get("batch_size_mean", 0.0)),
        "serve.steal_count": float(endpoints["steal_count"]),
        "serve.refused": float(endpoints["rejected_overload"] + endpoints["deadline_exceeded"]),
    }


# ---------------------------------------------------------------------------
# Workloads


class Run:
    def __init__(self, args, sizes, work, procs, build_s):
        self.args = args
        self.sizes = sizes
        self.work = work
        self.procs = procs
        self.build_s = build_s
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.spans = []
        self.phases = {}
        self.passes = []
        self.probe_spans = []

    def path(self, name):
        return os.path.join(self.work, name)

    def span(self, name, start, end, parent=0):
        self.spans.append({"name": name, "start_s": start - T0, "end_s": end - T0,
                           "id": len(self.spans) + 1, "parent": parent})
        return len(self.spans)

    def setup_s(self):
        return time.monotonic() - T0 - self.build_s

    def generate(self, name, seed, adgroups):
        path = self.path(name)
        rc, _ = self.procs.step([BINARIES["mbctl"], "generate", "--out", path,
                                 "--adgroups", str(adgroups), "--seed", str(seed)])
        if rc != 0:
            raise BenchError("mbctl generate exited %d" % rc)
        return read_corpus(path)

    def rescore(self, model, stats, lines):
        pairs = self.path("rescore.tsv")
        write_lines(pairs, ["\t".join(pair_of(line)) for line in lines])
        out = self.procs.output([BINARIES["pb_probe"], "rescore", "--model", model,
                                 "--stats", stats, "--pairs", pairs])
        return [float(x) for x in out.split()]

    def readme_pass(self, first_request, cache=None, measured=False):
        """One README operator pass: generate -> stats -> train -> pack
        (stats, model) -> mbserved start -> first scored response. Returns
        the running server. In a measured pass each step is an operation; a
        set-up pass that fails ends the run."""
        work = self.path("pass%d" % (len(self.passes) + 1))
        os.makedirs(work)
        start = time.monotonic()
        parent = self.span("readme.pass", start, start)
        peak_kib = 0
        steps = [
            ("generate", ["--out", "corpus.tsv", "--adgroups", str(self.sizes["train_adgroups"]),
                          "--seed", str(TRAIN_SEED)]),
            ("stats", ["--corpus", "corpus.tsv", "--out", "stats.tsv"]),
            ("train", ["--corpus", "corpus.tsv", "--out", "model.txt"]),
            ("pack", ["--stats", "stats.tsv", "--out", "stats.mbp"]),
            ("pack", ["--model", "model.txt", "--out", "model.mbp"]),
        ]
        for name, step_args in steps:
            step_start = time.monotonic()
            rc, rss = self.procs.step([BINARIES["mbctl"], name] + [
                os.path.join(work, a) if "." in a else a for a in step_args])
            self.span("mbctl." + name, step_start, time.monotonic(), parent)
            self.attempted += measured
            peak_kib = max(peak_kib, rss)
            if rc != 0:
                self.failed += measured
                raise BenchError("mbctl %s exited %d" % (name, rc))
        step_start = time.monotonic()
        self.attempted += 2 * measured  # Server start and first score.
        server = Server(self.procs, os.path.join(work, "model.mbp"),
                        os.path.join(work, "stats.mbp"), cache=cache)
        first = rpc(server.port, first_request)
        end = time.monotonic()
        self.span("mbserved.first_score", step_start, end, parent)
        self.spans[parent - 1]["end_s"] = end - T0
        if not first.get("ok"):
            self.failed += measured
            server.stop()
            raise BenchError("first score failed: %r" % first)
        local = self.rescore(os.path.join(work, "model.txt"), os.path.join(work, "stats.tsv"),
                             [json.dumps(first_request)])
        self.problems += check_bitwise([first["margin"]], local,
                                       "first score through packs against TSV artifacts")
        digests = {name: digest(os.path.join(work, name))
                   for name in ("corpus.tsv", "stats.tsv", "model.txt", "stats.mbp",
                                "model.mbp")}
        self.passes.append({"pass_s": end - start, "peak_kib": peak_kib, "digests": digests,
                            "work": work})
        self.problems += check_same_artifacts([p["digests"] for p in self.passes])
        return server

    def bundle(self):
        work = self.passes[0]["work"]
        return (os.path.join(work, "corpus.tsv"), os.path.join(work, "model.mbp"),
                os.path.join(work, "stats.mbp"))

    def drop_pass_files(self):
        """Later passes wrote the same bytes as the first (checked); only the
        first pass's artifacts are kept."""
        if len(self.passes) > 1:
            shutil.rmtree(self.passes[-1]["work"])

    def serve(self, first_request, cache=None):
        """Serving set-up: README passes; the last one's server stays up."""
        server = None
        for _ in range(self.sizes["setup_passes"]):
            if server:
                server.stop()
                self.drop_pass_files()
            server = self.readme_pass(first_request, cache)
        server.wait_ready()
        self.pipeline_s = median([p["pass_s"] for p in self.passes])
        return server

    def probe_layers(self, lines):
        """pb_probe's per-layer timings on this workload's inputs."""
        corpus, model, stats = self.bundle()
        pair_lines = [l for l in lines if '"score_pair"' in l][: self.sizes["probe_pairs"]]
        write_lines(self.path("probe_pairs.tsv"), ["\t".join(pair_of(l)) for l in pair_lines])
        step = max(1, len(lines) // self.sizes["probe_requests"])
        write_lines(self.path("probe_requests.jsonl"), lines[::step])
        out, spans = self.path("layers.json"), self.path("probe.spans.json")
        self.procs.output([BINARIES["pb_probe"], "layers", "--corpus", corpus,
                           "--adgroups", str(self.sizes["train_adgroups"]),
                           "--seed", str(TRAIN_SEED), "--model", model, "--stats", stats,
                           "--pairs", self.path("probe_pairs.tsv"),
                           "--requests", self.path("probe_requests.jsonl"),
                           "--scratch", self.work, "--out", out, "--spans", spans])
        with open(out) as f:
            layers = json.load(f)
        with open(spans) as f:
            self.probe_spans = json.load(f)["spans"]
        return layers

    def account(self, summary, extra_failed=0):
        self.attempted += summary["sent"]
        self.failed += summary["ok_false"] + summary["broken"] + extra_failed
        if summary["resend_failed"]:
            raise BenchError("%d re-sent requests failed" % summary["resend_failed"])
        for error, count in summary["errors"].items():
            log("%d requests refused or failed: %s" % (count, error))

    def measure_twice(self, measure):
        """Measured phase; a traced run repeats it with tracing on."""
        if not self.args.trace:
            return measure(False)
        self.phases["untraced"] = dict(measure(False))
        self.phases["traced"] = dict(measure(True))
        base, traced = self.phases["untraced"], self.phases["traced"]
        self.phases["overhead"] = {k: traced[k] / base[k] - 1 for k in base if base[k]}
        return dict(traced)

    def finish(self, metrics, server, setup, lines):
        """Adds the set-up metrics; a traced run returns per-layer metrics."""
        metrics.update(setup_s=setup, pipeline_s=self.pipeline_s)
        if not self.args.trace:
            server.stop()
            return metrics
        layers = statsz_layers(server.statsz(), metrics["latency_p50_ms"])
        server.stop()
        layers.update(self.probe_layers(lines))
        return layers

    # -- cold_pairs ---------------------------------------------------------

    def cold_pairs(self):
        s = self.sizes
        order_pairs, order_facts, _ = sibling_requests(
            self.generate("order.tsv", ORDER_SEED, s["order_adgroups"]))
        groups = self.generate("requests.tsv", self.args.seed, s["cold_adgroups"])
        seeded_pairs, seeded_facts, predicts = sibling_requests(groups, s["cold_pairs"],
                                                                s["cold_predicts"])
        # Round order: pointwise requests, the fixed order-check pairs, then
        # the seeded pairs, so the re-sent sample at the end is seeded.
        lines = predicts + order_pairs + seeded_pairs
        order_facts = offset_facts(order_facts, len(predicts))
        seeded_facts = offset_facts(seeded_facts, len(predicts) + len(order_pairs))
        requests = self.path("cold.jsonl")
        write_lines(requests, lines)
        server = self.serve(cross_pair(groups), cache=s["cold_cache"])
        setup = self.setup_s()
        _, model, stats = self.bundle()

        def measure(trace):
            summary = run_client(self.procs, self.work, server.port, requests,
                                 "cold-trace" if trace else "cold", s["cold_conns"], 1,
                                 s["cold_segment"], seconds=self.args.seconds,
                                 resend=s["rescore_sample"], trace=trace)
            peak = server.peak_rss_mib()
            winners = summary["winners"]
            bad_orders = order_dependent_pairs(order_facts, winners)
            self.account(summary, extra_failed=2 * bad_orders * summary["rounds"])
            log("cold: %d rounds of %d requests; %d of %d fixed pairs and %d of %d seeded "
                "pairs name one winner in both orders; verdict agreement %.4f"
                % (summary["rounds"], len(lines), bad_orders, len(order_facts),
                   order_dependent_pairs(seeded_facts, winners), len(seeded_facts),
                   verdict_agreement(seeded_facts, winners)))
            self.problems += check_client(summary, expect_hits=False)
            self.problems += check_agreement(seeded_facts, winners)
            self.problems += check_resend(summary)
            sample = [entry["index"] for entry in summary["resend"]]
            local = self.rescore(model, stats, [lines[k] for k in sample])
            self.problems += check_bitwise([summary["values"][k] for k in sample], local,
                                           "in-process re-score of the sample")
            return dict(latency_metrics(summary["segments"]), peak_rss_mb=peak)

        return self.finish(self.measure_twice(measure), server, setup, seeded_pairs + predicts)

    # -- warm_mix -----------------------------------------------------------

    def warm_mix(self):
        s = self.sizes
        groups = self.generate("requests.tsv", self.args.seed, s["warm_adgroups"])
        pair_lines, _, predicts = sibling_requests(groups, s["warm_pairs"], s["warm_predicts"])
        lines = pair_lines + predicts
        requests = self.path("warm.jsonl")
        write_lines(requests, lines)
        server = self.serve(cross_pair(groups))
        # The warm-up pass is part of set-up; it records every first answer.
        warm = run_client(self.procs, self.work, server.port, requests, "warmup", 1, 1,
                          s["warm_segment"], rounds=1)
        self.problems += check_client(warm, expect_hits=False)
        self.account(warm)
        first = warm["values"]
        setup = self.setup_s()

        def measure(trace):
            summary = run_client(self.procs, self.work, server.port, requests,
                                 "warm-trace" if trace else "warm", s["warm_conns"],
                                 s["warm_window"], s["warm_segment"],
                                 seconds=self.args.seconds, trace=trace)
            peak = server.peak_rss_mib()
            self.account(summary)
            self.problems += check_client(summary, expect_hits=True)
            self.problems += check_bitwise(summary["values"], first,
                                           "hits against first answers")
            return dict(latency_metrics(summary["segments"]), peak_rss_mb=peak)

        return self.finish(self.measure_twice(measure), server, setup, lines)

    # -- train_pipeline -----------------------------------------------------

    def train_pipeline(self):
        s = self.sizes
        groups = self.generate("heldout.tsv", self.args.seed + 1, s["heldout_adgroups"])
        # Each pass scores the same slice of held-out sibling pairs.
        pair_lines, facts, predicts = sibling_requests(groups, s["timing_pairs"],
                                                       s["timing_predicts"])
        timing_lines = pair_lines + predicts
        timing = self.path("timing.jsonl")
        write_lines(timing, timing_lines)
        setup = self.setup_s()

        def measure(trace):
            start, first_pass = time.monotonic(), len(self.passes)
            segments = []
            while len(self.passes) == first_pass or time.monotonic() - start < self.args.seconds:
                server = self.readme_pass(cross_pair(groups), measured=True)
                summary = run_client(self.procs, self.work, server.port, timing,
                                     "timing%d" % len(self.passes), 2, 1, s["pipe_segment"],
                                     rounds=1, trace=trace)
                self.account(summary)
                self.problems += check_client(summary, expect_hits=False)
                self.problems += check_agreement(facts, summary["winners"])
                segments += summary["segments"]
                self.passes[-1]["peak_kib"] = max(self.passes[-1]["peak_kib"],
                                                  server.peak_rss_mib() * 1024)
                self.statsz = server.statsz() if trace else None
                server.stop()
                self.drop_pass_files()
            passes = self.passes[first_pass:]
            log("pipeline: %d passes, pass times %s; held-out verdict agreement %.4f" % (
                len(passes), " ".join("%.3f" % p["pass_s"] for p in passes),
                verdict_agreement(facts, summary["winners"])))
            return dict(latency_metrics(segments),
                        pipeline_s=median([p["pass_s"] for p in passes]),
                        peak_rss_mb=median([p["peak_kib"] for p in passes]) / 1024)

        metrics = self.measure_twice(measure)
        metrics["setup_s"] = setup
        if not self.args.trace:
            return metrics
        layers = statsz_layers(self.statsz, metrics["latency_p50_ms"])
        layers.update(self.probe_layers(timing_lines))
        return layers


def load_metric_units():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_pairs", "warm_mix", "train_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args()
    for required in ("src/CMakeLists.txt", "tools/mbctl.cc", "tools/mbserved.cc",
                     "perfbench/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.isfile(required):
            log("not a microbrowse source checkout: %s is missing" % required)
            return 2
    e2e_units, layer_units = load_metric_units()
    os.makedirs(WORK_ROOT, exist_ok=True)
    try:
        build_s = build()
    except BenchError as error:
        log(str(error))
        return 2

    def on_alarm(signum, frame):
        raise Timeout()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_alarm)
    signal.alarm(170)
    work = os.path.join(WORK_ROOT, "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    procs = Processes(os.path.join(work, "children.log"))
    run = Run(args, SMOKE if args.smoke else FULL, work, procs, build_s)
    try:
        metrics = getattr(run, args.workload)()
    except (BenchError, Timeout) as error:
        log("run failed: %s (logs kept in %s)" % (error or "timed out", work))
        return 3
    finally:
        signal.alarm(0)
        procs.stop_all()
    for problem in run.problems:
        log("CHECK FAILED: " + problem)
    units = layer_units if args.trace else e2e_units
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))
        client_spans = []
        for name in sorted(os.listdir(work)):
            if name.endswith(".spans.json") and name != "probe.spans.json":
                with open(os.path.join(work, name)) as f:
                    client_spans.append(dict(json.load(f), phase=name[:-len(".spans.json")]))
        with open(trace_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "end_to_end": run.phases, "per_layer": metrics,
                       "spans": {"run": run.spans, "client": client_spans,
                                 "probe": getattr(run, "probe_spans", [])}}, f)
        log("trace written to " + trace_path)
        log("end-to-end untraced %s" % json.dumps(run.phases.get("untraced")))
        log("end-to-end traced   %s" % json.dumps(run.phases.get("traced")))
    missing = [name for name in units if name not in metrics]
    if missing:
        log("workload produced no value for %s" % ", ".join(missing))
        return 3
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
