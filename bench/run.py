#!/usr/bin/env python3
"""End-to-end benchmark: private retrieval and point queries against a
real loopback fleet of `2n` `itdpf serve` processes.

    python3 bench/run.py --workload pir-binary-h128 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all                # every workload in turn

The load is a closed loop with one caller: the next query starts when the
previous one has returned, so one query is in flight at a time.  Each query
is one `itdpf.client.run_query` call, which generates the 2n keys, opens
2n connections, uploads one key per server and asks each server for its
answer.  Every answer is checked against the plaintext database or point
function.  With `--trace 0` the end-to-end metrics of BENCHMARK.json are
reported; with `--trace 1` the per-layer metrics, from a traced fleet plus
an in-process h sweep.  See bench/README.md for the workloads and for
which layer metric should move which end-to-end metric.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit code 0 means every check
passed, 1 that a check failed, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "itdpf" / "__init__.py").is_file():
    print(f"bench: no itdpf package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
import itdpf.client  # noqa: E402
from itdpf import protocol  # noqa: E402
from itdpf.interpolation import build_scheme, scheme_to_json, verify_scheme  # noqa: E402
from itdpf.matching import certified_family, family_to_json, trivial_family  # noqa: E402
from itdpf.params import build_params, params_to_json  # noqa: E402

from fleet import Fleet, FleetError  # noqa: E402
from sweep import run_sweep  # noqa: E402
from tracing import FRAME_HEADER, REQUEST_KINDS, Patches, Recorder  # noqa: E402

# name -> (primes, p, realized n from the README fixture table)
FIXTURES = {"binary": ((7, 73), 2, 3), "odd": ((2, 3), 5, 4)}


@dataclass(frozen=True)
class Workload:
    fixture: str
    h: int
    pir: bool


WORKLOADS = {
    "pir-binary-h128": Workload("binary", 128, True),
    "pir-odd-h64": Workload("odd", 64, True),
    "point-odd-h64": Workload("odd", 64, False),
}
SETUPS = 3          # set-ups per run; setup_s is their median
WARMUP = 2          # checked queries before timing starts
# Queries run one at a time on a shared host whose speed swings for
# seconds at a time.  So each figure is taken over chunks of consecutive
# timed queries, which ran at about the same host speed.  A p50 chunk is
# P50_CHUNK queries, and query_ms_p50 is the mean of the chunk medians: it
# follows the mix of host speeds in a run smoothly, where a median over
# chunks jumps from one speed to the other, and a single slow query moves
# no chunk median.  The p90, rate and CPU figures come from chunks of at
# least CHUNK queries, so that ten queries lie beyond each p90, and each is
# the median over chunks: a disturbance that covers less than half of the
# run does not move it.
P50_CHUNK = 10
CHUNK = 100
# One query runs one process at a time, so each query runs the client and
# the whole fleet on one CPU, and successive queries take the CPUs in turn.
# Left to the scheduler, a round trip may wake a process on another CPU; on
# a shared VM the delay of that wake-up swings from run to run and set most
# of the p90 of point queries.  Taking the CPUs in turn, rather than always
# the same one, averages over their speeds, which also swing.
CPUS = sorted(os.sched_getaffinity(0))
WORK_DIR = ROOT / ".bench_work"


class CheckFailed(Exception):
    """The fleet or its artifacts do not match what the workload needs."""


# ---------------------------------------------------------------------------
# Set-up: artifacts and fleet.
# ---------------------------------------------------------------------------

@dataclass
class Context:
    wl: Workload
    params: object
    scheme: object
    family: object
    db: list[int]
    db_digest: str
    paths: dict[str, Path]

    @property
    def servers(self) -> int:
        return 2 * self.scheme.n

    def key_bytes(self) -> int:
        """header + 2*(h+1)*tau*width, from the wire format's definition."""
        width = ((self.params.p - 1).bit_length() + 7) // 8
        return 7 + 2 * (self.wl.h + 1) * self.params.tau * width

    def wire_bytes(self) -> int:
        """Frame bytes per query in both directions: per server an upload
        and its bare ack, then the request and its response."""
        request, response = (0, 2 + 32) if self.wl.pir else (4, 2)
        per_server = (4 * FRAME_HEADER + self.key_bytes() + request + response)
        return self.servers * per_server


def timed(timings: dict, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[name].append(1e3 * (time.perf_counter() - t0))
    return out


def build_artifacts(wl: Workload, seed: int, workdir: Path,
                    timings: dict) -> Context:
    """Params, scheme, family and db, written where the servers read them.
    The scheme and family pass the same load gates as in `itdpf query`."""
    primes, p, n_expected = FIXTURES[wl.fixture]
    params = timed(timings, "params.build_params_ms", build_params, primes, p)
    scheme = timed(timings, "interpolation.build_scheme_ms", build_scheme,
                   params)
    cert = timed(timings, "interpolation.verify_scheme_ms", verify_scheme,
                 params, scheme, random_polynomials=0)
    family = timed(timings, "matching.verify_family_ms", certified_family,
                   trivial_family(params.M, wl.h), params.S_M)
    if not cert.ok:
        raise CheckFailed(f"scheme fails its certificate at "
                          f"{list(cert.failed_exponents)}")
    if scheme.n != n_expected:
        raise CheckFailed(f"realized n={scheme.n}, the fixture table says "
                          f"{n_expected}")
    rng = random.Random(f"db/{seed}")
    db = [rng.randrange(p) for _ in range(family.size)]
    db_raw = ("\n".join(str(v) for v in db) + "\n").encode()
    paths = {name: workdir / f"{name}.json"
             for name in ("params", "scheme", "family")}
    paths["db"] = workdir / "db.txt"
    paths["params"].write_bytes(params_to_json(params))
    paths["scheme"].write_bytes(scheme_to_json(scheme))
    paths["family"].write_bytes(family_to_json(family))
    paths["db"].write_bytes(db_raw)
    return Context(wl, params, scheme, family, db,
                   hashlib.sha256(db_raw).hexdigest(), paths)


# ---------------------------------------------------------------------------
# Query phase.
# ---------------------------------------------------------------------------

def query_inputs(ctx: Context, seed: int):
    """Endless (alpha, beta, x, key seed) stream; the same seed gives the
    same stream.  PIR uses beta = 1 so the answer is db[alpha]; point
    queries hit alpha half of the time so both outputs are checked."""
    rng = random.Random(f"queries/{seed}")
    n = ctx.family.size
    while True:
        alpha = rng.randrange(1, n + 1)
        if ctx.wl.pir:
            yield alpha, 1, None, rng.getrandbits(32)
        else:
            beta = rng.randrange(1, ctx.params.p)
            x = alpha if rng.random() < 0.5 else rng.randrange(1, n + 1)
            yield alpha, beta, x, rng.getrandbits(32)


class WireCounter:
    """Counts frames and bytes at the client's protocol send/recv calls."""

    def __init__(self, patches: Patches):
        self.bytes = 0
        self.key_bytes: set[int] = set()
        send, recv = protocol.send_message, protocol.recv_message

        def send_message(sock, data):
            self.bytes += len(data)
            if data[5] == protocol.KEY_UPLOAD:
                self.key_bytes.add(len(data) - FRAME_HEADER)
            return send(sock, data)

        def recv_message(sock):
            msg = recv(sock)
            self.bytes += FRAME_HEADER + len(msg.payload)
            return msg

        patches.set(protocol, "send_message", send_message)
        patches.set(protocol, "recv_message", recv_message)


@dataclass
class Phase:
    latencies_ms: list[float] = field(default_factory=list)
    # (timed queries so far, time, client CPU s, fleet CPU s) at the start
    # of the timed phase, after every CHUNK timed queries and at its end.
    marks: list[tuple[int, float, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    wire_bytes: int = 0
    peak_rss_mib: float = 0.0
    key_bytes: set = field(default_factory=set)

    @property
    def measured(self) -> int:
        return len(self.latencies_ms)

    def p50s(self) -> list[float]:
        """Median of each run of P50_CHUNK timed queries; a short tail
        joins the last run."""
        lat = self.latencies_ms
        bounds = [i * P50_CHUNK
                  for i in range(max(1, len(lat) // P50_CHUNK))] + [len(lat)]
        return [statistics.median(lat[a:b])
                for a, b in zip(bounds, bounds[1:])]

    def chunks(self) -> list[dict[str, float]]:
        """p90, rate and CPU figures of each chunk between marks; a tail
        shorter than CHUNK joins the last chunk."""
        marks = self.marks
        if len(marks) > 2 and marks[-1][0] - marks[-2][0] < CHUNK:
            marks = marks[:-2] + marks[-1:]
        out = []
        for (n0, t0, c0, s0), (n1, t1, c1, s1) in zip(marks, marks[1:]):
            count = n1 - n0
            out.append({
                "query_ms_p90": upper_percentile(self.latencies_ms[n0:n1]),
                "queries_per_s": count / (t1 - t0),
                "client_cpu_ms_per_query": 1e3 * (c1 - c0) / count,
                "server_cpu_ms_per_query": 1e3 * (s1 - s0) / count,
            })
        return out

    def summary(self) -> dict[str, float]:
        """Mean of the p50 chunk medians; median over chunks of each p90,
        rate and CPU figure."""
        chunks = self.chunks()
        return {"query_ms_p50": statistics.fmean(self.p50s()),
                **{k: statistics.median(c[k] for c in chunks)
                   for k in chunks[0]}}


def one_query(ctx: Context, fleet: Fleet, q, wire: WireCounter) -> str | None:
    """Run and check one query; return the failure reason, if any."""
    alpha, beta, x, key_seed = q
    before = wire.bytes
    try:
        res = itdpf.client.run_query(fleet.addresses, ctx.params, ctx.family,
                                     ctx.scheme, alpha, beta, key_seed, x=x,
                                     pir=ctx.wl.pir)
    except (itdpf.client.QueryError, OSError, protocol.WireError) as exc:
        return f"{type(exc).__name__}: {exc}"[:120]
    if ctx.wl.pir:
        if res.value != ctx.db[alpha - 1]:
            return "PIR answer differs from db[alpha]"
        if res.db_digest != ctx.db_digest:
            return "servers report another db digest"
    elif res.value != (beta if x == alpha else 0):
        return "point answer differs from f(x)"
    if wire.bytes - before != ctx.wire_bytes():
        return f"query moved {wire.bytes - before} wire bytes"
    return None


def query_phase(ctx: Context, fleet: Fleet, inputs, seconds: float,
                rec: Recorder | None = None) -> Phase:
    """Closed loop for `seconds` after WARMUP checked queries."""
    phase = Phase()
    with Patches() as patches:
        try:
            wire = WireCounter(patches)
            if rec is not None:
                trace_client(rec, patches, fleet)
            qid = 0

            def run(timed_query: bool) -> bool:
                nonlocal qid
                if rec is not None:
                    rec.local.qid = qid
                cpu = CPUS[qid % len(CPUS)]
                os.sched_setaffinity(0, {cpu})
                fleet.pin(cpu)
                qid += 1
                t0 = time.perf_counter()
                reason = one_query(ctx, fleet, next(inputs), wire)
                t1 = time.perf_counter()
                phase.attempted += 1
                if reason is not None:
                    phase.failed += 1
                    phase.reasons[reason] += 1
                    dead = fleet.dead()
                    if dead:
                        phase.reasons[f"servers {dead} exited"] += 1
                        return False
                elif timed_query:
                    phase.latencies_ms.append(1e3 * (t1 - t0))
                    if rec is not None:
                        rec.add("client.query", t0, t1)
                return True

            def mark():
                phase.marks.append((phase.measured, time.perf_counter(),
                                    time.process_time(), fleet.cpu_s()))

            for _ in range(WARMUP):
                if not run(False):
                    return phase
            bytes0 = wire.bytes
            mark()
            deadline = phase.marks[0][1] + seconds
            while time.perf_counter() < deadline and run(True):
                if (phase.measured % CHUNK == 0
                        and phase.measured != phase.marks[-1][0]):
                    mark()
            if fleet.dead():
                return phase
            mark()
            phase.peak_rss_mib = fleet.peak_rss_mib()
            phase.wire_bytes = wire.bytes - bytes0
            phase.key_bytes = wire.key_bytes
        finally:
            os.sched_setaffinity(0, CPUS)
    return phase


def upper_percentile(values: list[float]) -> float:
    """p90, or the highest percentile below it with at least ten samples
    beyond it."""
    s = sorted(values)
    return s[max(0, min(math.ceil(0.9 * len(s)) - 1, len(s) - 11))]


def end_to_end(phase: Phase, setups_s: list[float]) -> dict[str, float]:
    return {
        **phase.summary(),
        "setup_s": statistics.median(setups_s),
        "wire_bytes_per_query": phase.wire_bytes / phase.measured,
        "server_peak_rss_mib": phase.peak_rss_mib,
    }


# ---------------------------------------------------------------------------
# Traced run: client-side spans, server spans, per-layer metrics.
# ---------------------------------------------------------------------------

def trace_client(rec: Recorder, patches: Patches, fleet: Fleet) -> None:
    """Spans around the client's calls into dpf, socket and protocol."""
    server_of_port = {port: i for i, (_, port) in enumerate(fleet.addresses)}
    request = protocol.request

    def traced_request(sock, msg_type, payload=b""):
        t0 = time.perf_counter()
        try:
            return request(sock, msg_type, payload)
        finally:
            rec.add("client." + REQUEST_KINDS[msg_type], t0,
                    time.perf_counter(),
                    tag=server_of_port[sock.getpeername()[1]])

    client = itdpf.client
    patches.set(client, "keygen", rec.wrap(client.keygen, "dpf.keygen"))
    patches.set(client, "serialize_key",
                rec.wrap(client.serialize_key, "dpf.serialize_key"))
    patches.set(socket, "create_connection",
                rec.wrap(socket.create_connection, "client.connect"))
    patches.set(protocol, "request", traced_request)


def _med(values, scale=1.0) -> float:
    return scale * statistics.median(values) if values else 0.0


def _duration(span) -> float:
    return span[3] - span[2]


def layer_metrics(ctx: Context, rec: Recorder, servers: list[dict],
                  untraced_p50: float, traced: Phase) -> tuple[dict, list]:
    """Per-layer metrics of the traced query phase, and the problems found
    while matching client and server spans."""
    problems = []
    queries = {s[1]: s for s in rec.spans if s[0] == "client.query"}
    client = defaultdict(list)           # qid -> client spans
    for s in rec.spans:
        if s[1] in queries:
            client[s[1]].append(s)
    by_name = defaultdict(list)          # span name -> durations (s)
    handler = {}                         # (server, qid, kind) -> duration
    eval_all_by_query = defaultdict(float)
    reduce_s = []
    ops_by_query = defaultdict(lambda: [0, 0])
    frames_by_query = defaultdict(lambda: [0, 0])
    errors = Counter()
    for index, dump in enumerate(servers):
        eval_all = defaultdict(float)    # qid -> evaluate_all time here
        for name, qid, t0, t1, parent, _ in dump["spans"]:
            if qid not in queries:
                continue
            by_name[name].append(t1 - t0)
            if name.startswith("server."):
                handler[(index, qid, name[len("server."):])] = t1 - t0
            elif name == "dpf.evaluate_all":
                eval_all[qid] += t1 - t0
        for qid, t in eval_all.items():
            eval_all_by_query[qid] += t
            reduce_s.append(handler[(index, qid, "pir")] - t)
        for qid, (mul, pw) in dump["field"].items():
            if int(qid) in queries:
                ops_by_query[int(qid)][0] += mul
                ops_by_query[int(qid)][1] += pw
        for qid, (frames, nbytes) in dump["frames"].items():
            if int(qid) in queries:
                frames_by_query[int(qid)][0] += frames
                frames_by_query[int(qid)][1] += nbytes
        errors.update(dump["errors"])

    per_query = defaultdict(list)
    for qid, spans in client.items():
        wall = _duration(queries[qid])
        names = defaultdict(list)
        for s in spans:
            names[s[0]].append(s)
        answers = names["client.pir"] + names["client.eval"]
        if not answers or len(names["client.upload"]) != ctx.servers:
            problems.append(f"query {qid}: incomplete client spans")
            continue
        rtts = [_duration(s) for s in answers]
        connect = sum(_duration(s) for s in names["client.connect"])

        def phase_s(spans):
            return max(s[3] for s in spans) - min(s[2] for s in spans)

        wait = 0.0
        for s in names["client.upload"] + answers:
            kind = s[0][len("client."):]
            server_s = handler.get((s[5], qid, kind))
            if server_s is None:
                problems.append(f"query {qid}: no server {s[5]} {kind} span")
                continue
            wait += _duration(s) - server_s
        keygen = sum(_duration(s) for s in names["dpf.keygen"])
        per_query["connect"].append(connect)
        per_query["upload"].append(phase_s(names["client.upload"]))
        per_query["answer"].append(phase_s(answers))
        per_query["rtt_max"].append(max(rtts))
        per_query["sum_over_max"].append(sum(rtts) / max(rtts))
        per_query["wire_wait"].append(wait)
        per_query["coverage"].append(
            (keygen + connect + phase_s(names["client.upload"])
             + phase_s(answers)) / wall)
        for name in ("dpf.keygen", "dpf.serialize_key"):
            by_name[name] += [_duration(s) for s in names[name]]

    for label, table in (("field operation", ops_by_query),
                         ("frame", frames_by_query)):
        if len({tuple(v) for v in table.values()}) > 1:
            problems.append(f"{label} counts differ between queries")
    if len(frames_by_query) != len(queries):
        problems.append(f"server frames seen for {len(frames_by_query)} of "
                        f"{len(queries)} queries")
    frames_q = next(iter(frames_by_query.values()), [0, 0])
    if frames_q[1] != ctx.wire_bytes():
        problems.append(f"servers counted {frames_q[1]} bytes per query, "
                        f"expected {ctx.wire_bytes()}")
    ops_q = next(iter(ops_by_query.values()), [0, 0])
    traced_p50 = traced.summary()["query_ms_p50"]
    metrics = {
        "field.mul_calls_per_query": float(ops_q[0]),
        "field.pow_calls_per_query": float(ops_q[1]),
        "dpf.keygen_ms": _med(by_name["dpf.keygen"], 1e3),
        "dpf.serialize_key_us": _med(by_name["dpf.serialize_key"], 1e6),
        "dpf.deserialize_key_us": _med(by_name["dpf.deserialize_key"], 1e6),
        "dpf.evaluate_key_us": _med(by_name["dpf.evaluate_key"], 1e6),
        "dpf.evaluate_all_ms": _med(by_name["dpf.evaluate_all"], 1e3),
        "dpf.key_bytes": float(max(traced.key_bytes, default=0)),
        "server.upload_ms": _med(by_name["server.upload"], 1e3),
        "server.eval_ms": _med(by_name["server.eval"], 1e3),
        "server.pir_ms": _med(by_name["server.pir"], 1e3),
        "server.pir_reduce_ms": _med(reduce_s, 1e3),
        "server.errors": float(sum(errors.values())),
        "protocol.frames_per_query": float(frames_q[0]),
        "protocol.bytes_per_query": float(frames_q[1]),
        "client.connect_ms": _med(per_query["connect"], 1e3),
        "client.upload_phase_ms": _med(per_query["upload"], 1e3),
        "client.answer_phase_ms": _med(per_query["answer"], 1e3),
        "client.answer_rtt_max_ms": _med(per_query["rtt_max"], 1e3),
        "client.answer_sum_over_max": _med(per_query["sum_over_max"]),
        "client.wire_wait_ms": _med(per_query["wire_wait"], 1e3),
        "trace.query_ms_p50": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "trace.span_coverage": _med(per_query["coverage"]),
        "trace.evaluate_all_share_of_p50":
            _med(list(eval_all_by_query.values()), 1e3) / traced_p50,
    }
    if errors:
        problems.append(f"server errors by code: {dict(errors)}")
    return metrics, problems


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------

def provenance(args, workload: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "cpu": cpu, "nproc": os.cpu_count(),
            "cpus": CPUS, "commit": commit,
            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_workload(name: str, args, workdir: Path) -> tuple[dict, dict]:
    """Returns (result, detail); result has the contract's four keys."""
    wl = WORKLOADS[name]
    timings = defaultdict(list)
    setups_s, start_s = [], []
    problems = []
    stderr = {}                          # server index -> what it wrote
    fleet = None
    try:
        for _ in range(SETUPS):
            if fleet is not None:
                stderr.update(fleet.close())
                fleet = None
            t0 = time.perf_counter()
            ctx = build_artifacts(wl, args.seed, workdir, timings)
            fleet = Fleet(SRC, ctx.paths, ctx.servers)
            setups_s.append(time.perf_counter() - t0)
            start_s += fleet.start_s
        inputs = query_inputs(ctx, args.seed)
        seconds = args.seconds / 2 if args.trace else args.seconds
        phase = query_phase(ctx, fleet, inputs, seconds)
        stderr.update(fleet.close())
        fleet = None
        phases = [phase]
        if args.trace:
            spans_dir = Path(tempfile.mkdtemp(dir=workdir))
            rec = Recorder()
            fleet = Fleet(SRC, ctx.paths, ctx.servers, spans_dir)
            traced = query_phase(ctx, fleet, inputs, seconds, rec)
            stderr.update(fleet.close())
            fleet = None
            phases.append(traced)
            servers = [json.loads((spans_dir / f"server_{i}.json").read_text())
                       for i in range(ctx.servers)]
    except (CheckFailed, FleetError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
        return ({"correct": False, "attempted": 1, "failed": 1,
                 "metrics": {}}, {"problems": problems})
    finally:
        if fleet is not None:
            fleet.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        problems += [f"{n} x {reason}" for reason, n in p.reasons.items()]
        if p.key_bytes and p.key_bytes != {ctx.key_bytes()}:
            problems.append(f"key bytes {sorted(p.key_bytes)} != "
                            f"{ctx.key_bytes()}")
        if p.measured == 0:
            problems.append("no query completed in the timed phase")
    problems += [f"server {i} stderr: {err.decode(errors='replace')[-300:]}"
                 for i, err in stderr.items()]
    detail = {"problems": problems, "measured": phase.measured,
              "failed_frac": failed / attempted if attempted else 1.0,
              "key_audit": {"h": wl.h, "measured": sorted(phase.key_bytes),
                            "formula": ctx.key_bytes(),
                            "residual": sum(abs(k - ctx.key_bytes())
                                            for k in phase.key_bytes)}}
    metrics = {}
    if not problems:
        e2e = end_to_end(phase, setups_s)
        detail["end_to_end"] = e2e
        detail["chunk_p50s_ms"] = phase.p50s()
        detail["chunks"] = phase.chunks()
        if phase.measured >= 2:
            detail["latency_deciles_ms"] = statistics.quantiles(
                phase.latencies_ms, n=10)
        if args.trace:
            metrics, trace_problems = layer_metrics(
                ctx, rec, servers, e2e["query_ms_p50"], traced)
            problems += trace_problems
            metrics.update({k: _med(v) for k, v in timings.items()})
            metrics["server.start_ms"] = _med(start_s, 1e3)
            metrics.update(run_sweep(FIXTURES, args.seed))
            detail["traced_measured"] = traced.measured
        else:
            metrics = e2e
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    if metrics and set(metrics) != set(declared):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    return ({"correct": not problems, "attempted": attempted,
             "failed": failed,
             "metrics": {k: {"value": v, "unit": declared.get(k, "?")}
                         for k, v in sorted(metrics.items())}},
            detail)


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def print_report(name: str, result: dict, detail: dict) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={detail.get('failed_frac', 1.0):.4f} "
          f"(timed queries: {detail.get('measured', 0)})")
    audit = detail.get("key_audit")
    if audit:
        print(f"   key-size audit h={audit['h']}: measured {audit['measured']} "
              f"formula {audit['formula']} residual {audit['residual']}")
    if "chunks" in detail:
        print(f"   query_ms_p50 is a mean over "
              f"{len(detail['chunk_p50s_ms'])} chunks; the other time "
              f"figures are medians over {len(detail['chunks'])}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<42} {entry['value']:>14.4f} {entry['unit']}")
    for problem in detail.get("problems", []):
        print(f"   PROBLEM: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append provenance, result and detail "
                                     "as one JSON line to this file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    ok = True
    try:
        for name in names:
            prov = provenance(args, name)
            result, detail = run_workload(name, args, workdir)
            ok &= result["correct"]
            print("provenance " + json.dumps(prov, sort_keys=True))
            print_report(name, result, detail)
            if args.record:
                with open(args.record, "a") as fh:
                    fh.write(json.dumps({"provenance": prov, "result": result,
                                         "detail": detail}) + "\n")
            print(json.dumps(result), flush=True)
    except KeyboardInterrupt:
        print("bench: interrupted; fleet stopped", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
