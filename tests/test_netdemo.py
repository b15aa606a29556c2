import contextlib
import hashlib
import json
import random
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from itdpf import client as client_mod, protocol, server as server_mod
from itdpf.client import QueryError, run_query
from itdpf.dpf import PointFunction, evaluate_key, keygen, serialize_key
from itdpf.errors import ParameterError
from itdpf.matching import product_family
from itdpf.oracles import check_distribution_equality
from itdpf.server import EvalServer, load_database

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def fleet(params_b, scheme_b, family_b8):
    """2n in-process servers over loopback sockets, with a database."""
    rng = random.Random(99)
    db = [rng.randrange(5) for _ in range(8)]
    raw = ("\n".join(str(v) for v in db) + "\n").encode()
    digest = hashlib.sha256(raw).digest()
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(
                   EvalServer(i, params_b, family_b8, scheme_b, db, digest))
               for i in range(2 * scheme_b.n)], db


def _addresses(servers):
    return [("127.0.0.1", s.port) for s in servers]


# ---------------------------------------------------------------------------
# Protocol-level behaviour.
# ---------------------------------------------------------------------------

def test_eval_before_upload_is_no_key(fleet):
    servers, _ = fleet
    with socket.create_connection(("127.0.0.1", servers[0].port)) as sock:
        reply = protocol.request(sock, protocol.EVAL_REQ, (1).to_bytes(4, "big"))
        assert reply.type == protocol.ERROR
        assert reply.error_name() == "NO_KEY"


def test_key_index_mismatch_rejected(fleet, params_b, scheme_b, family_b8):
    servers, _ = fleet
    keys = keygen(params_b, family_b8, scheme_b,
                  PointFunction(8, 5, 1, 1), random.Random(0))
    with socket.create_connection(("127.0.0.1", servers[0].port)) as sock:
        reply = protocol.request(sock, protocol.KEY_UPLOAD,
                                 serialize_key(params_b, keys[3]))
        assert reply.type == protocol.ERROR
        assert reply.error_name() == "KEY_INDEX"


def test_unknown_type_keeps_connection_open(fleet):
    servers, _ = fleet
    with socket.create_connection(("127.0.0.1", servers[0].port)) as sock:
        reply = protocol.request(sock, 42, b"junk")
        assert reply.type == protocol.ERROR
        # The same connection must still answer a well-formed request.
        reply2 = protocol.request(sock, protocol.EVAL_REQ, (1).to_bytes(4, "big"))
        assert reply2.type == protocol.ERROR
        assert reply2.error_name() == "NO_KEY"


def test_malformed_eval_payload(fleet, params_b, scheme_b, family_b8):
    servers, _ = fleet
    key = keygen(params_b, family_b8, scheme_b,
                 PointFunction(8, 5, 1, 1), random.Random(0))[0]
    with socket.create_connection(("127.0.0.1", servers[0].port)) as sock:
        assert protocol.request(sock, protocol.KEY_UPLOAD,
                                serialize_key(params_b, key)).type == protocol.KEY_UPLOAD
        reply = protocol.request(sock, protocol.EVAL_REQ, b"\x00")
        assert reply.type == protocol.ERROR
        assert reply.error_name() == "BAD_REQUEST"


def test_malformed_request_is_bad_request_with_or_without_key(
        fleet, params_b, scheme_b, family_b8):
    """A request's shape is checked before the key: each malformed frame
    gets the same BAD_REQUEST, with the same text, before and after an
    upload on its connection."""
    servers, _ = fleet
    key = keygen(params_b, family_b8, scheme_b,
                 PointFunction(8, 5, 1, 1), random.Random(0))[0]
    malformed = {
        (protocol.EVAL_REQ, (1).to_bytes(3, "big")):
            "EVAL_REQ payload must be 4 bytes",
        (protocol.EVAL_REQ, (0).to_bytes(4, "big")):
            "x=0 outside the domain [1, 8]",
        (protocol.EVAL_REQ, (9).to_bytes(4, "big")):
            "x=9 outside the domain [1, 8]",
        (protocol.PIR_REQ, b"\x00"): "PIR_REQ payload must be empty",
    }
    with socket.create_connection(("127.0.0.1", servers[0].port)) as sock:
        for upload in (False, True):
            if upload:
                assert protocol.request(
                    sock, protocol.KEY_UPLOAD, serialize_key(params_b, key)
                ).type == protocol.KEY_UPLOAD
            for (msg_type, payload), text in malformed.items():
                reply = protocol.request(sock, msg_type, payload)
                assert reply.error_name() == "BAD_REQUEST", (upload, text)
                assert reply.payload[1:] == text.encode()


def test_key_is_bound_to_its_connection(fleet, params_b, scheme_b,
                                        family_b8):
    # Two clients share server 0: each request is answered with the key
    # uploaded on its own connection, whatever the other uploaded since.
    key_a, key_b = (keygen(params_b, family_b8, scheme_b,
                           PointFunction(8, 5, alpha, beta),
                           random.Random(seed))[0]
                    for alpha, beta, seed in ((2, 1, 10), (7, 3, 11)))
    expected = {key: [evaluate_key(params_b, family_b8, scheme_b, key, x)
                      for x in range(1, 9)] for key in (key_a, key_b)}
    assert expected[key_a] != expected[key_b]
    servers, _ = fleet
    address = ("127.0.0.1", servers[0].port)
    with socket.create_connection(address) as first, \
            socket.create_connection(address) as second:
        for sock, key in ((first, key_a), (second, key_b)):
            assert protocol.request(sock, protocol.KEY_UPLOAD,
                                    serialize_key(params_b, key)
                                    ).type == protocol.KEY_UPLOAD
        for sock, key in ((first, key_a), (second, key_b)):
            answers = [int.from_bytes(protocol.request(
                sock, protocol.EVAL_REQ, x.to_bytes(4, "big")).payload, "big")
                for x in range(1, 9)]
            assert answers == expected[key]


def test_handlers_release_their_slots(params_b, scheme_b, family_b8):
    # Handler threads are not in threading.enumerate(), so a leak shows
    # as a slot never given back.  Leaving the block ends every accept
    # thread.
    with contextlib.ExitStack() as stack:
        servers = [stack.enter_context(
                       EvalServer(i, params_b, family_b8, scheme_b, [1] * 8))
                   for i in range(2 * scheme_b.n)]
        for seed in range(4):
            assert run_query(_addresses(servers), params_b, family_b8,
                             scheme_b, alpha=seed + 1, beta=1, seed=seed,
                             pir=True).value == 1
        deadline = time.monotonic() + 5
        for server in servers:
            slots = server._conn_slots
            for _ in range(server_mod.MAX_CONNECTIONS):
                assert slots.acquire(
                    timeout=max(0.0, deadline - time.monotonic()))
            assert not slots.acquire(blocking=False)
            for _ in range(server_mod.MAX_CONNECTIONS):
                slots.release()
    assert not any(server._accept.is_alive() for server in servers)


def test_idle_connections_do_not_starve_a_server(fleet, params_b, scheme_b,
                                                 family_b8, monkeypatch):
    # Every handler slot of server 0 is held by a client that sends
    # nothing.  The server closes those after the idle timeout, so a query
    # issued while they wait completes well inside the client's own 10 s
    # timeout.  The query connects to all servers at once and then waits
    # on server 0, so its other connections are idle too: it starts once
    # the idle clients have waited half the timeout, which leaves the
    # other half for the query.
    monkeypatch.setattr(server_mod, "IDLE_TIMEOUT_S", 0.8)
    servers, db = fleet
    idle = [socket.create_connection(("127.0.0.1", servers[0].port), timeout=5)
            for _ in range(server_mod.MAX_CONNECTIONS)]
    try:
        time.sleep(0.4)
        result = run_query(_addresses(servers), params_b, family_b8, scheme_b,
                           alpha=2, beta=1, seed=2, pir=True)
        assert result.value == db[1]
        assert all(sock.recv(1) == b"" for sock in idle)   # closed by server
    finally:
        for sock in idle:
            sock.close()


def test_trickling_client_is_closed(params_b, scheme_b, family_b8,
                                    monkeypatch):
    # A client that sends one byte of a frame every 0.3 s never lets a
    # single recv wait out IDLE_TIMEOUT_S, but the frame as a whole must
    # arrive within it: the server closes the connection and frees its
    # handler slot.
    monkeypatch.setattr(server_mod, "IDLE_TIMEOUT_S", 0.5)
    frame = protocol.pack(protocol.KEY_UPLOAD, bytes(200))
    closed_after = None
    with EvalServer(0, params_b, family_b8, scheme_b) as server:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5) as sock:
            start = time.monotonic()
            for byte in frame[:14]:     # 4.2 s of trickling at most
                try:
                    sock.sendall(bytes([byte]))
                    if (select.select([sock], [], [], 0.3)[0]
                            and sock.recv(1) == b""):
                        closed_after = time.monotonic() - start
                        break
                except ConnectionError:
                    closed_after = time.monotonic() - start
                    break
        assert closed_after is not None and closed_after < 1.2
        slots = server._conn_slots
        for _ in range(server_mod.MAX_CONNECTIONS):
            assert slots.acquire(timeout=1)
        for _ in range(server_mod.MAX_CONNECTIONS):
            slots.release()
    assert not server._accept.is_alive()


def test_shutdown_with_every_slot_held(params_b, scheme_b, family_b8,
                                       monkeypatch):
    # Eight idle clients hold every handler slot and a ninth waits for
    # one.  shutdown() ends the accept loop within a second, and the
    # ninth is closed unserved: its request gets no reply.
    monkeypatch.setattr(server_mod, "IDLE_TIMEOUT_S", 3.0)
    with contextlib.ExitStack() as stack:
        server = stack.enter_context(
            EvalServer(0, params_b, family_b8, scheme_b))
        *_, queued = [stack.enter_context(socket.create_connection(
                          ("127.0.0.1", server.port), timeout=5))
                      for _ in range(server_mod.MAX_CONNECTIONS + 1)]
        queued.sendall(protocol.pack(protocol.EVAL_REQ, (1).to_bytes(4, "big")))
        time.sleep(0.3)                 # the accept loop waits for a slot
        server.shutdown()
        server._accept.join(1)
        assert not server._accept.is_alive()
        try:
            reply = queued.recv(1)
        except ConnectionResetError:    # closed with the request unread
            reply = b""
        assert reply == b""


def test_leaving_the_block_wakes_a_waiting_accept(params_b, scheme_b,
                                                  family_b8, monkeypatch):
    # The accept loop waits in accept with no timeout, and a 30 s POLL_S
    # rules out a poll: only shutting the listening socket down ends the
    # loop within a second.
    monkeypatch.setattr(server_mod, "POLL_S", 30.0)
    with EvalServer(0, params_b, family_b8, scheme_b) as server:
        time.sleep(0.2)                 # the accept loop waits in accept
        leaving = time.monotonic()
    assert time.monotonic() - leaving < 1
    assert not server._accept.is_alive()


def test_frame_read_in_pieces():
    # A frame whose payload arrives in two pieces is read whole.
    frame = protocol.pack(protocol.KEY_UPLOAD, bytes(range(200)))
    sender, receiver = socket.socketpair()
    with sender, receiver:
        sender.sendall(frame[:100])

        def finish():
            time.sleep(0.05)
            sender.sendall(frame[100:])

        late = threading.Thread(target=finish)
        late.start()
        msg = protocol.recv_message(receiver)
        late.join()
    assert (msg.type, msg.payload) == (protocol.KEY_UPLOAD, bytes(range(200)))


# ---------------------------------------------------------------------------
# Malformed replies: the client checks each reply's size and residue.
# ---------------------------------------------------------------------------

class _TamperingServer(EvalServer):
    """Replaces the payload of every reply of one type."""

    def __init__(self, *args, tamper, **kwargs):
        super().__init__(*args, **kwargs)
        self.tamper = tamper

    def _handle(self, msg, key):
        reply, key = super()._handle(msg, key)
        msg_type, payload = self.tamper
        if reply[5] == msg_type:
            reply = protocol.pack(msg_type, payload(reply[10:]))
        return reply, key


REPLY_CASES = {
    "upload_ack_not_empty": (protocol.KEY_UPLOAD, lambda _: b"\x00", False,
                             "payload bytes"),
    "eval_resp_three_bytes": (protocol.EVAL_RESP,
                              lambda _: (7).to_bytes(3, "big"), False,
                              "payload bytes"),
    "eval_residue_not_below_p": (protocol.EVAL_RESP,
                                 lambda _: (7).to_bytes(2, "big"), False,
                                 "not below p"),
    "pir_resp_one_byte": (protocol.PIR_RESP, lambda _: b"\x01", True,
                          "payload bytes"),
    "pir_residue_not_below_p": (protocol.PIR_RESP,
                                lambda ok: (7).to_bytes(2, "big") + ok[2:],
                                True, "not below p"),
}


@pytest.mark.parametrize("case", sorted(REPLY_CASES))
def test_malformed_reply_is_query_error(params_b, scheme_b, family_b8, case):
    # Every server tampers alike, so no digest diverges.
    msg_type, payload, pir, match = REPLY_CASES[case]
    with contextlib.ExitStack() as stack:
        servers = [stack.enter_context(_TamperingServer(
                       i, params_b, family_b8, scheme_b, [1] * 8,
                       tamper=(msg_type, payload)))
                   for i in range(2 * scheme_b.n)]
        with pytest.raises(QueryError, match=match):
            run_query(_addresses(servers), params_b, family_b8, scheme_b,
                      alpha=2, beta=1, seed=0,
                      **({"pir": True} if pir else {"x": 2}))


class _EmptyErrorServer(EvalServer):
    """Answers every request with an ERROR frame that holds no code."""

    def _handle(self, msg, key):
        _, key = super()._handle(msg, key)
        return protocol.pack(protocol.ERROR), key


def test_empty_error_reply_is_query_error(params_b, scheme_b, family_b8):
    """error_name() of an empty ERROR payload raises WireError, which
    escaped run_query instead of the QueryError it promises."""
    with contextlib.ExitStack() as stack:
        servers = [stack.enter_context(_EmptyErrorServer(
                       i, params_b, family_b8, scheme_b, [1] * 8))
                   for i in range(2 * scheme_b.n)]
        with pytest.raises(QueryError, match="without an error code"):
            run_query(_addresses(servers), params_b, family_b8, scheme_b,
                      alpha=2, beta=1, seed=0, pir=True)


# ---------------------------------------------------------------------------
# The calls a traced benchmark run wraps, counted on one in-process query.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pir", [False, True])
def test_trace_contract(fleet, params_b, scheme_b, family_b8, monkeypatch,
                        pir):
    """One query calls keygen once and serialize_key once per key through
    the client's globals, opens one connection per server, makes one
    protocol.request per upload and per answer, and reads and writes
    every frame through recv_message/send_message; each server parses
    its key through server.deserialize_key, on one handler thread per
    connection."""
    servers, _ = fleet
    n2 = len(servers)
    counts = {}
    # (server port, client port) -> server threads reading that connection.
    # A client port alone is not unique: Linux may give two connections
    # to different servers the same one.
    handler_threads = {}
    lock = threading.Lock()

    def counted(owner, name, fn, on_call=None):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            with lock:
                counts[name] = counts.get(name, 0) + 1
                if on_call is not None:
                    on_call(*args)
            return out
        monkeypatch.setattr(owner, name.rpartition(".")[2], call)

    def handler_read(sock):
        if threading.current_thread() is not threading.main_thread():
            handler_threads.setdefault(
                (sock.getsockname()[1], sock.getpeername()[1]), set()).add(
                threading.get_ident())

    counted(client_mod, "client.keygen", client_mod.keygen)
    counted(client_mod, "client.serialize_key", client_mod.serialize_key)
    counted(socket, "socket.create_connection", socket.create_connection)
    counted(protocol, "protocol.request", protocol.request)
    counted(server_mod, "server.deserialize_key", server_mod.deserialize_key)
    counted(protocol, "protocol.recv_message", protocol.recv_message,
            handler_read)
    counted(protocol, "protocol.send_message", protocol.send_message)
    result = run_query(_addresses(servers), params_b, family_b8, scheme_b,
                       alpha=2, beta=1, seed=4,
                       **({"pir": True} if pir else {"x": 2}))
    assert result.value == (servers[0].db[1] if pir else 1)
    # Four frames per connection.  A handler counts its last reply after
    # the client may have read it, so wait for that count.
    deadline = time.monotonic() + 5
    while (counts.get("protocol.send_message", 0) < 4 * n2
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert counts == {
        "client.keygen": 1, "client.serialize_key": n2,
        "socket.create_connection": n2, "protocol.request": 2 * n2,
        "server.deserialize_key": n2, "protocol.recv_message": 4 * n2,
        "protocol.send_message": 4 * n2}
    assert len(handler_threads) == n2
    assert all(len(idents) == 1 for idents in handler_threads.values())
    assert len(set().union(*handler_threads.values())) == n2


def test_bench_runs_against_this_source(tmp_path):
    """bench/ imports, calls and patches itdpf names; a renamed function or
    a changed signature must fail here, not only in a benchmark run.  In
    a subprocess, so that the patches stay there: import bench/run.py,
    install the traced server's wrappers, build one workload's artifacts
    and run the in-process sweep on the odd fixture, turned down."""
    script = "\n".join([
        "import sys",
        "from collections import defaultdict",
        "from pathlib import Path",
        f"sys.path.insert(0, {str(BENCH)!r})",
        "import run, sweep, traced_server, tracing",
        "traced_server.instrument(tracing.Recorder())",
        "sweep.FIELD_OPS, sweep.FIELD_BATCHES, sweep.REPS = 50, 1, 1",
        "sweep.EVALUATE_ALL_REPS, sweep.SWEEP_H = 1, (4,)",
        "run.build_artifacts(run.WORKLOADS['point-odd-h64'], 0,",
        "                    Path(sys.argv[1]), defaultdict(list))",
        "print(' '.join(sorted(sweep.run_sweep(",
        "    {'odd': run.FIXTURES['odd']}, 0))))",
    ])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(
        [f"field.{op}_ns.odd" for op in ("mul", "pow")]
        + [f"dpf.{name}.odd.h4" for name in (
            "keygen_ms", "evaluate_key_us", "evaluate_all_us_per_point",
            "serialize_key_us", "deserialize_key_us")])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "db.txt", "family.json", "params.json", "scheme.json"]


def test_traced_bench_path_runs_on_listed_workloads(tmp_path):
    """The traced benchmark run fails on any change to the client's or
    the servers' call pattern that its spans cannot match.  In a
    subprocess, per workload listed in BENCHMARK.json: build the
    artifacts, start a traced fleet, run the query phase for 0.5 s with
    a recorder, and require no server stderr, no failed query and no
    problem from layer_metrics."""
    script = "\n".join([
        "import json, sys",
        "from collections import defaultdict",
        "from pathlib import Path",
        f"sys.path.insert(0, {str(BENCH)!r})",
        "import run, tracing",
        "for name in sys.argv[2:]:",
        "    workdir = Path(sys.argv[1]) / name",
        "    spans_dir = workdir / 'spans'",
        "    spans_dir.mkdir(parents=True)",
        "    ctx = run.build_artifacts(run.WORKLOADS[name], 0, workdir,",
        "                              defaultdict(list))",
        "    rec = tracing.Recorder()",
        "    fleet = run.Fleet(run.SRC, ctx.paths, ctx.servers, spans_dir)",
        "    try:",
        "        phase = run.query_phase(ctx, fleet, run.query_inputs(ctx, 0),",
        "                                0.5, rec)",
        "    finally:",
        "        stderr = fleet.close()",
        "    servers = [json.loads((spans_dir / f'server_{i}.json').read_text())",
        "               for i in range(ctx.servers)]",
        "    problems = [f'server {i} stderr: {err[-300:]!r}'",
        "                for i, err in stderr.items()]",
        "    if phase.measured:",
        "        problems += run.layer_metrics(ctx, rec, servers, 0.0, phase)[1]",
        "    print(json.dumps({'workload': name, 'failed': phase.failed,",
        "                      'measured': phase.measured,",
        "                      'reasons': dict(phase.reasons),",
        "                      'problems': problems[:5]}))",
    ])
    workloads = [w["name"] for w in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, str(tmp_path), *workloads],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in results] == workloads
    for r in results:
        assert r["failed"] == 0 and r["measured"] > 0, r
        assert r["problems"] == [], r


# ---------------------------------------------------------------------------
# End-to-end queries.
# ---------------------------------------------------------------------------

def test_point_evaluation_round(fleet, params_b, scheme_b, family_b8):
    servers, _ = fleet
    result = run_query(_addresses(servers), params_b, family_b8, scheme_b,
                       alpha=6, beta=4, seed=5, x=6)
    assert result.value == 4
    result = run_query(_addresses(servers), params_b, family_b8, scheme_b,
                       alpha=6, beta=4, seed=5, x=2)
    assert result.value == 0


def test_pir_round_retrieves_db_entry(fleet, params_b, scheme_b, family_b8):
    servers, db = fleet
    for alpha in (1, 4, 8):
        result = run_query(_addresses(servers), params_b, family_b8, scheme_b,
                           alpha=alpha, beta=1, seed=alpha, pir=True)
        assert result.value == db[alpha - 1]
        assert result.db_digest is not None


def test_pir_round_over_product_family(params_a, scheme_a):
    """The binary fixture's product family at h = 12 (N = 64)."""
    family = product_family(params_a, h=12)
    rng = random.Random(3)
    db = [rng.randrange(2) for _ in range(family.size)]
    with contextlib.ExitStack() as stack:
        servers = [stack.enter_context(
                       EvalServer(i, params_a, family, scheme_a, db))
                   for i in range(2 * scheme_a.n)]
        for alpha in (1, 2, 22, 43, 64):
            result = run_query(_addresses(servers), params_a, family,
                               scheme_a, alpha=alpha, beta=1, seed=alpha,
                               pir=True)
            assert result.value == db[alpha - 1]


def test_repeated_queries_reuse_servers(fleet, params_b, scheme_b, family_b8):
    servers, db = fleet
    first = run_query(_addresses(servers), params_b, family_b8, scheme_b,
                      alpha=3, beta=1, seed=1, pir=True)
    second = run_query(_addresses(servers), params_b, family_b8, scheme_b,
                       alpha=3, beta=1, seed=1, pir=True)
    assert first.value == second.value == db[2]
    assert first.responses == second.responses   # deterministic evaluation


def test_restarted_server_reproduces_responses(params_b, scheme_b, family_b8):
    # Only the stored key is state: after a restart and re-upload, the
    # responses are identical.
    keys = keygen(params_b, family_b8, scheme_b,
                  PointFunction(8, 5, 3, 2), random.Random(6))
    blob = serialize_key(params_b, keys[0])

    def one_round():
        with EvalServer(0, params_b, family_b8, scheme_b) as server, \
                socket.create_connection(("127.0.0.1", server.port)) as sock:
            assert protocol.request(sock, protocol.KEY_UPLOAD,
                                    blob).type == protocol.KEY_UPLOAD
            return [protocol.request(sock, protocol.EVAL_REQ,
                                     x.to_bytes(4, "big")).payload
                    for x in range(1, 9)]

    assert one_round() == one_round()


def test_wrong_server_count_rejected(fleet, params_b, scheme_b, family_b8):
    servers, _ = fleet
    with pytest.raises(ParameterError):
        run_query(_addresses(servers)[:-1], params_b, family_b8, scheme_b,
                  alpha=1, beta=1, seed=0, x=1)


def test_unreachable_server_aborts_before_any_upload(
        params_b, scheme_b, family_b8):
    # No server listening: the client must fail on connect, not mid-upload.
    addresses = [("127.0.0.1", 1)] * (2 * scheme_b.n)
    with pytest.raises(OSError):
        run_query(addresses, params_b, family_b8, scheme_b,
                  alpha=1, beta=1, seed=0, x=1)


def test_divergent_databases_detected(params_b, scheme_b, family_b8):
    with contextlib.ExitStack() as stack:
        servers = [stack.enter_context(EvalServer(
                       i, params_b, family_b8, scheme_b, [1] * 8,
                       hashlib.sha256(bytes([i == 0])).digest()))  # one differs
                   for i in range(2 * scheme_b.n)]
        with pytest.raises(QueryError, match="divergent"):
            run_query(_addresses(servers), params_b, family_b8, scheme_b,
                      alpha=1, beta=1, seed=0, pir=True)


# ---------------------------------------------------------------------------
# Database file handling.
# ---------------------------------------------------------------------------

def test_load_database(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text("0\n3\n4\n")
    entries, digest = load_database(str(path), 5)
    assert entries == [0, 3, 4]
    assert digest == hashlib.sha256(path.read_bytes()).digest()
    path.write_bytes(b"0\r\n1\r\n")
    assert load_database(str(path), 5)[0] == [0, 1]


def test_load_database_rejects_bad_lines(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text("0\nx\n")
    with pytest.raises(ParameterError):
        load_database(str(path), 5)
    path.write_text("0\n7\n")
    with pytest.raises(ParameterError):
        load_database(str(path), 5)
    # int() reads each of these as a residue; none is ASCII decimal.
    for line in ("1_0", "+3", "\u0663", "-0"):
        path.write_text(f"0\n{line}\n", encoding="utf-8")
        with pytest.raises(ParameterError, match="line 2 is not a decimal"):
            load_database(str(path), 5)
    # More digits than int() reads: out of range, or a padded residue.
    path.write_text("1" * 5000 + "\n")
    with pytest.raises(ParameterError, match="line 1 out of range"):
        load_database(str(path), 5)
    path.write_text("0" * 5000 + "3\n")
    assert load_database(str(path), 5)[0] == [3]
    # Two lines: a form feed or \x1c does not end a line.
    path.write_bytes(b"1\f0\n1\x1c1\n")
    with pytest.raises(ParameterError, match="line 1 is not a decimal"):
        load_database(str(path), 5)
    # A blank line before the last residue would shift every later entry;
    # blank lines after it are kept out.
    for text in ("1\n\n0\n", "1\n \t\n0\n"):
        path.write_text(text)
        with pytest.raises(ParameterError, match="db line 2 is empty"):
            load_database(str(path), 5)
    path.write_text("1\n0\n\n \n")
    assert load_database(str(path), 5)[0] == [1, 0]


# ---------------------------------------------------------------------------
# Transcript privacy witness: the bytes a single server receives are its
# key and the public input.  The share section over all blinds has the
# same exact multiset of wire bytes for two different functions.
# ---------------------------------------------------------------------------

def test_transcript_share_bytes_identical(params_b, scheme_b, family_b2):
    f0 = PointFunction(2, 5, 1, 1)
    f1 = PointFunction(2, 5, 2, 3)
    report = check_distribution_equality(params_b, family_b2, scheme_b,
                                         f0, f1)
    assert not report.skipped and report.ok
