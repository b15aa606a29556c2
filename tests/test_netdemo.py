import hashlib
import random
import socket
import time

import pytest

from itdpf import protocol, server as server_mod
from itdpf.client import QueryError, run_query
from itdpf.dpf import PointFunction, keygen, serialize_key
from itdpf.errors import ParameterError
from itdpf.matching import product_family
from itdpf.oracles import check_distribution_equality
from itdpf.server import EvalServer, load_database


@pytest.fixture
def fleet(params_b, scheme_b, family_b8):
    """2n in-process servers over loopback sockets, with a database."""
    rng = random.Random(99)
    db = [rng.randrange(5) for _ in range(8)]
    raw = ("\n".join(str(v) for v in db) + "\n").encode()
    digest = hashlib.sha256(raw).digest()
    servers = [
        EvalServer(i, params_b, family_b8, scheme_b, db, digest)
        for i in range(2 * scheme_b.n)
    ]
    for server in servers:
        server.start_background()
    yield servers, db
    for server in servers:
        server.shutdown()


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
    servers = [EvalServer(i, params_a, family, scheme_a, db)
               for i in range(2 * scheme_a.n)]
    for server in servers:
        server.start_background()
    try:
        for alpha in (1, 2, 22, 43, 64):
            result = run_query(_addresses(servers), params_a, family,
                               scheme_a, alpha=alpha, beta=1, seed=alpha,
                               pir=True)
            assert result.value == db[alpha - 1]
    finally:
        for server in servers:
            server.shutdown()


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
        server = EvalServer(0, params_b, family_b8, scheme_b)
        server.start_background()
        try:
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                assert protocol.request(sock, protocol.KEY_UPLOAD,
                                        blob).type == protocol.KEY_UPLOAD
                return [protocol.request(sock, protocol.EVAL_REQ,
                                         x.to_bytes(4, "big")).payload
                        for x in range(1, 9)]
        finally:
            server.shutdown()

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
    n2 = 2 * scheme_b.n
    db = [1] * 8
    servers = []
    try:
        for i in range(n2):
            digest = hashlib.sha256(bytes([i == 0])).digest()  # one differs
            servers.append(EvalServer(i, params_b, family_b8, scheme_b,
                                      db, digest))
        for s in servers:
            s.start_background()
        with pytest.raises(QueryError, match="divergent"):
            run_query(_addresses(servers), params_b, family_b8, scheme_b,
                      alpha=1, beta=1, seed=0, pir=True)
    finally:
        for s in servers:
            s.shutdown()


# ---------------------------------------------------------------------------
# Database file handling.
# ---------------------------------------------------------------------------

def test_load_database(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text("0\n3\n4\n")
    entries, digest = load_database(str(path), 5)
    assert entries == [0, 3, 4]
    assert digest == hashlib.sha256(path.read_bytes()).digest()


def test_load_database_rejects_bad_lines(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text("0\nx\n")
    with pytest.raises(ParameterError):
        load_database(str(path), 5)
    path.write_text("0\n7\n")
    with pytest.raises(ParameterError):
        load_database(str(path), 5)


# ---------------------------------------------------------------------------
# Transcript privacy witness: the bytes a single server receives are its
# key and the public input.  The share section over all blinds has the
# same exact multiset of wire bytes for two different functions.
# ---------------------------------------------------------------------------

def test_transcript_share_bytes_identical(params_b, scheme_b, family_b2):
    f0 = PointFunction(2, 5, 1, 1)
    f1 = PointFunction(2, 5, 2, 3)
    for slot in range(scheme_b.n):
        report = check_distribution_equality(params_b, family_b2, scheme_b,
                                             f0, f1, slot, as_bytes=True)
        assert not report.skipped and report.ok
