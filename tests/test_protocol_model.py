"""One evaluation server against a model of what it owes each connection.

Hypothesis drives up to four raw sockets against server 0 of an
in-process fleet (F_25, the basis family at h = 8, a db of 8 residues,
all 2n servers started through start_background).  The model tracks
which sockets are open and the key each holds; a refused upload keeps
the old key.  Every reply must equal what evaluate_key or pir_answer
give in process for that socket's key, or be an ERROR frame with the
code the model predicts (NO_KEY before any key), so never INTERNAL.
The server may close a socket only after an unrecoverable frame: a bad
magic, a bad version or a declared length above MAX_PAYLOAD, on each of
which it must close it.  Requests also arrive split in two halves with
a pause between them.

After each run every socket is closed; then a fresh run_query over the
fleet succeeds, and MAX_CONNECTIONS new connections to server 0 are all
answered within 1 s, so no handler slot was leaked.  IDLE_TIMEOUT_S is
patched to 2 s, far above any pause here; nothing about timing is
asserted beyond that bound.
"""

import hashlib
import random
import select
import socket
import time
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule,
                                 run_state_machine_as_test)

from itdpf import protocol, server as server_mod
from itdpf.client import run_query
from itdpf.dpf import (PointFunction, evaluate_key, keygen, pir_answer,
                       serialize_key)
from itdpf.interpolation import build_scheme
from itdpf.matching import trivial_family
from itdpf.params import build_params
from itdpf.server import EvalServer

PARAMS = build_params([2, 3], 5)
SCHEME = build_scheme(PARAMS)
N = 8
FAMILY = trivial_family(PARAMS.M, N)
DB = [random.Random(7).randrange(PARAMS.p) for _ in range(N)]
DIGEST = hashlib.sha256(
    ("\n".join(map(str, DB)) + "\n").encode()).digest()
KEY_SETS = [keygen(PARAMS, FAMILY, SCHEME, PointFunction(N, PARAMS.p, a, b),
                   random.Random(seed))
            for a, b, seed in ((1, 1, 0), (5, 3, 1), (8, 4, 2))]
OWN_KEYS = [keys[0] for keys in KEY_SETS]          # server 0's keys
EVALS = {key: [evaluate_key(PARAMS, FAMILY, SCHEME, key, x)
               for x in range(1, N + 1)] for key in OWN_KEYS}
PIRS = {key: pir_answer(PARAMS, FAMILY, SCHEME, key, DB) for key in OWN_KEYS}
_OWN = serialize_key(PARAMS, OWN_KEYS[0])
# Every byte flipped (a coefficient >= p, a bad magic, version or an
# index outside [0, 2n)) and every truncation is refused as BAD_REQUEST.
CORRUPT_KEYS = ([_OWN[:i] + bytes([_OWN[i] ^ 0xFF]) + _OWN[i + 1:]
                 for i in range(len(_OWN))]
                + [_OWN[:i] for i in range(len(_OWN))])
MAX_SOCKETS = 4
PAUSE_BUDGET_MS = 40    # summed over one run, so that 30 runs stay short


class Request(NamedTuple):
    kind: str
    arg: object
    frame: bytes


def _request(kind, msg_type, payload=b"", arg=None):
    return Request(kind, arg, protocol.pack(msg_type, payload))


def _eval(x):
    return _request("eval", protocol.EVAL_REQ, x.to_bytes(4, "big"), x)


def _upload(key):
    return _request("upload", protocol.KEY_UPLOAD, serialize_key(PARAMS, key),
                    key)


UPLOADS = st.one_of(
    st.sampled_from(OWN_KEYS).map(_upload),
    st.sampled_from([key for keys in KEY_SETS for key in keys[1:]]).map(
        lambda key: _request("wrong_index", protocol.KEY_UPLOAD,
                             serialize_key(PARAMS, key))),
    st.sampled_from(CORRUPT_KEYS).map(
        lambda data: _request("corrupt", protocol.KEY_UPLOAD, data)))
EVAL_REQS = st.one_of(
    st.integers(1, N).map(_eval),
    st.sampled_from([0, N + 1]).map(_eval),
    # Too short even when the three bytes hold an x in the domain.
    st.integers(0, N + 1).map(lambda x: _request(
        "eval_short", protocol.EVAL_REQ, x.to_bytes(3, "big"))))
PIR_REQS = st.one_of(
    st.just(_request("pir", protocol.PIR_REQ)),
    st.binary(min_size=1, max_size=8).map(
        lambda data: _request("pir_payload", protocol.PIR_REQ, data)))
UNKNOWN = st.builds(
    lambda t, data: _request("unknown", t, data, t),
    st.integers(0, 255).filter(lambda t: t not in (
        protocol.KEY_UPLOAD, protocol.EVAL_REQ, protocol.PIR_REQ)),
    st.binary(max_size=8))
UNRECOVERABLE = st.one_of(
    st.binary(min_size=4, max_size=4).filter(lambda m: m != protocol.MAGIC)
    .map(lambda magic: magic + bytes([protocol.VERSION, protocol.EVAL_REQ])
         + (4).to_bytes(4, "big")),
    st.integers(0, 255).filter(lambda v: v != protocol.VERSION)
    .map(lambda version: protocol.MAGIC
         + bytes([version, protocol.EVAL_REQ]) + (4).to_bytes(4, "big")),
    st.integers(protocol.MAX_PAYLOAD + 1, 2 ** 32 - 1)
    .map(lambda length: protocol.MAGIC
         + bytes([protocol.VERSION, protocol.KEY_UPLOAD])
         + length.to_bytes(4, "big")))
SOCKET = st.integers(0, MAX_SOCKETS - 1)


def predict(request, key):
    """The reply the server owes `request` on a connection holding `key`
    (the exact frame, or an error code) and the key held after it."""
    if request.kind == "upload":
        return protocol.pack(protocol.KEY_UPLOAD), request.arg
    if request.kind == "wrong_index":
        return protocol.ERR_KEY_INDEX, key
    if request.kind in ("corrupt", "pir_payload", "unknown"):
        return protocol.ERR_BAD_REQUEST, key
    if key is None:
        return protocol.ERR_NO_KEY, key
    if request.kind == "pir":
        return protocol.pack(protocol.PIR_RESP, PIRS[key].to_bytes(2, "big")
                             + DIGEST), key
    if request.kind == "eval" and 1 <= request.arg <= N:
        return protocol.pack(protocol.EVAL_RESP, EVALS[key][request.arg - 1]
                             .to_bytes(2, "big")), key
    return protocol.ERR_BAD_REQUEST, key    # x outside [1, N], short payload


class Connection:
    def __init__(self, sock):
        self.sock = sock
        self.key = None


def _closed_by_peer(sock) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:    # closed with bytes still unread
        return True


class ServerModel(RuleBasedStateMachine):
    def __init__(self, servers):
        super().__init__()
        self.servers = servers
        self.address = ("127.0.0.1", servers[0].port)
        self.conns = []
        self.pause_left_ms = PAUSE_BUDGET_MS

    def _exchange(self, i, request, split=None, pause=0.0):
        conn = self.conns[i % len(self.conns)]
        expected, key_after = predict(request, conn.key)
        if split is None:
            conn.sock.sendall(request.frame)
        else:
            conn.sock.sendall(request.frame[:split])
            time.sleep(pause)
            conn.sock.sendall(request.frame[split:])
        reply = protocol.recv_message(conn.sock)
        if isinstance(expected, int):
            assert (reply.type, reply.error_code()) == (
                protocol.ERROR, expected), reply
        else:
            assert protocol.pack(reply.type, reply.payload) == expected
        conn.key = key_after

    @initialize(key=st.sampled_from(OWN_KEYS))
    def open_socket_with_key(self, key):
        # A run starts with a key held, so a refused upload or a request
        # that must not touch the key meets one more often.
        self.open_socket()
        self._exchange(0, _upload(key))

    @precondition(lambda self: len(self.conns) < MAX_SOCKETS)
    @rule()
    def open_socket(self):
        sock = socket.create_connection(self.address, timeout=5)
        # A second half is sent at once, not held back for the ACK of
        # the first (Nagle).
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.conns.append(Connection(sock))

    @precondition(lambda self: self.conns)
    @rule(i=SOCKET)
    def close_socket(self, i):
        self.conns.pop(i % len(self.conns)).sock.close()

    @precondition(lambda self: self.conns)
    @rule(i=SOCKET, request=UPLOADS)
    def upload(self, i, request):
        self._exchange(i, request)

    @precondition(lambda self: self.conns)
    @rule(i=SOCKET, request=EVAL_REQS)
    def evaluate(self, i, request):
        self._exchange(i, request)

    @precondition(lambda self: self.conns)
    @rule(i=SOCKET, request=PIR_REQS)
    def retrieve(self, i, request):
        self._exchange(i, request)

    @precondition(lambda self: self.conns)
    @rule(i=SOCKET, request=UNKNOWN)
    def unknown_type(self, i, request):
        self._exchange(i, request)

    @precondition(lambda self: self.conns)
    @rule(i=SOCKET, request=st.one_of(UPLOADS, EVAL_REQS, PIR_REQS, UNKNOWN),
          cut=st.integers(0, 2 ** 16), pause_ms=st.integers(0, 20))
    def send_in_halves(self, i, request, cut, pause_ms):
        split = 1 + cut % (len(request.frame) - 1)
        pause_ms = min(pause_ms, self.pause_left_ms)
        self.pause_left_ms -= pause_ms
        self._exchange(i, request, split, pause_ms / 1000)

    @precondition(lambda self: self.conns)
    @rule(i=SOCKET, header=UNRECOVERABLE)
    def unrecoverable_frame(self, i, header):
        conn = self.conns.pop(i % len(self.conns))
        with conn.sock:
            conn.sock.sendall(header)
            assert _closed_by_peer(conn.sock)

    @invariant()
    def open_sockets_are_open_and_drained(self):
        """No open socket was closed by the server or holds bytes that
        no request asked for."""
        if self.conns:
            ready, _, _ = select.select([c.sock for c in self.conns], [], [],
                                        0)
            assert not ready

    def teardown(self):
        for conn in self.conns:
            conn.sock.close()
        self.conns.clear()
        addresses = [("127.0.0.1", s.port) for s in self.servers]
        result = run_query(addresses, PARAMS, FAMILY, SCHEME, alpha=3,
                           beta=1, seed=3, pir=True)
        assert result.value == DB[2]
        # Every handler slot of server 0 is free again: that many new
        # connections are all answered within 1 s.
        socks = [socket.create_connection(self.address, timeout=1)
                 for _ in range(server_mod.MAX_CONNECTIONS)]
        try:
            deadline = time.monotonic() + 1
            for sock in socks:
                sock.sendall(protocol.pack(protocol.EVAL_REQ,
                                           (1).to_bytes(4, "big")))
            for sock in socks:
                sock.settimeout(max(0.001, deadline - time.monotonic()))
                assert protocol.recv_message(sock).error_code() == (
                    protocol.ERR_NO_KEY)
        finally:
            for sock in socks:
                sock.close()


@pytest.fixture
def fleet():
    servers = [EvalServer(i, PARAMS, FAMILY, SCHEME, DB, DIGEST)
               for i in range(2 * SCHEME.n)]
    for server in servers:
        server.start_background()
    yield servers
    for server in servers:
        server.shutdown()


def test_server_follows_the_model(fleet, monkeypatch):
    monkeypatch.setattr(server_mod, "IDLE_TIMEOUT_S", 2.0)
    run_state_machine_as_test(
        lambda: ServerModel(fleet),
        settings=settings(max_examples=30, stateful_step_count=40))
