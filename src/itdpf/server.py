"""One evaluation server of the multi-server deployment.

The server holds the public artifacts (params, scheme, family) and an
optional database of residues mod p.  A client uploads the single key
addressed to this server's index, then issues point-evaluation or
private-retrieval requests; the server never sees any other key, so the
bytes it receives are one key plus public inputs.

A request is checked in the order the protocol module gives: type, shape
(with x in [1, N]), then the key, so a malformed frame is BAD_REQUEST
with or without one.  An upload is checked (dpf.check_key) before it is
stored, so a malformed key is refused at upload instead of failing every
later request.  The key lives with its connection: the handler holds it
and passes it to each request, so a request is answered with the key
uploaded on the same connection, never with another client's.  A later
upload on that connection replaces it.  Evaluation is pure, and the
shared artifacts are complete before the first connection and only read
after: the field builds its tables, build_params the encodings and log
index of H, and each MatchingFamily its supports, all at construction.
So concurrent connections need no lock.  At most MAX_CONNECTIONS
connections are served at once, and one that stays silent, or leaves a
begun frame unfinished, for IDLE_TIMEOUT_S is closed, so idle or
trickling clients cannot hold every handler slot.

Each connection gets a fresh handler thread, started with
_thread.start_new_thread: threading.Thread.start() would block the
accept loop until the new thread reports that it runs, which costs
every connection extra thread switches.  An exception escaping a
handler still reaches sys.unraisablehook.

A `with EvalServer(...)` block serves on a daemon thread; leaving it
calls shutdown(), which wakes a waiting accept at once, and joins it.
The listening socket has no timeout: the wake-up is shutting it down
(SHUT_RDWR), which ends a blocked accept on Linux.

A PIR request is answered by dpf.pir_answer, with no full-domain
evaluate_all: over F_{2^tau} with tables, ct of two field sums over the
rows with db_x = 1, each an XOR of encodings; on any other field, one
contraction of the database against the family's supports on integer
encodings, using ct(y) = enc(y) mod p.
"""

from __future__ import annotations

import _thread
import contextlib
import hashlib
import json
import socket
import threading

from . import protocol
from .dpf import (DpfKey, check_input, check_key, deserialize_key,
                  evaluate_key, pir_answer)
from .errors import ParameterError
from .interpolation import InterpolationScheme
from .matching import MatchingFamily
from .params import DpfParams

MAX_CONNECTIONS = 8     # connection handlers running at once
# Shorter than the client's 10 s timeout, so a client queued behind idle
# connections is served before it gives up.
IDLE_TIMEOUT_S = 5.0
# How often the accept loop checks for shutdown while it waits for a free
# handler slot.  accept itself needs no poll: shutdown() wakes it.
POLL_S = 0.2


def load_database(path: str, p: int) -> tuple[list[int], bytes]:
    """Decimal residues mod p, one per line, ASCII digits only (no sign,
    underscore or other script).  Only a newline ends a line, so a form
    feed or file separator inside one leaves it invalid rather than
    splitting it.  Blank lines may follow the last residue but not
    precede it, where one would shift every later entry.  The digest is
    the sha256 of the raw file bytes so divergent replicas are
    detectable."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        lines = raw.decode().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read db {path}: {exc}") from exc
    while lines and not lines[-1].strip():
        lines.pop()
    entries = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            raise ParameterError(f"db line {line_no} is empty")
        digits = line.lstrip("0") or "0"
        if not (digits.isascii() and digits.isdigit()):
            raise ParameterError(f"db line {line_no} is not a decimal residue")
        # int() refuses a string of more than 4300 digits.
        value = int(digits) if len(digits) <= len(str(p)) else p
        if value >= p:
            raise ParameterError(f"db line {line_no} out of range mod {p}")
        entries.append(value)
    return entries, hashlib.sha256(raw).digest()


class EvalServer:
    """TCP server evaluating the key uploaded on each connection."""

    def __init__(self, index: int, params: DpfParams, family: MatchingFamily,
                 scheme: InterpolationScheme, db: list[int] | None = None,
                 db_digest: bytes = b"\x00" * 32, host: str = "127.0.0.1",
                 port: int = 0):
        n = scheme.n
        if not 0 <= index < 2 * n:
            raise ParameterError(f"server index {index} outside [0, {2 * n})")
        if db is not None and len(db) != family.size:
            raise ParameterError(
                f"db has {len(db)} entries, family domain is {family.size}")
        self.index = index
        self.params = params
        self.family = family
        self.scheme = scheme
        self.db = db
        self.db_digest = db_digest
        # Checked here: create_server leaks its socket on OverflowError.
        if not 0 <= port <= 65535:
            raise ParameterError(f"port {port} outside [0, 65535]")
        try:
            self._sock = socket.create_server((host, port))
        except OSError as exc:    # address in use, unknown or not local
            raise ParameterError(
                f"cannot listen on {host}:{port}: {exc}") from exc
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._conn_slots = threading.Semaphore(MAX_CONNECTIONS)

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:     # shut down, or closed before the loop began
                break
            if self._wait_for_slot():
                _thread.start_new_thread(self._serve_connection, (conn,))
            else:
                conn.close()    # shut down while every slot was held

    def _wait_for_slot(self) -> bool:
        """Take a handler slot, checking for shutdown in POLL_S steps;
        False, with no slot taken, once shut down."""
        while not self._conn_slots.acquire(timeout=POLL_S):
            if self._stop.is_set():
                return False
        return True

    def __enter__(self) -> EvalServer:
        self._accept = threading.Thread(target=self.serve_forever, daemon=True)
        self._accept.start()
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        # Bounded, so an accept loop that fails to stop is left alive for
        # the caller to see instead of hanging it; it stops within POLL_S.
        self._accept.join(1.0)

    def shutdown(self):
        """Stop accepting: a waiting accept returns at once, a wait for a
        slot within POLL_S.  Running handlers finish their connections."""
        self._stop.set()
        with contextlib.suppress(OSError):      # closed already
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()

    # -- request handling -----------------------------------------------------

    def _serve_connection(self, conn: socket.socket):
        key = None      # this connection's key, until it uploads one
        try:
            with conn:
                conn.settimeout(IDLE_TIMEOUT_S)
                while True:
                    msg = protocol.recv_message(conn)
                    reply, key = self._handle(msg, key)
                    protocol.send_message(conn, reply)
        except (ConnectionError, TimeoutError, protocol.WireError):
            pass    # the peer closed, went idle or broke the framing
        finally:
            self._conn_slots.release()

    def _handle(self, msg: protocol.Message, key: DpfKey | None
                ) -> tuple[bytes, DpfKey | None]:
        """The reply to one request on a connection holding `key`, and
        the key the connection holds after it: type, shape, key, work.
        A refused upload keeps the connection's previous key."""
        try:
            error = protocol.request_error(msg)
            if error:
                raise ParameterError(error)
            if msg.type == protocol.KEY_UPLOAD:
                new = deserialize_key(self.params, self.scheme.n, msg.payload)
                if new.index != self.index:
                    return protocol.error_message(
                        protocol.ERR_KEY_INDEX, f"key index {new.index} "
                        f"does not match server {self.index}"), key
                check_key(self.params, self.scheme, self.family.h, new)
                return protocol.pack(protocol.KEY_UPLOAD), new  # bare ack
            if msg.type == protocol.EVAL_REQ:
                x = int.from_bytes(msg.payload, "big")
                check_input(self.family, x)
            if key is None:
                reply = protocol.error_message(protocol.ERR_NO_KEY,
                                               "no key uploaded yet")
            elif msg.type == protocol.PIR_REQ:
                reply = self._handle_pir(key)
            else:
                y = evaluate_key(self.params, self.family, self.scheme, key, x)
                reply = protocol.residue_reply(protocol.EVAL_RESP, y)
        except ParameterError as exc:
            reply = protocol.error_message(protocol.ERR_BAD_REQUEST, str(exc))
        except Exception as exc:  # never crash the connection loop
            reply = protocol.error_message(protocol.ERR_INTERNAL, repr(exc))
        return reply, key

    def _handle_pir(self, key: DpfKey) -> bytes:
        if self.db is None:
            return protocol.error_message(protocol.ERR_BAD_REQUEST,
                                          "server has no database loaded")
        total = pir_answer(self.params, self.family, self.scheme, key,
                           self.db)
        return protocol.residue_reply(protocol.PIR_RESP, total,
                                      self.db_digest)


def run_server(index: int, port: int, params: DpfParams,
               family: MatchingFamily, scheme: InterpolationScheme,
               db_path: str | None = None, host: str = "127.0.0.1") -> None:
    """Blocking entry point used by the CLI `serve` subcommand; prints one
    JSON `ready` line with the bound port before serving."""
    db = digest = None
    if db_path is not None:
        db, digest = load_database(db_path, params.p)
    server = EvalServer(index, params, family, scheme, db,
                        digest or b"\x00" * 32, host, port)
    print(json.dumps({"event": "ready", "index": server.index,
                      "port": server.port}, sort_keys=True), flush=True)
    server.serve_forever()
