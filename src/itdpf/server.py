"""One evaluation server of the multi-server deployment.

The server holds the public artifacts (params, scheme, family) and an
optional database of residues mod p.  A client uploads the single key
addressed to this server's index, then issues point-evaluation or
private-retrieval requests; the server never sees any other key, so the
bytes it receives are one key plus public inputs.

An upload is checked (dpf.check_key) before it is stored, so a
malformed key is refused at upload instead of failing every later
request.  The stored key slot is guarded by a lock; a later upload
replaces it so one long-running server can serve many independent
queries.  Evaluation is pure, hence concurrent connections need no
further coordination.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading

from . import protocol
from .dpf import (DpfKey, check_key, deserialize_key, evaluate_all,
                  evaluate_key)
from .errors import KeyParseError, ParameterError
from .interpolation import InterpolationScheme
from .matching import MatchingFamily
from .params import DpfParams


def load_database(path: str, p: int) -> tuple[list[int], bytes]:
    """Newline-delimited decimal residues mod p; digest is the sha256 of
    the raw file bytes so divergent replicas are detectable."""
    with open(path, "rb") as fh:
        raw = fh.read()
    entries = []
    for line_no, line in enumerate(raw.decode().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError as exc:
            raise ParameterError(f"db line {line_no} is not an integer") from exc
        if not 0 <= value < p:
            raise ParameterError(f"db line {line_no} out of range mod {p}")
        entries.append(value)
    return entries, hashlib.sha256(raw).digest()


class EvalServer:
    """TCP server evaluating one key slot."""

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
        self._key: DpfKey | None = None
        self._key_lock = threading.Lock()
        self._sock = socket.create_server((host, port))
        # Set once here: shutdown() may close the socket before the
        # accept loop starts, and a closed socket just ends that loop.
        self._sock.settimeout(0.2)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        max_threads = int(os.environ.get("IDPF_THREADS", "8"))
        self._conn_slots = threading.Semaphore(max(1, max_threads))

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._conn_slots.acquire()
            t = threading.Thread(target=self._serve_connection, args=(conn,),
                                 daemon=True)
            t.start()

    def start_background(self) -> threading.Thread:
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t

    def shutdown(self):
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass

    # -- request handling -----------------------------------------------------

    def _serve_connection(self, conn: socket.socket):
        try:
            with conn:
                while True:
                    try:
                        msg = protocol.recv_message(conn)
                    except (ConnectionError, protocol.WireError):
                        return
                    reply = self._handle(msg)
                    protocol.send_message(conn, reply)
        finally:
            self._conn_slots.release()

    def _handle(self, msg: protocol.Message) -> bytes:
        try:
            if msg.type == protocol.KEY_UPLOAD:
                return self._handle_upload(msg.payload)
            if msg.type == protocol.EVAL_REQ:
                return self._handle_eval(msg.payload)
            if msg.type == protocol.PIR_REQ:
                return self._handle_pir()
            # Unknown type: answer with an error, keep the connection open.
            return protocol.error_message(
                protocol.ERR_BAD_REQUEST, f"unknown message type {msg.type}")
        except (ParameterError, KeyParseError) as exc:
            return protocol.error_message(protocol.ERR_BAD_REQUEST, str(exc))
        except Exception as exc:  # never crash the connection loop
            return protocol.error_message(protocol.ERR_INTERNAL, repr(exc))

    def _handle_upload(self, payload: bytes) -> bytes:
        key = deserialize_key(self.params, self.scheme.n, payload)
        if key.index != self.index:
            return protocol.error_message(
                protocol.ERR_KEY_INDEX,
                f"key index {key.index} does not match server {self.index}")
        check_key(self.params, self.scheme, self.family.h, key)
        with self._key_lock:
            self._key = key
        return protocol.pack(protocol.KEY_UPLOAD)  # bare ack

    def _current_key(self) -> DpfKey | None:
        with self._key_lock:
            return self._key

    def _handle_eval(self, payload: bytes) -> bytes:
        key = self._current_key()
        if key is None:
            return protocol.error_message(protocol.ERR_NO_KEY,
                                          "no key uploaded yet")
        if len(payload) != 4:
            return protocol.error_message(protocol.ERR_BAD_REQUEST,
                                          "EVAL_REQ payload must be 4 bytes")
        x = int.from_bytes(payload, "big")
        y = evaluate_key(self.params, self.family, self.scheme, key, x)
        return protocol.pack(protocol.EVAL_RESP, y.to_bytes(2, "big"))

    def _handle_pir(self) -> bytes:
        key = self._current_key()
        if key is None:
            return protocol.error_message(protocol.ERR_NO_KEY,
                                          "no key uploaded yet")
        if self.db is None:
            return protocol.error_message(protocol.ERR_BAD_REQUEST,
                                          "server has no database loaded")
        mask = evaluate_all(self.params, self.family, self.scheme, key)
        total = sum(m * d for m, d in zip(mask, self.db)) % self.params.p
        return protocol.pack(protocol.PIR_RESP,
                             total.to_bytes(2, "big") + self.db_digest)


def run_server(index: int, port: int, params: DpfParams,
               family: MatchingFamily, scheme: InterpolationScheme,
               db_path: str | None = None, host: str = "127.0.0.1",
               ready_line: bool = True) -> None:
    """Blocking entry point used by the CLI `serve` subcommand."""
    db = digest = None
    if db_path is not None:
        db, digest = load_database(db_path, params.p)
    server = EvalServer(index, params, family, scheme, db,
                        digest or b"\x00" * 32, host, port)
    if ready_line:
        print(json.dumps({"event": "ready", "index": server.index,
                          "port": server.port}, sort_keys=True), flush=True)
    server.serve_forever()
