"""Binary wire protocol for the multi-server demo: every message's shape.

Frame layout (all lengths big-endian):

    4 bytes  magic "IDPF"
    1 byte   version (1)
    1 byte   message type
    4 bytes  payload length
    N bytes  payload

SHAPES gives each request's payload and its reply's:

    KEY_UPLOAD  serialized key   ->  KEY_UPLOAD  empty (the ack)
    EVAL_REQ    4-byte input x   ->  EVAL_RESP   2-byte residue mod p
    PIR_REQ     empty            ->  PIR_RESP    residue + 32-byte db sha256
    any                          ->  ERROR       1-byte code + utf-8 text

A server checks a request's type and shape (request_error, then the
key codec or x in [1, N]) before its connection's key (NO_KEY), so the
error code depends only on the frame, the server and whether a key is
held.  A client checks each reply with reply_error.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

MAGIC = b"IDPF"
VERSION = 1

KEY_UPLOAD = 1
EVAL_REQ = 2
EVAL_RESP = 3
PIR_REQ = 4
PIR_RESP = 5
ERROR = 6

ERR_KEY_INDEX = 1
ERR_NO_KEY = 2
ERR_BAD_REQUEST = 3
ERR_INTERNAL = 5

ERROR_NAMES = {
    ERR_KEY_INDEX: "KEY_INDEX",
    ERR_NO_KEY: "NO_KEY",
    ERR_BAD_REQUEST: "BAD_REQUEST",
    ERR_INTERNAL: "INTERNAL",
}

X_BYTES = 4           # an EVAL_REQ's input x
RESIDUE_BYTES = 2     # a residue mod p, p <= field.MAX_P = 2^16
# Each request type: its name, its payload bytes (None: a key, which the
# key codec checks), the type of its reply and the reply's payload bytes.
SHAPES = {
    KEY_UPLOAD: ("KEY_UPLOAD", None, KEY_UPLOAD, 0),
    EVAL_REQ: ("EVAL_REQ", X_BYTES, EVAL_RESP, RESIDUE_BYTES),
    PIR_REQ: ("PIR_REQ", 0, PIR_RESP, RESIDUE_BYTES + 32),
}

_HEADER = 10
# The largest valid frame is a KEY_UPLOAD at h = matching.MAX_H over F_{2^31}
# (tau * width = 31 is the most that p <= MAX_P, p**tau < MAX_ORDER allow):
# 7 + 2 * 1025 * 31 = 63,557 bytes.
MAX_PAYLOAD = 1 << 16


class WireError(Exception):
    """Framing violation on the socket."""


@dataclass(frozen=True)
class Message:
    type: int
    payload: bytes

    def error_code(self) -> int:
        if self.type != ERROR or not self.payload:
            raise WireError("not an error message")
        return self.payload[0]

    def error_name(self) -> str:
        code = self.error_code()
        return ERROR_NAMES.get(code, str(code))


def pack(msg_type: int, payload: bytes = b"") -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise WireError("payload too large")
    return (MAGIC + bytes([VERSION, msg_type])
            + len(payload).to_bytes(4, "big") + payload)


def error_message(code: int, text: str = "") -> bytes:
    return pack(ERROR, bytes([code]) + text.encode())


def request_error(msg: Message) -> str | None:
    """Why a server refuses msg for its type or payload size, or None."""
    if msg.type not in SHAPES:
        return f"unknown message type {msg.type}"
    name, size, _, _ = SHAPES[msg.type]
    if size is None or len(msg.payload) == size:
        return None
    return f"{name} payload must be {f'{size} bytes' if size else 'empty'}"


def reply_error(request_type: int, msg: Message) -> str | None:
    """Why msg is not the reply SHAPES gives request_type, or None."""
    _, _, reply_type, size = SHAPES[request_type]
    if msg.type == ERROR:
        if not msg.payload:
            return "server error without an error code"
        return (f"server error {msg.error_name()}: "
                f"{msg.payload[1:].decode(errors='replace')}")
    if msg.type != reply_type:
        return f"unexpected reply type {msg.type}"
    if len(msg.payload) != size:
        return (f"reply type {msg.type} has {len(msg.payload)} payload "
                f"bytes, expected {size}")
    return None


def residue_reply(msg_type: int, value: int, digest: bytes = b"") -> bytes:
    """An EVAL_RESP frame, or with the db digest a PIR_RESP frame."""
    return pack(msg_type, value.to_bytes(RESIDUE_BYTES, "big") + digest)


def read_residue(msg: Message) -> tuple[int, bytes]:
    """The residue of an EVAL_RESP or PIR_RESP, and the digest after it."""
    return (int.from_bytes(msg.payload[:RESIDUE_BYTES], "big"),
            msg.payload[RESIDUE_BYTES:])


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """n bytes from sock: the first chunk itself when it holds them all,
    as it usually does on loopback, so no copy is made.  Once part has
    arrived, the rest must arrive within the socket's timeout in all,
    not per recv, so a peer that trickles bytes cannot hold the reader."""
    chunk = sock.recv(n)
    if len(chunk) == n:
        return chunk
    buf = bytearray(chunk)
    timeout = sock.gettimeout()
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while chunk and len(buf) < n:
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("frame not completed in time")
                sock.settimeout(left)
            chunk = sock.recv(n - len(buf))
            buf += chunk
    finally:
        if deadline is not None:
            sock.settimeout(timeout)
    if len(buf) < n:
        raise ConnectionError("peer closed the connection")
    return bytes(buf)


def recv_message(sock: socket.socket) -> Message:
    header = _recv_exact(sock, _HEADER)
    if header[:4] != MAGIC:
        raise WireError("bad frame magic")
    if header[4] != VERSION:
        raise WireError(f"unsupported protocol version {header[4]}")
    length = int.from_bytes(header[6:10], "big")
    if length > MAX_PAYLOAD:
        raise WireError("declared payload too large")
    payload = _recv_exact(sock, length) if length else b""
    return Message(header[5], payload)


def send_message(sock: socket.socket, data: bytes) -> None:
    sock.sendall(data)


def request(sock: socket.socket, msg_type: int, payload: bytes = b"") -> Message:
    send_message(sock, pack(msg_type, payload))
    return recv_message(sock)
