"""Binary wire protocol for the multi-server demo.

Frame layout (all lengths big-endian):

    4 bytes  magic "IDPF"
    1 byte   version (1)
    1 byte   message type
    4 bytes  payload length
    N bytes  payload

Payloads:
    KEY_UPLOAD  serialized key (binary form from the key module)
    EVAL_REQ    4-byte input x (1-based)
    EVAL_RESP   2-byte residue mod p
    PIR_REQ     empty
    PIR_RESP    2-byte residue mod p + 32-byte raw sha256 of the db file
    ERROR       1-byte code + utf-8 message
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
