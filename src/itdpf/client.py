"""Query client for the multi-server deployment.

The client plays the trusted dealer: it generates the 2n keys of a
point function, uploads exactly one key per server, then either
evaluates a single input or retrieves a database entry privately.  All
connections are established before any key byte is sent, so an
unreachable server aborts the query with no partial disclosure.
"""

from __future__ import annotations

import random
import socket
from dataclasses import dataclass

from . import protocol
from .dpf import PointFunction, keygen, serialize_key
from .errors import ParameterError
from .interpolation import InterpolationScheme
from .matching import MatchingFamily
from .params import DpfParams


class QueryError(RuntimeError):
    """A server answered with an error or the replies were inconsistent."""


@dataclass(frozen=True)
class QueryResult:
    value: int
    responses: tuple[int, ...]
    db_digest: str | None = None


def _connect_all(addresses) -> list[socket.socket]:
    socks = []
    try:
        for host, port in addresses:
            socks.append(socket.create_connection((host, port), timeout=10))
    except OSError:
        for s in socks:
            s.close()
        raise
    return socks


# Payload bytes of each reply type: a bare upload ack, a 2-byte residue,
# and a residue followed by the 32-byte db digest.
_REPLY_SIZES = {protocol.KEY_UPLOAD: 0, protocol.EVAL_RESP: 2,
               protocol.PIR_RESP: 34}


def _expect(msg: protocol.Message, expected_type: int) -> protocol.Message:
    if msg.type == protocol.ERROR:
        if not msg.payload:
            raise QueryError("server error without an error code")
        raise QueryError(f"server error {msg.error_name()}: "
                         f"{msg.payload[1:].decode(errors='replace')}")
    if msg.type != expected_type:
        raise QueryError(f"unexpected reply type {msg.type}")
    if len(msg.payload) != _REPLY_SIZES[expected_type]:
        raise QueryError(f"reply type {msg.type} has {len(msg.payload)} "
                         f"payload bytes, expected "
                         f"{_REPLY_SIZES[expected_type]}")
    return msg


def _residue(msg: protocol.Message, p: int) -> int:
    value = int.from_bytes(msg.payload[:2], "big")
    if value >= p:
        raise QueryError(f"reply residue {value} is not below p={p}")
    return value


def run_query(addresses, params: DpfParams, family: MatchingFamily,
              scheme: InterpolationScheme, alpha: int, beta: int,
              seed: int | None = None, x: int | None = None,
              pir: bool = False) -> QueryResult:
    """Generate keys, upload them, and run one evaluation or PIR round.

    `addresses` must list exactly 2n (host, port) pairs, one per key
    index in order.  Keygen draws from random.SystemRandom; a seed
    gives the keys of random.Random(seed) instead, to reproduce a query.
    Responses are summed mod p.  An error reply, a reply of the wrong
    type or size, or a residue not below p, raises QueryError.
    """
    if (x is None) == (not pir):
        raise ParameterError("exactly one of x= or pir=True must be given")
    n = scheme.n
    if len(addresses) != 2 * n:
        raise ParameterError(
            f"need exactly {2 * n} servers, got {len(addresses)}")
    func = PointFunction(family.size, params.p, alpha, beta)
    if x is not None and not 1 <= x <= family.size:
        raise ParameterError(f"x={x} outside the domain [1, {family.size}]")

    rng = random.SystemRandom() if seed is None else random.Random(seed)
    keys = keygen(params, family, scheme, func, rng)
    socks = _connect_all(addresses)
    try:
        for sock, key in zip(socks, keys):
            reply = protocol.request(sock, protocol.KEY_UPLOAD,
                                     serialize_key(params, key))
            _expect(reply, protocol.KEY_UPLOAD)

        responses = []
        digests = []
        for sock in socks:
            if pir:
                reply = _expect(protocol.request(sock, protocol.PIR_REQ),
                                protocol.PIR_RESP)
                digests.append(reply.payload[2:])
            else:
                reply = _expect(
                    protocol.request(sock, protocol.EVAL_REQ,
                                     x.to_bytes(4, "big")),
                    protocol.EVAL_RESP)
            responses.append(_residue(reply, params.p))
    finally:
        for s in socks:
            s.close()

    digest_hex = None
    if pir:
        if len(set(digests)) != 1:
            raise QueryError("servers reported divergent database digests")
        digest_hex = digests[0].hex()
    value = sum(responses) % params.p
    return QueryResult(value=value, responses=tuple(responses),
                       db_digest=digest_hex)
