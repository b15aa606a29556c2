"""Query client for the multi-server deployment.

The client plays the trusted dealer: it generates the 2n keys of a
point function, uploads exactly one key per server, then either
evaluates a single input or retrieves a database entry privately.  The
2n connections open in one ExitStack, every one of them before any key
byte is sent, so an unreachable server aborts the query with no partial
disclosure, and every connection opened is closed when the query ends or
fails.
"""

from __future__ import annotations

import contextlib
import random
import socket
from dataclasses import dataclass

from . import protocol
from .dpf import PointFunction, check_input, keygen, serialize_key
from .errors import ParameterError, QueryError
from .interpolation import InterpolationScheme
from .matching import MatchingFamily
from .params import DpfParams


@dataclass(frozen=True)
class QueryResult:
    value: int
    responses: tuple[int, ...]
    db_digest: str | None = None


def _ask(sock: socket.socket, msg_type: int, payload: bytes = b""
         ) -> protocol.Message:
    """The reply to one request, if it has the shape protocol.SHAPES
    gives; QueryError otherwise."""
    reply = protocol.request(sock, msg_type, payload)
    error = protocol.reply_error(msg_type, reply)
    if error:
        raise QueryError(error)
    return reply


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
    if x is not None:
        check_input(family, x)
    request = ((protocol.PIR_REQ, b"") if pir else
               (protocol.EVAL_REQ, x.to_bytes(protocol.X_BYTES, "big")))

    rng = random.SystemRandom() if seed is None else random.Random(seed)
    keys = keygen(params, family, scheme, func, rng)
    with contextlib.ExitStack() as stack:
        socks = [stack.enter_context(
                     socket.create_connection((host, port), timeout=10))
                 for host, port in addresses]
        for sock, key in zip(socks, keys):
            _ask(sock, protocol.KEY_UPLOAD, serialize_key(params, key))
        responses, digests = [], set()
        for sock in socks:
            value, digest = protocol.read_residue(_ask(sock, *request))
            if value >= params.p:
                raise QueryError(
                    f"reply residue {value} is not below p={params.p}")
            responses.append(value)
            digests.add(digest)

    if len(digests) != 1:
        raise QueryError("servers reported divergent database digests")
    return QueryResult(value=sum(responses) % params.p,
                       responses=tuple(responses),
                       db_digest=digests.pop().hex() if pir else None)
