"""Run `itdpf serve` with spans and counters around the server's layers.

    python bench/traced_server.py SPANS.json serve --index 0 --port 0 ...

Everything after the spans path is an `itdpf` command line.  Before the
CLI starts the server, this launcher wraps `deserialize_key`,
`evaluate_key`, `evaluate_all`, `protocol.recv_message` /
`send_message` and `Field.mul` / `Field.pow`.  A connection is one
query (the client opens a fresh connection per query), so the query id
is the ordinal of the connection's first frame.  A handler span runs
from the return of `recv_message` to the call of `send_message`.
Field operations are counted, not timed.  On SIGTERM the spans and
counts are written to SPANS.json and the process exits.
"""

from __future__ import annotations

import itertools
import json
import signal
import sys
import threading
import time

from tracing import FRAME_HEADER, REQUEST_KINDS, Recorder

from itdpf import cli, dpf, field, protocol, server


def instrument(rec: Recorder) -> dict:
    """Install the wrappers; return the per-query counters they fill."""
    local = rec.local
    queries = itertools.count()
    lock = threading.Lock()
    counts = {"field": {}, "frames": {}, "errors": {}}

    recv, send = protocol.recv_message, protocol.send_message

    def recv_message(sock):
        msg = recv(sock)
        if getattr(local, "qid", None) is None:
            with lock:
                local.qid = next(queries)
            local.ops = counts["field"].setdefault(local.qid, [0, 0])
            local.frames = counts["frames"].setdefault(local.qid, [0, 0])
        local.frames[0] += 1
        local.frames[1] += FRAME_HEADER + len(msg.payload)
        local.span = "server." + REQUEST_KINDS.get(msg.type, "other")
        local.handler_t0 = time.perf_counter()
        return msg

    def send_message(sock, data):
        rec.add(local.span, local.handler_t0, time.perf_counter())
        local.span = None
        local.frames[0] += 1
        local.frames[1] += len(data)
        if data[5] == protocol.ERROR:
            name = protocol.ERROR_NAMES.get(data[10], str(data[10]))
            with lock:
                counts["errors"][name] = counts["errors"].get(name, 0) + 1
        return send(sock, data)

    def counted(fn, slot):
        def op(*args):
            ops = getattr(local, "ops", None)
            if ops is not None:
                ops[slot] += 1
            return fn(*args)
        return op

    protocol.recv_message = recv_message
    protocol.send_message = send_message
    field.Field.mul = counted(field.Field.mul, 0)
    field.Field.pow = counted(field.Field.pow, 1)
    server.deserialize_key = rec.wrap(dpf.deserialize_key, "dpf.deserialize_key")
    server.evaluate_all = rec.wrap(dpf.evaluate_all, "dpf.evaluate_all")
    # evaluate_all calls evaluate_key through the dpf module's globals.
    dpf.evaluate_key = server.evaluate_key = rec.wrap(dpf.evaluate_key,
                                                      "dpf.evaluate_key")
    return counts


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    rec = Recorder()
    counts = instrument(rec)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    try:
        return cli.main(cli_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": rec.spans, **counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
