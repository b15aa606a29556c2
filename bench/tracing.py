"""In-memory spans around calls into the package, installed by patching.

A span is `(name, query_id, start, end, parent, tag)`: times are
`time.perf_counter()` seconds, `parent` is the name of the span open on
the same thread when this one started, and `tag` is a caller-chosen
detail (the server index of a client request).  Spans stay in a list
until the owner writes or analyses them; nothing is emitted while a
query runs.  Every patch is undone when the `Patches` context exits.
"""

from __future__ import annotations

import threading
import time

from itdpf import protocol

FRAME_HEADER = 10  # magic, version, type, 4-byte payload length
# Request type -> span suffix, shared by the client ("client.<kind>") and
# server ("server.<kind>") spans so that the two sides can be matched.
REQUEST_KINDS = {protocol.KEY_UPLOAD: "upload", protocol.EVAL_REQ: "eval",
                 protocol.PIR_REQ: "pir"}


class Patches:
    """Replace module or class attributes, restoring them on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class Recorder:
    """Collects spans; `local.qid` names the query the thread works on."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.local = threading.local()

    def add(self, name, t0, t1, parent=None, tag=None) -> None:
        self.spans.append((name, getattr(self.local, "qid", None), t0, t1,
                           parent, tag))

    def wrap(self, fn, name: str):
        """`fn` with a span per call, nested under the thread's open span."""
        local = self.local

        def traced(*args, **kwargs):
            parent = getattr(local, "span", None)
            local.span = name
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                local.span = parent
                self.add(name, t0, t1, parent)

        return traced
