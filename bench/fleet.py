"""A loopback fleet of `itdpf serve` processes, one per key index.

Servers start one after another with the same command line that
`scripts/run_pir_demo.py` uses, and each must print its JSON ready line
before the next one starts.  `Fleet` owns the processes: closing it
terminates and reaps every server and closes its pipes, whether the run
succeeded, failed a check or was interrupted.  Each server runs in its
own session, so Ctrl-C reaches only the benchmark, which then shuts the
fleet down in order.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
CLK_TCK = os.sysconf("SC_CLK_TCK")
TRACED_LAUNCHER = Path(__file__).resolve().with_name("traced_server.py")


class FleetError(RuntimeError):
    """A server failed to start or died."""


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_peak_rss_mib(pid: int) -> float:
    """VmHWM of a live process, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise FleetError(f"no VmHWM for pid {pid}")


class Fleet:
    """2n server processes on 127.0.0.1, index i listening on addresses[i].

    With `spans_dir` set, each server starts through the traced launcher
    and writes its spans to `spans_dir/server_<i>.json` when terminated.
    """

    def __init__(self, src: Path, artifacts: dict[str, Path], servers: int,
                 spans_dir: Path | None = None):
        self.procs: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []
        self.start_s: list[float] = []
        self.spans_dir = spans_dir
        env = dict(os.environ, PYTHONPATH=str(src))
        try:
            for i in range(servers):
                self._start_one(i, artifacts, env)
        except BaseException:
            self.close()
            raise

    def _start_one(self, index: int, artifacts: dict[str, Path], env) -> None:
        serve = ["serve", "--index", str(index), "--port", "0",
                 "--params", str(artifacts["params"]),
                 "--scheme", str(artifacts["scheme"]),
                 "--family", str(artifacts["family"]),
                 "--db", str(artifacts["db"])]
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "itdpf"] + serve
        else:
            spans = self.spans_dir / f"server_{index}.json"
            argv = [sys.executable, str(TRACED_LAUNCHER), str(spans)] + serve
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        self.procs.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        try:
            event = json.loads(line)
        except ValueError:
            raise FleetError(f"server {index} gave no ready line "
                             f"(exit code {proc.poll()})") from None
        if event.get("event") != "ready" or event.get("index") != index:
            raise FleetError(f"server {index} sent a bad ready line {line!r}")
        self.start_s.append(time.perf_counter() - t0)
        self.addresses.append(("127.0.0.1", int(event["port"])))

    def dead(self) -> list[int]:
        """Indices of servers that have exited."""
        return [i for i, p in enumerate(self.procs) if p.poll() is not None]

    def pin(self, cpu: int) -> None:
        """Let every server run on `cpu` only."""
        for proc in self.procs:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:
                pass                     # an exited server shows in dead()

    def cpu_s(self) -> float:
        """Summed CPU time of the whole fleet so far."""
        return sum(proc_cpu_s(p.pid) for p in self.procs)

    def peak_rss_mib(self) -> float:
        return max(proc_peak_rss_mib(p.pid) for p in self.procs)

    def close(self) -> dict[int, bytes]:
        """Terminate, reap and close the pipes of every server; return the
        stderr of each server that wrote any."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        errors = {}
        for index, proc in enumerate(self.procs):
            try:
                _, err = proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
            if err:
                errors[index] = err
        self.procs = []
        return errors
