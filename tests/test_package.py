"""The package root re-exports nothing: code imports the modules it uses.

So importing the root, or one module, loads nothing else of the package.
Each check runs in a fresh interpreter, where no other test has loaded
the modules already.
"""

import os
import subprocess
import sys
from pathlib import Path

import itdpf

SRC = str(Path(itdpf.__file__).parents[1])


def _loaded_after(statement: str) -> list[str]:
    """The itdpf modules loaded by `statement` in a fresh interpreter."""
    probe = (f"import sys; {statement}; print(*sorted(m for m in sys.modules"
             " if m.partition('.')[0] == 'itdpf'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=60, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout.split()


def test_package_root_loads_no_submodule():
    assert _loaded_after("import itdpf") == ["itdpf"]


def test_protocol_loads_no_other_module():
    assert _loaded_after("import itdpf.protocol") == ["itdpf",
                                                      "itdpf.protocol"]


def test_serve_loads_neither_client_nor_oracles():
    """`itdpf serve` loads the CLI and runs the server it imports; the
    client and the oracles are loaded only by the commands that use
    them (query; verify and bench)."""
    assert _loaded_after("import itdpf.cli") == [
        "itdpf", "itdpf.cli", "itdpf.dpf", "itdpf.errors", "itdpf.field",
        "itdpf.interpolation", "itdpf.matching", "itdpf.params",
        "itdpf.protocol", "itdpf.server"]
