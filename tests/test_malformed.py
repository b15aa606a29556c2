"""Malformed artifacts and unreachable servers get typed errors.

deserialize_key is fed arbitrary bytes, and the four JSON loaders are fed
arbitrary JSON values and fixture artifacts with one key dropped or one
value swapped for a value of another JSON type.  Every call either
returns or raises ParameterError, KeyParseError or ArtifactMismatchError.
Generated numbers stay within [-4, 4], so no input can build a field
above TABLE_LIMIT; the loaders are run under a guard that checks this.
The CLI maps the same inputs to exit 2, and an unreachable server to
exit 1 with "query failed", without a traceback.
"""

import json
import random
import socket
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itdpf.cli import main
from itdpf.dpf import (PointFunction, deserialize_key, key_from_json,
                       key_to_json, keygen, serialize_key)
from itdpf.errors import ArtifactMismatchError, KeyParseError, ParameterError
from itdpf.field import TABLE_LIMIT, Field
from itdpf.interpolation import build_scheme, scheme_from_json, scheme_to_json
from itdpf.matching import family_from_json, family_to_json, trivial_family
from itdpf.params import (build_params, digest_bytes, params_from_json,
                          params_to_json)

TYPED = (ParameterError, KeyParseError, ArtifactMismatchError)

PARAMS = build_params([2, 3], 5)
SCHEME = build_scheme(PARAMS)
FAMILY = trivial_family(PARAMS.M, 2)
DIGEST = digest_bytes(params_to_json(PARAMS))
KEYS = keygen(PARAMS, FAMILY, SCHEME, PointFunction(2, 5, 1, 1),
              random.Random(0))
ARTIFACTS = {
    "params": params_to_json(PARAMS),
    "scheme": scheme_to_json(SCHEME),
    "family": family_to_json(FAMILY),
    "key": key_to_json(PARAMS, SCHEME.n, KEYS[SCHEME.n + 1], DIGEST),
}
LOADERS = {
    "params": params_from_json,
    "scheme": lambda data: scheme_from_json(PARAMS, data),
    "family": family_from_json,
    "key": lambda data: key_from_json(PARAMS, SCHEME.n, data,
                                      expected_digest=DIGEST),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4)
    | st.floats(-4, 4, allow_nan=False) | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=10)


def _json_type(value):
    """The JSON type of a decoded value; ints and floats are both numbers."""
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, int) else type(value)


def _paths(value, path=()):
    """Paths to the values of an artifact; long lists contribute their
    first two entries."""
    yield path
    if isinstance(value, dict):
        for name, child in value.items():
            yield from _paths(child, path + (name,))
    elif isinstance(value, list):
        for i, child in enumerate(value[:2]):
            yield from _paths(child, path + (i,))


@st.composite
def mutated_artifacts(draw):
    """(loader name, bytes): one artifact with one key dropped, or one
    value swapped for a value of another JSON type."""
    name = draw(st.sampled_from(sorted(ARTIFACTS)))
    obj = json.loads(ARTIFACTS[name])
    path = draw(st.sampled_from(list(_paths(obj))[1:]))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values.filter(
            lambda v: _json_type(v) != _json_type(old)))
    return name, json.dumps(obj).encode()


@contextmanager
def field_guard():
    """Fail if any Field built inside the block is above TABLE_LIMIT."""
    init = Field.__init__

    def guarded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert self.order <= TABLE_LIMIT, f"built a field of order {self.order}"

    with mock.patch.object(Field, "__init__", guarded):
        yield


def _load(name, data):
    with field_guard():
        try:
            LOADERS[name](data)
        except TYPED:
            pass


def test_fixture_artifacts_load():
    for name, data in ARTIFACTS.items():
        LOADERS[name](data)


@given(st.binary(max_size=64)
       | st.binary(max_size=64).map(lambda b: b"IDPF\x01" + b)
       | st.sampled_from([serialize_key(PARAMS, k) for k in KEYS]).flatmap(
           lambda blob: st.integers(0, len(blob) - 1).map(
               lambda i: blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])))
def test_deserialize_key_arbitrary_bytes(data):
    try:
        deserialize_key(PARAMS, SCHEME.n, data)
    except (KeyParseError, ParameterError):
        pass


@given(st.sampled_from(sorted(LOADERS)),
       json_values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=32))
def test_loaders_arbitrary_json(name, data):
    _load(name, data)


@given(mutated_artifacts())
def test_loaders_mutated_artifacts(case):
    _load(*case)


# ---------------------------------------------------------------------------
# CLI exit codes.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    for name, data in ARTIFACTS.items():
        (root / f"{name}.json").write_bytes(data)
    return root


def _with(name, **fields):
    return json.dumps({**json.loads(ARTIFACTS[name]), **fields})


CLI_CASES = [
    ("key", "not_an_object", "[]"),
    ("key", "index_not_integer", _with("key", i="x")),
    ("key", "mask_not_a_list", _with("key", omega=5)),
    ("key", "mask_entry_not_a_string", _with("key", omega=[5])),
    ("family", "not_an_object", "[]"),
    ("family", "vector_entry_not_integer", _with("family", U=[["x", 0]] * 2)),
    ("scheme", "not_an_object", "[]"),
    ("scheme", "log_not_integer", _with("scheme", B_logs=[[1]] * SCHEME.n)),
    ("params", "not_an_object", "[]"),
    ("params", "vector_entry_not_integer", _with("params", zeta=["x", 0, 1])),
    ("params", "huge_prime_p", _with("params", p=2 ** 61 - 1)),
    ("params", "zero_modulus", _with("params", primes=[0], m=0, M=0)),
]


def _eval(artifact_dir, tmp_path, capsys, **override):
    argv = ["eval", "--x", "1"]
    for name in ("params", "scheme", "family", "key"):
        path = artifact_dir / f"{name}.json"
        if name in override:
            path = tmp_path / f"bad_{name}.json"
            path.write_text(override[name])
        argv += [f"--{name}", str(path)]
    rc = main(argv)
    return rc, capsys.readouterr().err


def test_cli_eval_accepts_fixture(artifact_dir, tmp_path, capsys):
    rc, err = _eval(artifact_dir, tmp_path, capsys)
    assert rc == 0 and not err


@pytest.mark.parametrize("name, text", [
    pytest.param(name, text, id=f"{name}-{case}")
    for name, case, text in CLI_CASES])
def test_cli_malformed_artifact_exits_2(artifact_dir, tmp_path, capsys,
                                        name, text):
    rc, err = _eval(artifact_dir, tmp_path, capsys, **{name: text})
    assert rc == 2
    assert err.startswith("parameter error:")
    assert "Traceback" not in err


def test_cli_query_closed_port_fails_cleanly(artifact_dir, capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    servers = ",".join([f"127.0.0.1:{port}"] * (2 * SCHEME.n))
    rc = main(["query", "--servers", servers, "--alpha", "1", "--beta", "1",
               "--x", "1", *(arg for name in ("params", "scheme", "family")
                             for arg in (f"--{name}",
                                         str(artifact_dir / f"{name}.json")))])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("query failed:") and "Traceback" not in err
