"""Malformed artifacts and unreachable servers get typed errors.

deserialize_key is fed arbitrary bytes, and the four JSON loaders are fed
arbitrary JSON values and fixture artifacts with one key dropped or one
value swapped for a value of another JSON type.  Every call either
returns or raises ParameterError, KeyParseError or ArtifactMismatchError.
params.json, scheme.json and family.json are also fed with one int
swapped for another int or one element string for another valid one;
what loads must write back the original bytes.  A family file must be
exactly the basis or the product family that its h and N rebuild.
protocol.recv_message is fed arbitrary frames, refuses a declared length
above MAX_PAYLOAD before reading the body, and MAX_PAYLOAD holds the
largest key that the size bounds allow.  The server's request handler
is fed arbitrary types and payloads, byte-flipped keys among them; no
request is answered ERR_INTERNAL.
Generated numbers stay within [-4, 4], so no input can build a field
above TABLE_LIMIT; the loaders are run under a guard that checks this.
The CLI maps the same inputs to exit 2, and an unreachable server to
exit 1 with "query failed", without a traceback; `serve` and `query`
map a bad address or db file to exit 2, and an output path that cannot
be written exits 2.  Parameters beyond the
size bounds exit 2 before anything is enumerated, and a scheme search
past its bound exits 2; those cases run in a memory-capped subprocess
with a timeout, because most used to hang.
"""

import json
import os
import random
import socket
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itdpf
from itdpf import protocol
from itdpf.cli import main
from itdpf.dpf import (PointFunction, deserialize_key, key_byte_length,
                       key_from_json, key_to_json, keygen, serialize_key)
from itdpf.errors import ArtifactMismatchError, KeyParseError, ParameterError
from itdpf.field import (MAX_ORDER, MAX_P, TABLE_LIMIT, Field,
                         find_irreducible, is_irreducible, is_prime)
from itdpf.interpolation import (MAX_SUBSETS, build_scheme, scheme_from_json,
                                 scheme_to_json)
from itdpf.matching import (MAX_H, MatchingFamily, certified_family,
                            family_from_json, family_to_json, trivial_family)
from itdpf.params import (build_params, canonical_set, digest_bytes,
                          params_from_json, params_to_json)
from itdpf.server import EvalServer

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
    "family": lambda data: family_from_json(PARAMS, data),
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
    # One except clause covers bad key bytes: the CLI and the server's
    # handler catch ParameterError alone.
    assert issubclass(KeyParseError, ParameterError)
    try:
        deserialize_key(PARAMS, SCHEME.n, data)
    except ParameterError:
        pass


@given(st.sampled_from(sorted(LOADERS)),
       json_values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=32))
def test_loaders_arbitrary_json(name, data):
    _load(name, data)


@given(mutated_artifacts())
def test_loaders_mutated_artifacts(case):
    _load(*case)


WRITERS = {"params": params_to_json, "scheme": scheme_to_json,
           "family": family_to_json}


def _leaf_paths(value, path=()):
    """Paths to the int and string leaves of an artifact."""
    if isinstance(value, dict):
        for name, child in value.items():
            yield from _leaf_paths(child, path + (name,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _leaf_paths(child, path + (i,))
    elif isinstance(value, (int, str)) and not isinstance(value, bool):
        yield path


element_strings = st.lists(st.integers(0, PARAMS.p - 1), min_size=PARAMS.tau,
                           max_size=PARAMS.tau).map(
                               lambda c: ",".join(map(str, c)))


@st.composite
def substituted_artifacts(draw):
    """(loader name, bytes): params.json, scheme.json or family.json with
    one int swapped for another int, or one element string for another
    valid element string."""
    name = draw(st.sampled_from(sorted(WRITERS)))
    obj = json.loads(ARTIFACTS[name])
    path = draw(st.sampled_from(list(_leaf_paths(obj))))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    old = parent[path[-1]]
    values = element_strings if isinstance(old, str) else st.integers(-4, 4)
    parent[path[-1]] = draw(values.filter(lambda v: v != old))
    return name, json.dumps(obj).encode()


@given(substituted_artifacts())
def test_loaders_same_type_substitution(case):
    """A well-typed edit is either refused or has no effect: what loads
    writes back the original bytes."""
    name, data = case
    with field_guard():
        try:
            loaded = LOADERS[name](data)
        except TYPED:
            return
    assert WRITERS[name](loaded) == ARTIFACTS[name]


# ---------------------------------------------------------------------------
# Wire frames and server requests.
# ---------------------------------------------------------------------------

frames = st.binary(max_size=64) | st.builds(
    lambda magic, version, msg_type, length, body: (
        magic + bytes([version, msg_type]) + length.to_bytes(4, "big") + body),
    st.just(protocol.MAGIC) | st.binary(min_size=4, max_size=4),
    st.just(protocol.VERSION) | st.integers(0, 255), st.integers(0, 255),
    st.integers(0, 80) | st.integers(0, 2 ** 32 - 1), st.binary(max_size=64))


@settings(max_examples=500)
@given(frames)
def test_recv_message_arbitrary_bytes(data):
    """A frame either parses to exactly what was sent or raises WireError
    or ConnectionError; the sender closes after writing."""
    sender, receiver = socket.socketpair()
    with sender, receiver:
        sender.sendall(data)
        sender.shutdown(socket.SHUT_WR)
        try:
            msg = protocol.recv_message(receiver)
        except (protocol.WireError, ConnectionError):
            return
    length = int.from_bytes(data[6:10], "big")
    assert data[:5] == protocol.MAGIC + bytes([protocol.VERSION])
    assert (msg.type, msg.payload) == (data[5], data[10:10 + length])
    assert len(msg.payload) == length


def test_largest_key_upload_fits_max_payload():
    """The largest valid frame is a KEY_UPLOAD at h = MAX_H over the
    field, within the size bounds, with the most key bytes per entry; a
    handler buffers no frame of more than twice that."""
    largest = 0
    for p in filter(is_prime, range(2, MAX_P + 1)):
        tau = 1
        while p ** (tau + 1) < MAX_ORDER:
            tau += 1
        largest = max(largest, key_byte_length(SimpleNamespace(p=p, tau=tau),
                                                MAX_H))
    assert largest == 7 + 2 * 1025 * 31
    assert largest <= protocol.MAX_PAYLOAD < 2 * largest
    assert len(protocol.pack(protocol.KEY_UPLOAD, bytes(largest))) == (
        10 + largest)


def test_oversized_length_is_refused_before_the_body():
    sender, receiver = socket.socketpair()
    with sender, receiver:
        sender.sendall(protocol.MAGIC
                       + bytes([protocol.VERSION, protocol.KEY_UPLOAD])
                       + (protocol.MAX_PAYLOAD + 1).to_bytes(4, "big")
                       + b"body")
        with pytest.raises(protocol.WireError, match="too large"):
            protocol.recv_message(receiver)
        assert receiver.recv(16) == b"body"     # not one body byte read


OWN_KEY = serialize_key(PARAMS, KEYS[SCHEME.n + 1])
payloads = (st.binary(max_size=64)
            | st.sampled_from([serialize_key(PARAMS, k) for k in KEYS])
            | st.integers(0, len(OWN_KEY) - 1).map(
                lambda i: OWN_KEY[:i] + bytes([OWN_KEY[i] ^ 0xFF])
                + OWN_KEY[i + 1:])
            | st.integers(0, 2 ** 32 - 1).map(lambda x: x.to_bytes(4, "big")))


@pytest.fixture(scope="module")
def handler():
    server = EvalServer(SCHEME.n + 1, PARAMS, FAMILY, SCHEME, db=[1, 4])
    yield server
    server.shutdown()


@settings(max_examples=300)
@given(st.lists(st.builds(protocol.Message, st.integers(0, 255), payloads),
                min_size=1, max_size=4))
def test_handler_never_answers_internal(handler, messages):
    """Any request sequence, run once on a connection with no key and once
    on one holding a valid key, gets replies whose error code, if any, is
    a specific one."""
    for key in (None, KEYS[SCHEME.n + 1]):
        for msg in messages:
            reply, key = handler._handle(msg, key)
            if reply[5] == protocol.ERROR:
                assert reply[10] != protocol.ERR_INTERNAL, reply


# ---------------------------------------------------------------------------
# CLI exit codes.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    return _write_artifacts(tmp_path_factory.mktemp("malformed"))


def _write_artifacts(root):
    for name, data in ARTIFACTS.items():
        (root / f"{name}.json").write_bytes(data)
    return root


def _artifact_args(root, names=("params", "scheme", "family")):
    return [arg for name in names
            for arg in (f"--{name}", str(root / f"{name}.json"))]


def _with(name, **fields):
    return json.dumps({**json.loads(ARTIFACTS[name]), **fields})


# What the randomized family search, since removed, wrote for this
# fixture at h = 4: a valid family that no loader can rebuild.
SEARCHED_FAMILY = (
    '{"M":30,"N":3,"U":[[3,15,27,29],[2,6,8,7],[25,17,15,6]],'
    '"V":[[12,20,2,0],[23,10,18,20],[2,29,23,2]],"certified":true,"h":4}')
# U = 6*I with the basis V: certified, but neither construction.
SCALED_BASIS_FAMILY = family_to_json(certified_family(
    MatchingFamily(PARAMS.M, 2, ((6, 0), (0, 6)), FAMILY.V),
    PARAMS.S_M)).decode()


KEY_OMEGA = json.loads(ARTIFACTS["key"])["omega"]
CLI_CASES = [
    ("key", "not_an_object", "[]"),
    ("key", "index_not_integer", _with("key", i="x")),
    ("key", "mask_not_a_list", _with("key", omega=5)),
    ("key", "mask_entry_not_a_string", _with("key", omega=[5])),
    ("key", "unknown_field", _with("key", note="x")),
    ("key", "non_canonical_element", _with("key", omega=[
        "0" + KEY_OMEGA[0].replace(",", " ,"), *KEY_OMEGA[1:]])),
    ("family", "not_an_object", "[]"),
    ("family", "vector_entry_not_integer", _with("family", U=[["x", 0]] * 2)),
    ("family", "vector_entry_float", _with("family", U=[[1.0, 0], [0, 1]])),
    ("family", "vector_entry_true", _with("family", U=[[True, 0], [0, 1]])),
    ("family", "not_certified", _with("family", certified=False)),
    ("family", "extra_field", _with("family", seed=0)),
    ("family", "searched_family", SEARCHED_FAMILY),
    ("family", "scaled_basis_family", SCALED_BASIS_FAMILY),
    ("scheme", "not_an_object", "[]"),
    ("scheme", "log_not_integer", _with("scheme", B_logs=[[1]] * SCHEME.n)),
    ("scheme", "log_boolean", _with("scheme", B_logs=[
        False, True, *SCHEME.point_logs[2:]])),
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
    assert err.startswith("parameter error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.fixture
def listening_port():
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock.getsockname()[1]


def _db(tmp_path, data):
    path = tmp_path / "db.txt"
    path.write_bytes(data)
    return str(path)


# 192.0.2.1 (TEST-NET-1) is no local address, so binding to it fails
# without a packet being sent.  An unresolvable host name would take
# the same path (socket.gaierror is an OSError) but needs a DNS query.
SERVE_CASES = {
    "port_above_65535": lambda tmp_path, port: ["--port", "70000"],
    "host_not_local": lambda tmp_path, port: ["--host", "192.0.2.1"],
    "port_in_use": lambda tmp_path, port: ["--port", str(port)],
    "db_missing": lambda tmp_path, port: ["--db", str(tmp_path / "no.db")],
    "db_not_utf8": lambda tmp_path, port: ["--db", _db(tmp_path, b"\xff\xfe")],
    "db_not_decimal": lambda tmp_path, port: ["--db", _db(tmp_path, b"1_0\n")],
}


@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_cli_serve_address_or_db_error_exits_2(artifact_dir, tmp_path, capsys,
                                               listening_port, case):
    """Each case fails before serve_forever, so no thread is started."""
    rc = main(["serve", "--index", "0", *_artifact_args(artifact_dir),
               *SERVE_CASES[case](tmp_path, listening_port)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parameter error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _regular_file(tmp_path):
    path = tmp_path / "file"
    path.write_text("")
    return str(path)


# A path below a regular file, or a directory where a file goes, cannot
# be written; each command says so instead of raising.
UNWRITABLE_CASES = {
    "family_out_below_a_file": lambda tmp_path: [
        "family", *_artifact_args(_write_artifacts(tmp_path), ["params"]),
        "--h", "2", "--out", _regular_file(tmp_path) + "/x.json"],
    "params_out_is_a_directory": lambda tmp_path: [
        "params", "--primes", "2,3", "--p", "5", "--out", str(tmp_path)],
    "keygen_outdir_is_a_file": lambda tmp_path: [
        "keygen", *_artifact_args(_write_artifacts(tmp_path)),
        "--alpha", "1", "--beta", "1", "--seed", "0",
        "--outdir", _regular_file(tmp_path)],
    "demo_workdir_is_a_file": lambda tmp_path: [
        "demo", "--workdir", _regular_file(tmp_path)],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_CASES))
def test_cli_unwritable_output_exits_2(tmp_path, capsys, case):
    rc = main(UNWRITABLE_CASES[case](tmp_path))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parameter error: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("port", ["0", "65536", "70000"])
def test_cli_query_port_out_of_range_exits_2(artifact_dir, capsys, port):
    """getaddrinfo would take a port above 65535 modulo 2^16."""
    servers = ",".join([f"127.0.0.1:{port}"] * (2 * SCHEME.n))
    rc = main(["query", "--servers", servers, "--alpha", "1", "--beta", "1",
               "--x", "1", *_artifact_args(artifact_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("parameter error:") and err.count("\n") == 1


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


# ---------------------------------------------------------------------------
# Size bounds.
# ---------------------------------------------------------------------------

# Each case exits in at most about 0.5 s; the timeout leaves room for a
# loaded host.  Before the bounds, all but the empty prime list ran for seconds
# to hours, and the large subgroup would have filled memory, hence the cap.
BOUND_TIMEOUT_S = 5
CAPPED_CLI = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from itdpf.cli import main; sys.exit(main(sys.argv[1:]))")


def _write_params(path, **fields):
    path.write_text(json.dumps({"e": 2, "n_target": 2, **fields}))
    return str(path)


def _huge_field_params(tmp_path):
    """A well-formed params file over F_{65521^16}: m = 3 divides p - 1,
    so gamma and H lie in the prime subfield."""
    p, tau = 65521, 16
    zeta = next([c, 1] + [0] * (tau - 2) + [1] for c in range(1, p)
                if is_irreducible([c, 1] + [0] * (tau - 2) + [1], p))
    g = next(g for g in range(2, p) if pow(g, 3, p) == 1)

    def const(c):
        return ",".join([str(c)] + ["0"] * (tau - 1))
    return _write_params(
        tmp_path / "huge_field.json", primes=[3], m=3, p=p, M=3 * p, tau=tau,
        zeta=zeta, gamma=const(g), H=[const(pow(g, k, p)) for k in range(3)],
        S_m=[0, 1], S_M=canonical_set(3 * p, [3, p]))


def _huge_subgroup_params(tmp_path):
    """F_{2^24} with m = (2^24 - 1)/3 = 5592405: loading used to build H."""
    primes = [3, 5, 7, 13, 17, 241]
    m = 5592405
    zeta = find_irreducible(2, 24)
    gamma = Field(2, 24).root_of_unity(m).as_string()
    return _write_params(
        tmp_path / "huge_subgroup.json", primes=primes, m=m, p=2, M=2 * m,
        tau=24, zeta=list(zeta), gamma=gamma, H=[gamma], S_m=[0], S_M=[0])


def _list_among_primes(tmp_path):
    """The odd fixture's params with a list among the primes: the product
    of the primes used to become a list of 2^40 entries."""
    return _write_params(tmp_path / "list_prime.json",
                         **{**json.loads(ARTIFACTS["params"]),
                            "primes": [2 ** 40, [0]]})


def _scheme_on(make_params):
    """`itdpf scheme` on the params file that make_params writes."""
    return lambda tmp_path: ["scheme", "--params", make_params(tmp_path),
                             "--out", str(tmp_path / "out.json")]


def _family_with_h(h, *flags):
    """`itdpf family --h h` on the fixture's params."""
    return lambda tmp_path: [
        "family", *_artifact_args(_write_artifacts(tmp_path), ["params"]),
        "--h", str(h), *flags, "--out", str(tmp_path / "out.json")]


def _loaded_basis_family(tmp_path):
    """`itdpf eval` with the basis family at h = N = MAX_H + 1 written
    by hand: the loader refuses its h before it rebuilds anything."""
    h = MAX_H + 1
    _write_artifacts(tmp_path)
    (tmp_path / "family.json").write_text(json.dumps({
        "M": PARAMS.M, "h": h, "N": h, "certified": True,
        "U": [[int(i == j) for j in range(h)] for i in range(h)],
        "V": [[int(i != j) for j in range(h)] for i in range(h)]}))
    return ["eval", *_artifact_args(tmp_path, sorted(ARTIFACTS)), "--x", "1"]


BOUND_CASES = {
    "order_2_to_32": ["params", "--primes", "3", "--p", "2", "--tau", "32"],
    "prime_m_near_2_to_61": ["params", "--primes", "2305843009213693951",
                             "--p", "2"],
    "p_above_2_to_16": ["params", "--primes", "7", "--p", "100000000000031"],
    "prime_p_near_2_to_61": ["params", "--primes", "7",
                             "--p", "2305843009213693951"],
    "m_of_six_primes": ["params", "--primes", "3,5,7,13,17,241", "--p", "2"],
    "no_prime": ["params", "--primes", ",", "--p", "2"],
    "loaded_order_65521_to_16": _scheme_on(_huge_field_params),
    "loaded_m_5592405": _scheme_on(_huge_subgroup_params),
    "loaded_list_among_primes": _scheme_on(_list_among_primes),
    "family_h_20000": _family_with_h(20000),
    "family_h_1025": _family_with_h(MAX_H + 1),
    "family_product_h_20000": _family_with_h(20000, "--product"),
    "family_product_h_33": _family_with_h(33, "--product"),   # N = 11^3
    "family_product_h_13": _family_with_h(13, "--product"),   # 13 % 3 != 0
    "bench_h_20000": lambda tmp_path: [
        "bench", *_artifact_args(_write_artifacts(tmp_path),
                                 ["params", "scheme"]),
        "--h-values", "20000"],
    "demo_h_20000": lambda tmp_path: [
        "demo", "--workdir", str(tmp_path / "demo"), "--h", "20000"],
    "loaded_family_h_1025": _loaded_basis_family,
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_cli_size_bounds_exit_2(tmp_path, case):
    argv = BOUND_CASES[case]
    argv = (argv(tmp_path) if callable(argv)
            else [*argv, "--out", str(tmp_path / "out.json")])
    env = {**os.environ, "PYTHONPATH": str(Path(itdpf.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, *argv],
        capture_output=True, text=True, timeout=BOUND_TIMEOUT_S, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parameter error:")
    assert "Traceback" not in proc.stderr


def test_cli_scheme_search_bound_exits_2(tmp_path):
    """`itdpf scheme` on four primes of m used to search C(1365, 9)
    subsets; it now gives up after MAX_SUBSETS of them, in about 1.5 s,
    and names the bound."""
    params = str(tmp_path / "params.json")
    assert main(["params", "--primes", "3,5,7,13", "--p", "2",
                 "--out", params]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(itdpf.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "scheme", "--params", params,
         "--out", str(tmp_path / "scheme.json")],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("parameter error: no interpolation set among "
                           f"the first {MAX_SUBSETS} subsets of H\n")


# json.loads raises RecursionError, not ValueError, on this.
DEEP = b"[" * 100000


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loaders_deep_nesting(name):
    with pytest.raises(ParameterError, match="nests too deeply"):
        LOADERS[name](DEEP)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_cli_deep_nesting_exits_2(artifact_dir, tmp_path, capsys, name):
    rc, err = _eval(artifact_dir, tmp_path, capsys, **{name: DEEP.decode()})
    assert rc == 2
    assert err.startswith("parameter error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_scheme_on_deep_params_exits_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_bytes(DEEP)
    env = {**os.environ, "PYTHONPATH": str(Path(itdpf.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "itdpf", "scheme", "--params", str(deep),
         "--out", str(tmp_path / "scheme.json")],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("parameter error:")
    assert proc.stderr.count("\n") == 1
