"""Malformed keys are refused before evaluation, at every entry point.

A key built for another h, a zero share point, a share entry outside the
order-m subgroup, or a share point of another slot must raise
ParameterError from dpf.check_key, be answered BAD_REQUEST at upload
(leaving the server without a key), make `itdpf eval` exit 2 and fail
`itdpf verify --keys` by name.
"""

import json
import random
import socket

import pytest

from itdpf import protocol
from itdpf.cli import main
from itdpf.dpf import (DpfKey, PointFunction, Share, check_key, keygen,
                       serialize_key)
from itdpf.errors import ParameterError
from itdpf.matching import trivial_family
from itdpf.server import EvalServer


def _key0(params, scheme, family, seed=0):
    return keygen(params, family, scheme,
                  PointFunction(family.size, params.p, 1, 1),
                  random.Random(seed))[0]


def _with_share(key, vector):
    return DpfKey(key.index, key.half, key.slot, key.mask,
                  Share(key.slot, tuple(vector)))


def _malformed(params, scheme, family, case):
    key = _key0(params, scheme, family)
    share = list(key.share.vector)
    if case == "wrong_h":
        return _key0(params, scheme, trivial_family(params.M, family.h - 2))
    if case == "zero_point":
        share[-1] = params.field.zero
    elif case == "outside_subgroup":
        share[0] = params.field.smallest_generator()   # order 24, not 6
    elif case == "other_slot_point":
        share[-1] = scheme.points[1]
    return _with_share(key, share)


CASES = ["wrong_h", "zero_point", "outside_subgroup", "other_slot_point"]


def test_check_key_accepts_generated_keys(params_b, scheme_b, family_b8):
    keys = keygen(params_b, family_b8, scheme_b, PointFunction(8, 5, 2, 3),
                  random.Random(1))
    for key in keys:
        check_key(params_b, scheme_b, family_b8.h, key)


@pytest.mark.parametrize("case", CASES)
def test_check_key_rejects(params_b, scheme_b, family_b8, case):
    key = _malformed(params_b, scheme_b, family_b8, case)
    with pytest.raises(ParameterError):
        check_key(params_b, scheme_b, family_b8.h, key)


def test_check_key_rejects_index_slot_disagreement(params_b, scheme_b,
                                                   family_b8):
    key = _key0(params_b, scheme_b, family_b8)
    moved = DpfKey(scheme_b.n + 1, 1, key.slot, key.mask, key.share)
    with pytest.raises(ParameterError, match="does not match its slot"):
        check_key(params_b, scheme_b, family_b8.h, moved)


@pytest.fixture
def server0(params_b, scheme_b, family_b8):
    server = EvalServer(0, params_b, family_b8, scheme_b, db=[0] * 8)
    server.start_background()
    yield server
    server.shutdown()


@pytest.mark.parametrize("case", CASES)
def test_malformed_upload_is_bad_request(server0, params_b, scheme_b,
                                         family_b8, case):
    blob = serialize_key(params_b, _malformed(params_b, scheme_b, family_b8,
                                              case))
    with socket.create_connection(("127.0.0.1", server0.port)) as sock:
        reply = protocol.request(sock, protocol.KEY_UPLOAD, blob)
        assert reply.type == protocol.ERROR
        assert reply.error_name() == "BAD_REQUEST"
        for msg_type, payload in ((protocol.EVAL_REQ, (1).to_bytes(4, "big")),
                                  (protocol.PIR_REQ, b"")):
            reply = protocol.request(sock, msg_type, payload)
            assert reply.type == protocol.ERROR
            assert reply.error_name() == "NO_KEY"


def test_malformed_upload_keeps_previous_key(server0, params_b, scheme_b,
                                             family_b8):
    good = serialize_key(params_b, _key0(params_b, scheme_b, family_b8))
    bad = serialize_key(params_b, _malformed(params_b, scheme_b, family_b8,
                                             "zero_point"))
    x = (3).to_bytes(4, "big")
    with socket.create_connection(("127.0.0.1", server0.port)) as sock:
        assert protocol.request(sock, protocol.KEY_UPLOAD,
                                good).type == protocol.KEY_UPLOAD
        before = protocol.request(sock, protocol.EVAL_REQ, x)
        assert protocol.request(sock, protocol.KEY_UPLOAD,
                                bad).error_name() == "BAD_REQUEST"
        after = protocol.request(sock, protocol.EVAL_REQ, x)
        assert before.type == after.type == protocol.EVAL_RESP
        assert before.payload == after.payload


def test_shutdown_before_serve(params_b, scheme_b, family_b8):
    server = EvalServer(0, params_b, family_b8, scheme_b)
    server.shutdown()
    server.serve_forever()            # returns at once, raises nothing


def _cli_artifacts(tmp_path, h_values):
    paths = {"params": str(tmp_path / "params.json"),
             "scheme": str(tmp_path / "scheme.json")}
    assert main(["params", "--primes", "2,3", "--p", "5",
                 "--out", paths["params"]]) == 0
    assert main(["scheme", "--params", paths["params"],
                 "--out", paths["scheme"]]) == 0
    for h in h_values:
        paths[h] = str(tmp_path / f"family_{h}.json")
        assert main(["family", "--params", paths["params"], "--h", str(h),
                     "--out", paths[h]]) == 0
    return paths


def test_cli_eval_wrong_h_key_is_usage_error(tmp_path, capsys):
    paths = _cli_artifacts(tmp_path, (6, 8))
    keydir = tmp_path / "keys"
    assert main(["keygen", "--params", paths["params"],
                 "--scheme", paths["scheme"], "--family", paths[6],
                 "--alpha", "2", "--beta", "1", "--seed", "3",
                 "--outdir", str(keydir)]) == 0
    key = str(keydir / "key_000.json")
    common = ["--key", key, "--params", paths["params"],
              "--scheme", paths["scheme"], "--family", paths[8]]
    capsys.readouterr()
    assert main(["eval", "--x", "3"] + common) == 2
    assert main(["fulleval"] + common) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err and "Traceback" not in err

    keys = sorted(str(p) for p in keydir.glob("key_*.json"))
    assert main(["verify", "--params", paths["params"],
                 "--scheme", paths["scheme"], "--family", paths[8],
                 "--checks", "2", "--keys", *keys]) == 1
    reports = {r["check"]: r
               for r in json.loads(capsys.readouterr().out.splitlines()[-1])
               ["reports"]}
    assert len(reports["key_check"]["failures"]) == len(keys)
    assert "skipped" in reports["key_reconstruction_shape"]
