"""The query path runs on integers: sparse rows, subgroup logs, one codec.

A server parses a key, checks it and evaluates it without a single
Field.pow: share entries are looked up in the log index of H, the
monomial is read from H by its log, and evaluation walks the support of
u_x, never the dense row.  A PIR request is answered by pir_answer
alone, never by evaluate_key or evaluate_all.  The key codec maps
elements to packed coefficient bytes through the field's byte tables,
byte-identical to a struct packing at coefficient width 1 and 2, and a
coefficient >= p is refused at the byte offset 7 + k*width by the table
codec and by the struct codec that fields above TABLE_LIMIT use.
"""

import random
import struct
from unittest import mock

import pytest

from itdpf import dpf, protocol, server
from itdpf.dpf import (KEY_HEADER_LEN, KEY_MAGIC, KEY_VERSION, PointFunction,
                       check_key, coeff_width, deserialize_key, evaluate_all,
                       evaluate_key, keygen, serialize_key)
from itdpf.errors import KeyParseError
from itdpf.field import Field
from itdpf.interpolation import build_scheme
from itdpf.matching import MatchingFamily, product_family, trivial_family
from itdpf.oracles import convert_share
from itdpf.params import build_params


@pytest.fixture(scope="module")
def wide():
    """m = 2, p = 257: tau = 1 and two bytes per coefficient."""
    params = build_params((2,), 257)
    assert params.tau == 1 and coeff_width(params.p) == 2
    return params, build_scheme(params)


def _reference(params, family, scheme, key, x):
    conv = convert_share(params, family, scheme, key.index % scheme.n, x,
                         key.share)
    inner = params.field.zero
    for a, b in zip(key.mask, conv):
        inner = inner + a * b
    return inner.constant_term


class _DenseRowsUnread(tuple):
    """Rows of U that fail the test when anything reads them."""

    def __getitem__(self, i):
        raise AssertionError("the dense rows of U were read")

    def __iter__(self):
        raise AssertionError("the dense rows of U were read")


def _forbidden(name):
    def call(*args):
        raise AssertionError(f"{name} on the query path")
    return call


@pytest.mark.parametrize("fixture, h", [("a", 16), ("b", 8)])
def test_query_path_without_field_pow_or_dense_rows(request, fixture, h):
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    family = trivial_family(params.M, h)
    func = PointFunction(h, params.p, 3, 1)
    keys = keygen(params, family, scheme, func, random.Random(9))
    wire = [serialize_key(params, key) for key in keys]
    expected = [[_reference(params, family, scheme, key, x)
                 for x in range(1, h + 1)] for key in keys]

    family.supports        # the sparse view, computed once per family
    object.__setattr__(family, "U", _DenseRowsUnread(family.U))
    with mock.patch.object(Field, "pow", _forbidden("Field.pow")), \
            mock.patch.object(MatchingFamily, "u", _forbidden("family.u")):
        assert len(keys) == 2 * scheme.n
        for data, key, values in zip(wire, keys, expected):
            parsed = deserialize_key(params, scheme.n, data)
            assert parsed == key
            check_key(params, scheme, h, parsed)
            assert [evaluate_key(params, family, scheme, parsed, x)
                    for x in range(1, h + 1)] == values
            assert evaluate_all(params, family, scheme, parsed) == values
        keygen(params, family, scheme, func, random.Random(9))
    assert [sum(col) % params.p for col in zip(*expected)] == [
        1 if x == 3 else 0 for x in range(1, h + 1)]


def test_width_two_round_trip_and_evaluation(wide):
    params, scheme = wide
    family = trivial_family(params.M, 6)
    for alpha, beta in ((1, 256), (4, 1), (6, 200)):
        func = PointFunction(6, params.p, alpha, beta)
        keys = keygen(params, family, scheme, func, random.Random(alpha))
        outputs = []
        for key in keys:
            data = serialize_key(params, key)
            assert len(data) == KEY_HEADER_LEN + 2 * 7 * 2
            assert data[KEY_HEADER_LEN:KEY_HEADER_LEN + 2] == (
                key.mask[0].constant_term.to_bytes(2, "little"))
            parsed = deserialize_key(params, scheme.n, data)
            assert parsed == key
            check_key(params, scheme, family.h, parsed)
            outputs.append(evaluate_all(params, family, scheme, parsed))
        assert [sum(col) % params.p for col in zip(*outputs)] == [
            beta if x == alpha else 0 for x in range(1, 7)]


def _fixture(request, wide, fixture):
    if fixture == "wide":
        return wide
    return (request.getfixturevalue(f"params_{fixture}"),
            request.getfixturevalue(f"scheme_{fixture}"))


def _without_byte_tables():
    """The struct codec that fields above TABLE_LIMIT use."""
    return mock.patch.object(Field, "byte_codec", lambda self, width: None)


@pytest.mark.parametrize("fixture", ["a", "b", "wide"])
def test_pir_request_is_one_contraction(request, wide, fixture):
    params, scheme = _fixture(request, wide, fixture)
    for family in (trivial_family(params.M, 6), product_family(params, 6)):
        rng = random.Random(4)
        db = [rng.randrange(params.p) for _ in range(family.size)]
        key = keygen(params, family, scheme,
                     PointFunction(family.size, params.p, 2, 1), rng)[0]
        expected = sum(y * d for y, d in zip(
            evaluate_all(params, family, scheme, key), db)) % params.p

        srv = server.EvalServer(key.index, params, family, scheme, db)
        try:
            ack, stored = srv._handle(protocol.Message(
                protocol.KEY_UPLOAD, serialize_key(params, key)), None)
            assert ack == protocol.pack(protocol.KEY_UPLOAD)
            assert stored == key
            family.supports
            object.__setattr__(family, "U", _DenseRowsUnread(family.U))
            with mock.patch.object(Field, "pow", _forbidden("Field.pow")), \
                    mock.patch.object(dpf, "evaluate_key",
                                      _forbidden("evaluate_key")), \
                    mock.patch.object(dpf, "evaluate_all",
                                      _forbidden("evaluate_all")), \
                    mock.patch.object(server, "evaluate_key",
                                      _forbidden("evaluate_key")):
                reply = srv._handle_pir(stored)
        finally:
            srv.shutdown()
        assert reply == protocol.pack(
            protocol.PIR_RESP, expected.to_bytes(2, "big") + b"\x00" * 32)


@pytest.mark.parametrize("fixture", ["a", "b", "wide"])
def test_table_codec_matches_struct_packing(request, wide, fixture):
    params, scheme = _fixture(request, wide, fixture)
    assert params.field.byte_codec(coeff_width(params.p)) is not None
    fmt = "B" if coeff_width(params.p) == 1 else "H"
    family = trivial_family(params.M, 5)
    for seed in range(3):
        for key in keygen(params, family, scheme,
                          PointFunction(5, params.p, 4, 1),
                          random.Random(seed)):
            coeffs = [c for e in key.mask + key.share for c in e.coeffs]
            packed = (KEY_MAGIC + bytes([KEY_VERSION])
                      + key.index.to_bytes(2, "big")
                      + struct.pack(f"<{len(coeffs)}{fmt}", *coeffs))
            assert serialize_key(params, key) == packed
            assert deserialize_key(params, scheme.n, packed) == key
            with _without_byte_tables():
                assert serialize_key(params, key) == packed
                assert deserialize_key(params, scheme.n, packed) == key


def _codec_cases():
    """(fixture, vector, element, coefficient) for the first, a middle
    and the last element of the mask and of the share."""
    for fixture in ("a", "b", "wide"):
        for vector in ("mask", "share"):
            for element, coeff in (("first", "first"), ("middle", "last"),
                                   ("last", "last")):
                yield fixture, vector, element, coeff


@pytest.mark.parametrize("fixture, vector, element, coeff",
                         list(_codec_cases()))
def test_out_of_range_coefficient_offset(request, wide, fixture, vector,
                                         element, coeff):
    _check_offset(*_fixture(request, wide, fixture), vector, element, coeff)


@pytest.mark.parametrize("fixture, vector, element, coeff",
                         list(_codec_cases()))
def test_out_of_range_coefficient_offset_struct_codec(request, wide, fixture,
                                                      vector, element, coeff):
    params, scheme = _fixture(request, wide, fixture)
    with _without_byte_tables():
        _check_offset(params, scheme, vector, element, coeff)


def _check_offset(params, scheme, vector, element, coeff):
    h = 4
    family = trivial_family(params.M, h)
    key = keygen(params, family, scheme, PointFunction(h, params.p, 2, 1),
                 random.Random(5))[1]
    data = bytearray(serialize_key(params, key))
    width, tau = coeff_width(params.p), params.tau
    e = {"first": 0, "middle": h // 2, "last": h}[element]
    e += {"mask": 0, "share": h + 1}[vector]
    k = e * tau + {"first": 0, "last": tau - 1}[coeff]
    for bad in (params.p, 256 ** width - 1):
        corrupt = bytearray(data)
        corrupt[KEY_HEADER_LEN + k * width:KEY_HEADER_LEN + (k + 1) * width] = (
            bad.to_bytes(width, "little"))
        with pytest.raises(KeyParseError,
                           match=f"coefficient {bad} out of range") as info:
            deserialize_key(params, scheme.n, bytes(corrupt))
        assert info.value.offset == KEY_HEADER_LEN + k * width
        # A second bad coefficient after the first does not move it.
        corrupt[-width:] = bad.to_bytes(width, "little")
        with pytest.raises(KeyParseError) as info:
            deserialize_key(params, scheme.n, bytes(corrupt))
        assert info.value.offset == KEY_HEADER_LEN + k * width
