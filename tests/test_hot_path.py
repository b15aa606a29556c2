"""The query path runs on integers: sparse rows, subgroup logs, one codec.

A server parses a key, checks it and evaluates it without a single
Field.pow: share entries are looked up in the log index of H, the
monomial is read from H by its log, and evaluation walks the support of
u_x, never the dense row.  The key codec packs and unpacks all
coefficients with one struct call per key, at coefficient width 1 and 2,
and a coefficient >= p is refused at the byte offset 7 + k*width.
"""

import random
from unittest import mock

import pytest

from itdpf.dpf import (KEY_HEADER_LEN, PointFunction, check_key, coeff_width,
                       deserialize_key, evaluate_all, evaluate_key, keygen,
                       serialize_key)
from itdpf.errors import KeyParseError
from itdpf.field import Field
from itdpf.interpolation import build_scheme
from itdpf.matching import MatchingFamily, trivial_family
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
    if fixture == "wide":
        params, scheme = wide
    else:
        params = request.getfixturevalue(f"params_{fixture}")
        scheme = request.getfixturevalue(f"scheme_{fixture}")
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
