"""The query path runs on integers: sparse rows, subgroup logs, one codec.

Keys hold integer encodings from keygen to the answer: keygen,
serialize_key, deserialize_key, check_key, evaluate_key and pir_answer
run without any Field arithmetic or decode, and agree with the
FieldElement reference oracles.convert_share.  With tables, evaluation
reads the logs of the share entries from the field's own tables and
never the log index of H, and it reads only the entries on the support
of u_x, never the dense row or the key's other entries.  A PIR
request is answered by pir_answer alone, never by evaluate_key or
evaluate_all.  The key codec maps
elements to packed coefficient bytes through the field's byte tables,
byte-identical to a struct packing at coefficient width 1 and 2, and a
coefficient >= p is refused at the byte offset 7 + k*width by the table
codec and by the struct codec that fields above TABLE_LIMIT use.  The
same params built with no tables (TABLE_LIMIT patched below the order)
give the same keys, bytes, rng state, outputs and answers, and a field
of either kind never writes to itself after construction; nor does a
request write to the params, family or scheme that a server shares.
"""

import functools
import random
import struct
from collections.abc import Mapping
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from unittest import mock

import pytest

from itdpf import dpf, protocol, server
from itdpf.dpf import (KEY_HEADER_LEN, KEY_MAGIC, KEY_VERSION, DpfKey,
                       PointFunction, check_key, coeff_width,
                       deserialize_key, evaluate_all, evaluate_key, keygen,
                       pir_answer, serialize_key)
from itdpf.errors import KeyParseError
from itdpf.field import Field
from itdpf.interpolation import build_scheme, scheme_from_json, scheme_to_json
from itdpf.matching import (MatchingFamily, family_from_json, family_to_json,
                            product_family, trivial_family)
from itdpf.oracles import reference_output
from itdpf.params import build_params, params_from_json, params_to_json


@pytest.fixture(scope="module")
def wide():
    """m = 2, p = 257: tau = 1 and two bytes per coefficient."""
    params = build_params((2,), 257)
    assert params.tau == 1 and coeff_width(params.p) == 2
    return params, build_scheme(params)


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


FIELD_ARITHMETIC = ("mul", "add", "sub", "neg", "const", "pow", "inv",
                    "decode")


@contextmanager
def _integers_only(family):
    """Fail on any Field arithmetic or decode, on family.u and on a read
    of the dense rows of U; the rows are put back on exit."""
    rows = family.U
    object.__setattr__(family, "U", _DenseRowsUnread(rows))
    try:
        with ExitStack() as stack:
            for name in FIELD_ARITHMETIC:
                stack.enter_context(mock.patch.object(
                    Field, name, _forbidden(f"Field.{name}")))
            stack.enter_context(mock.patch.object(
                MatchingFamily, "u", _forbidden("family.u")))
            yield
    finally:
        object.__setattr__(family, "U", rows)


@pytest.mark.parametrize("fixture, h", [("a", 16), ("b", 8), ("wide", 6)])
def test_query_path_without_field_pow_or_dense_rows(request, wide, fixture,
                                                    h):
    params, scheme = _fixture(request, wide, fixture)
    p = params.p
    for family in (trivial_family(params.M, h), product_family(params, 6)):
        size = family.size
        func = PointFunction(size, p, 3, 1 + 3 % (p - 1))
        db = [random.Random(size).randrange(p) for _ in range(size)]
        with _integers_only(family):
            keys = keygen(params, family, scheme, func, random.Random(9))
            parsed = [deserialize_key(params, scheme.n,
                                      serialize_key(params, key))
                      for key in keys]
            for key in parsed:
                check_key(params, scheme, family.h, key)
            values = [[evaluate_key(params, family, scheme, key, x)
                       for x in range(1, size + 1)] for key in parsed]
            assert [evaluate_all(params, family, scheme, key)
                    for key in parsed] == values
            answers = [pir_answer(params, family, scheme, key, db)
                       for key in parsed]
        assert parsed == keys and len(keys) == 2 * scheme.n
        assert values == [[reference_output(params, family, scheme, key, x)
                           for x in range(1, size + 1)] for key in keys]
        assert answers == [sum(d * y for d, y in zip(db, row)) % p
                           for row in values]
        assert [sum(col) % p for col in zip(*values)] == [
            func.beta if x == 3 else 0 for x in range(1, size + 1)]


class _UnreadableLogs(Mapping):
    """An H_log that fails the test when anything reads it."""

    def _read(self, *args):
        raise AssertionError("params.H_log was read")

    __getitem__ = __iter__ = __len__ = _read


@pytest.mark.parametrize("fixture", ["a", "b"])
def test_evaluation_reads_field_logs_on_the_support_only(request, fixture):
    """On a field with tables, evaluate_key, evaluate_all and pir_answer
    read the field's logs, never params.H_log, and evaluate_key(key, x)
    is the same with every mask and share entry off the support of u_x
    set to 0, so it reads no other entry."""
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    guarded = replace(params, H_log=_UnreadableLogs())
    p = params.p
    for family in (trivial_family(params.M, 8), product_family(params, 6)):
        size = family.size
        rng = random.Random(size)
        db = [rng.randrange(p) for _ in range(size)]
        keys = keygen(params, family, scheme,
                      PointFunction(size, p, 2, p - 1), rng)
        for key in keys:
            expected = [reference_output(params, family, scheme, key, x)
                        for x in range(1, size + 1)]
            assert [evaluate_key(guarded, family, scheme, key, x)
                    for x in range(1, size + 1)] == expected
            assert evaluate_all(guarded, family, scheme, key) == expected
            assert pir_answer(guarded, family, scheme, key, db) == (
                sum(d * y for d, y in zip(db, expected)) % p)
            for x, support in enumerate(family.supports, 1):
                on = {i for i, _ in support}
                holed = DpfKey(
                    key.index,
                    key.mask[:1] + tuple(w if i in on else 0
                                         for i, w in enumerate(key.mask[1:])),
                    tuple(c if i in on else 0
                          for i, c in enumerate(key.share)))
                assert evaluate_key(guarded, family, scheme, holed, x) == (
                    expected[x - 1])


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
                key.mask[0].to_bytes(2, "little"))     # tau = 1: enc = c_0
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


@pytest.fixture(scope="module")
def table_free(request, wide):
    """fixture name -> its params over a field built with no tables
    (TABLE_LIMIT patched below its order), so with the struct codec that
    fields above TABLE_LIMIT use, and its scheme loaded through
    scheme_from_json."""
    @functools.cache
    def build(fixture):
        params, scheme = _fixture(request, wide, fixture)
        with mock.patch("itdpf.field.TABLE_LIMIT", 1):
            free = build_params(params.primes, params.p, params.tau)
        assert free.field.log_exp is None and free.field._codec is None
        return free, scheme_from_json(free, scheme_to_json(scheme))
    return build


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
def test_table_codec_matches_struct_packing(request, wide, table_free,
                                            fixture):
    params, scheme = _fixture(request, wide, fixture)
    free, free_scheme = table_free(fixture)
    assert params.field._codec is not None
    fmt = "B" if coeff_width(params.p) == 1 else "H"
    family = trivial_family(params.M, 5)
    for seed in range(3):
        for key in keygen(params, family, scheme,
                          PointFunction(5, params.p, 4, 1),
                          random.Random(seed)):
            coeffs = [c for e in key.mask + key.share
                      for c in params.field.decode(e).coeffs]
            packed = (KEY_MAGIC + bytes([KEY_VERSION])
                      + key.index.to_bytes(2, "big")
                      + struct.pack(f"<{len(coeffs)}{fmt}", *coeffs))
            assert serialize_key(params, key) == packed
            assert deserialize_key(params, scheme.n, packed) == key
            assert serialize_key(free, key) == packed
            assert deserialize_key(free, free_scheme.n, packed) == key


@pytest.mark.parametrize("fixture", ["a", "b", "wide"])
def test_struct_codec_gives_the_same_keys(request, wide, table_free,
                                          fixture):
    """keygen reads its drawn residues through the codec, so on a field
    built without tables (the struct codec that fields above TABLE_LIMIT
    use) keygen, serialize_key and deserialize_key agree byte for byte
    with the table codec, on F_25, F_512 and p = 257."""
    params, scheme = _fixture(request, wide, fixture)
    family = trivial_family(params.M, 6)

    def run(seed, params=params, scheme=scheme):
        rng = random.Random(seed)
        keys = keygen(params, family, scheme,
                      PointFunction(6, params.p, 5, params.p - 1), rng)
        wire = [serialize_key(params, key) for key in keys]
        parsed = [deserialize_key(params, scheme.n, data) for data in wire]
        return keys, wire, parsed, rng.getstate()

    for seed in range(4):
        tables = run(seed)
        assert run(seed, *table_free(fixture)) == tables
        assert tables[2] == tables[0]


@pytest.mark.parametrize("fixture", ["a", "b", "wide"])
def test_table_free_field_gives_the_same_results(request, wide, table_free,
                                                 fixture):
    """On both families, a field without tables runs the table-free
    branch of _point_sums (evaluate_key at every x, evaluate_all and
    pir_answer) and the struct codec, and agrees with the tables."""
    params, scheme = _fixture(request, wide, fixture)
    p = params.p

    def run(params, scheme, family):
        rng = random.Random(family.size)
        db = [rng.randrange(p) for _ in range(family.size)]
        keys = keygen(params, family, scheme,
                      PointFunction(family.size, p, 2, p - 1), rng)
        wire = [serialize_key(params, key) for key in keys]
        parsed = [deserialize_key(params, scheme.n, data) for data in wire]
        return (keys, wire, parsed, rng.getstate(),
                [check_key(params, scheme, family.h, key) for key in parsed],
                [[evaluate_key(params, family, scheme, key, x)
                  for x in range(1, family.size + 1)] for key in parsed],
                [evaluate_all(params, family, scheme, key) for key in parsed],
                [pir_answer(params, family, scheme, key, db)
                 for key in parsed])

    for family in (trivial_family(params.M, 6), product_family(params, 6)):
        assert run(*table_free(fixture), family) == run(params, scheme,
                                                        family)


@pytest.mark.parametrize("p, tau", [(5, 2), (2, 9), (257, 1)])
def test_field_never_writes_to_itself(p, tau):
    """A fresh field, with tables and without, keeps the keys and objects
    of vars(field) through every method that used to fill the byte
    tables or find the generator on first use."""
    with mock.patch("itdpf.field.TABLE_LIMIT", 1):
        free = Field(p, tau)
    for fld in (Field(p, tau), free):
        assert (fld.log_exp is None) == (fld is free)
        before = dict(vars(fld))
        encs = tuple(range(min(fld.order, 40)))
        assert fld.unpack(fld.pack(encs), 0) == encs
        assert fld.from_residues([c for e in encs
                                  for c in fld.decode_raw(e)]) == encs
        fld.mul_enc(encs[-1], encs[-2])
        fld.pow(fld.decode(encs[-1]), 7)
        fld.smallest_generator()
        after = vars(fld)
        assert after.keys() == before.keys()
        assert all(after[name] is value for name, value in before.items())


@pytest.mark.parametrize("fixture, h", [("a", 16), ("b", 8)])
def test_serving_never_writes_to_shared_artifacts(request, fixture, h):
    """Artifacts loaded as `itdpf serve` loads them hold every view that
    a request reads: an upload, a PIR request and an EVAL request keep
    the keys and objects of vars(params), vars(family) and vars(scheme).
    The key comes from other artifacts, so nothing is built by keygen."""
    built = request.getfixturevalue(f"params_{fixture}")
    built_scheme = request.getfixturevalue(f"scheme_{fixture}")
    params = params_from_json(params_to_json(built))
    scheme = scheme_from_json(params, scheme_to_json(built_scheme))
    family = family_from_json(params,
                              family_to_json(trivial_family(built.M, h)))
    key = keygen(built, trivial_family(built.M, h), built_scheme,
                 PointFunction(h, built.p, 2, 1), random.Random(8))[0]
    db = [random.Random(h).randrange(built.p) for _ in range(h)]
    shared = (params, family, scheme)
    srv = server.EvalServer(key.index, params, family, scheme, db)
    try:
        before = [dict(vars(obj)) for obj in shared]
        ack, stored = srv._handle(protocol.Message(
            protocol.KEY_UPLOAD, serialize_key(params, key)), None)
        assert stored == key
        for msg, reply_type in (
                (protocol.Message(protocol.PIR_REQ, b""), protocol.PIR_RESP),
                (protocol.Message(protocol.EVAL_REQ, (2).to_bytes(4, "big")),
                 protocol.EVAL_RESP)):
            reply, _ = srv._handle(msg, stored)
            assert reply[5] == reply_type, reply
    finally:
        srv.shutdown()
    for obj, old in zip(shared, before):
        assert vars(obj).keys() == old.keys()
        assert all(vars(obj)[name] is value for name, value in old.items())


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
def test_out_of_range_coefficient_offset_struct_codec(table_free, fixture,
                                                      vector, element, coeff):
    _check_offset(*table_free(fixture), vector, element, coeff)


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
