"""The PIR answer as one contraction equals the full-domain reference.

pir_answer(key, db) must be sum_x db_x * evaluate_all(key)_x mod p for
every key: on F_512 and F_25, over the basis and the product family, for
db entries beyond 0 and 1, for an all-zero db, for keys with zero mask
entries (forced to zero, since a uniform entry is zero only 1/|F| of
the time) or a zero recovery coefficient, for rows whose entries are
beyond 0 and 1 mod p (the identity holds for any rows, and every family
built here has u mod p in {0, 1}), and on F_{11^6}, which is above
TABLE_LIMIT and so must answer through Field products without building
any full-field table.
Over F_{2^tau} with tables, pir_answer is two XOR sums of its own and
never enters the _point_sums walk of evaluate_all; on every other field
the two share that walk.  On F_{11^6}, which has no tables
without any patch, both are also checked against the FieldElement
reference oracles.convert_share; test_hot_path's table_free fixture
runs the same table-free branch on F_25, F_512 and p = 257 (with
TABLE_LIMIT patched) and compares it with the tables.
"""

import random
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest

from itdpf import dpf
from itdpf.dpf import (DpfKey, PointFunction, check_key, deserialize_key,
                       evaluate_all, keygen, pir_answer, serialize_key)
from itdpf.field import TABLE_LIMIT, Field
from itdpf.interpolation import build_scheme, scheme_from_json, scheme_to_json
from itdpf.matching import MatchingFamily, product_family, trivial_family
from itdpf.oracles import reference_output
from itdpf.params import build_params

SEEDS = range(5)


def _reference(params, family, scheme, key, db):
    shares = evaluate_all(params, family, scheme, key)
    return sum(s * d for s, d in zip(shares, db)) % params.p


def _databases(p, size, seed):
    """A random db, an all-zero one, and one of p - 1 (beyond 0 and 1
    whenever p > 2)."""
    rng = random.Random(f"db/{seed}")
    return ([rng.randrange(p) for _ in range(size)], [0] * size,
            [p - 1] * size)


def _check_every_key(params, scheme, family, seeds=SEEDS):
    for seed in seeds:
        rng = random.Random(seed)
        func = PointFunction(family.size, params.p,
                             rng.randrange(family.size) + 1,
                             rng.randrange(params.p))
        keys = keygen(params, family, scheme, func, rng)
        for db in _databases(params.p, family.size, seed):
            for key in keys:
                assert pir_answer(params, family, scheme, key, db) == (
                    _reference(params, family, scheme, key, db))
            assert sum(pir_answer(params, family, scheme, key, db)
                       for key in keys) % params.p == (
                db[func.alpha - 1] * func.beta % params.p)


def _families(params, basis_h):
    return [trivial_family(params.M, basis_h),
            product_family(params, 6), product_family(params, 12)]


@pytest.mark.parametrize("fixture, basis_h", [("a", 16), ("b", 8)])
def test_answer_equals_full_domain_reference(request, fixture, basis_h):
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    for family in _families(params, basis_h):
        _check_every_key(params, scheme, family)


@pytest.mark.parametrize("fixture", ["a", "b"])
def test_zero_mask_entries_contribute_nothing(request, fixture):
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    for family in _families(params, 8):
        keys = keygen(params, family, scheme,
                      PointFunction(family.size, params.p, 2, 1),
                      random.Random(3))
        db = _databases(params.p, family.size, 3)[0]
        for key in keys:
            for zeroed in ({0}, {1, family.h}, set(range(family.h + 1))):
                mask = tuple(0 if j in zeroed else w
                             for j, w in enumerate(key.mask))
                holed = DpfKey(key.index, mask, key.share)
                check_key(params, scheme, family.h, holed)
                assert pir_answer(params, family, scheme, holed, db) == (
                    _reference(params, family, scheme, holed, db))


@pytest.mark.parametrize("fixture", ["a", "b"])
def test_zero_recovery_coefficient_contributes_nothing(request, fixture):
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    zeroed = replace(scheme, coeffs=tuple(
        (params.field.zero, a1) for _, a1 in scheme.coeffs))
    family = trivial_family(params.M, 8)
    keys = keygen(params, family, scheme, PointFunction(8, params.p, 2, 1),
                  random.Random(6))
    for db in _databases(params.p, 8, 6):
        for key in keys:
            assert pir_answer(params, family, zeroed, key, db) == 0 == (
                _reference(params, family, zeroed, key, db))


@pytest.mark.parametrize("fixture", ["a", "b"])
def test_rows_beyond_zero_and_one_mod_p(request, fixture):
    """Dense random rows of Z_M: not a matching family, so the answers do
    not reconstruct a point function, but each must still equal the
    reference, with u mod p weighting its mask entry."""
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    rng = random.Random(7)
    h, size = 5, 12
    rows = tuple(tuple(rng.randrange(params.M) for _ in range(h))
                 for _ in range(size))
    family = MatchingFamily(params.M, h, rows, rows, certified=True)
    assert {u % params.p for row in rows for u in row} == set(range(params.p))
    keys = keygen(params, family, scheme,
                  PointFunction(size, params.p, 3, 1), rng)
    for db in _databases(params.p, size, 7):
        for key in keys:
            assert pir_answer(params, family, scheme, key, db) == (
                _reference(params, family, scheme, key, db))


@contextmanager
def table_guard():
    """Fail if a field above TABLE_LIMIT builds its log tables or its
    byte codec, both built by _build_tables, inside the block."""
    build = Field._build_tables

    def guarded_build(self):
        assert self.order <= TABLE_LIMIT, f"tables of order {self.order}"
        build(self)

    with mock.patch.object(Field, "_build_tables", guarded_build):
        yield


@pytest.fixture(scope="module")
def big_field():
    """F_{11^6}: m = 21, above TABLE_LIMIT."""
    with table_guard():
        params = build_params((3, 7), 11)
        scheme = build_scheme(params)
    assert params.field.order > TABLE_LIMIT
    return params, scheme


def test_answer_above_table_limit_builds_no_table(big_field):
    params, scheme = big_field
    family = trivial_family(params.M, 4)
    with table_guard():
        assert params.field.log_exp is None
        _check_every_key(params, scheme, family, seeds=range(2))
        key = keygen(params, family, scheme, PointFunction(4, 11, 2, 7),
                     random.Random(0))[0]
        assert deserialize_key(params, scheme.n,
                               serialize_key(params, key)) == key
    assert params.field._codec is None


def test_above_table_limit_matches_convert_share(big_field):
    params, scheme = big_field
    family = trivial_family(params.M, 4)
    db = [3, 0, 5, 10]
    with table_guard():
        keys = keygen(params, family, scheme, PointFunction(4, 11, 3, 7),
                      random.Random(1))
        outputs = []
        for key in keys:
            expected = [reference_output(params, family, scheme, key, x)
                        for x in range(1, 5)]
            assert evaluate_all(params, family, scheme, key) == expected
            assert pir_answer(params, family, scheme, key, db) == (
                sum(d * y for d, y in zip(db, expected)) % 11)
            outputs.append(expected)
    assert [sum(col) % 11 for col in zip(*outputs)] == [0, 0, 7, 0]


def _keys_and_expected(params, scheme, family):
    """The keys of one point function, a random db, and each key's
    sum_x db_x * evaluate_all(key)_x mod p."""
    rng = random.Random(11)
    db = [rng.randrange(params.p) for _ in range(family.size)]
    keys = keygen(params, family, scheme,
                  PointFunction(family.size, params.p, 2, 1), rng)
    return keys, db, [_reference(params, family, scheme, key, db)
                      for key in keys]


def _walk_must_not_run(*args):
    raise AssertionError("pir_answer entered dpf._point_sums")


@pytest.mark.parametrize("family_of", [
    lambda params: trivial_family(params.M, 16),
    lambda params: product_family(params, 12)], ids=["basis", "product"])
def test_binary_answer_skips_the_shared_walk(params_a, scheme_a, family_of):
    family = family_of(params_a)
    keys, db, expected = _keys_and_expected(params_a, scheme_a, family)
    with mock.patch.object(dpf, "_point_sums", _walk_must_not_run):
        assert [pir_answer(params_a, family, scheme_a, key, db)
                for key in keys] == expected


def _binary_without_tables(params_a, scheme_a):
    with mock.patch("itdpf.field.TABLE_LIMIT", 1):
        params = build_params(params_a.primes, 2, params_a.tau)
    assert params.field.log_exp is None
    return params, scheme_from_json(params, scheme_to_json(scheme_a))


@pytest.mark.parametrize("case", ["odd", "odd_product", "above_limit",
                                  "binary_without_tables"])
def test_other_fields_answer_through_the_shared_walk(request, big_field,
                                                     case):
    if case == "above_limit":
        params, scheme = big_field
    elif case == "binary_without_tables":
        params, scheme = _binary_without_tables(
            request.getfixturevalue("params_a"),
            request.getfixturevalue("scheme_a"))
    else:
        params = request.getfixturevalue("params_b")
        scheme = request.getfixturevalue("scheme_b")
    family = (product_family(params, 6) if case == "odd_product"
              else trivial_family(params.M, 4))
    keys, db, expected = _keys_and_expected(params, scheme, family)
    with mock.patch.object(dpf, "_point_sums",
                           wraps=dpf._point_sums) as walk:
        assert [pir_answer(params, family, scheme, key, db)
                for key in keys] == expected
    assert walk.call_count == len(keys)
