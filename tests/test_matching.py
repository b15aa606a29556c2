import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itdpf.errors import ParameterError
from itdpf.matching import (MatchingFamily, certified_family, dot_mod,
                            family_from_json, family_to_json, product_family,
                            trivial_family, verify_family)
from itdpf.params import build_params

S_30 = (0, 1, 6, 10, 15, 16, 21, 25)
S_1022 = (0, 1, 147, 365, 511, 512, 658, 876)


def test_trivial_family_h2():
    fam = trivial_family(30, 2)
    assert fam.U == ((1, 0), (0, 1))
    assert fam.V == ((0, 1), (1, 0))
    assert dot_mod(fam.u(1), fam.v(2), 30) == 1
    assert dot_mod(fam.u(1), fam.v(1), 30) == 0


def test_trivial_family_h16_cross_products():
    fam = trivial_family(1022, 16)
    assert fam.size == 16
    for i in range(1, 17):
        for j in range(1, 17):
            expected = 0 if i == j else 1
            assert dot_mod(fam.u(i), fam.v(j), 1022) == expected


def test_trivial_family_degenerate_h1():
    fam = trivial_family(30, 1)
    assert fam.size == 1
    assert dot_mod(fam.u(1), fam.v(1), 30) == 0
    assert verify_family(fam, S_30).ok


@settings(max_examples=64)
@given(st.integers(min_value=1, max_value=64))
def test_trivial_family_always_certifies(h):
    assert verify_family(trivial_family(1022, h), S_1022).ok


def test_verify_family_reports_first_violation():
    fam = trivial_family(30, 3)
    # Replace v_1 by u_1: the self pair (1, 1) now has product 1 != 0.
    broken = MatchingFamily(30, 3, fam.U, (fam.U[0],) + fam.V[1:])
    cert = verify_family(broken, S_30)
    assert not cert.ok
    assert cert.violation == (1, 1, 1)


def test_verify_family_detects_bad_cross_product():
    fam = trivial_family(30, 3)
    v2 = (2,) + fam.V[1][1:]  # u_1 . v_2 becomes 2, outside S_30
    broken = MatchingFamily(30, 3, fam.U, (fam.V[0], v2, fam.V[2]))
    cert = verify_family(broken, S_30)
    assert not cert.ok
    i, j, prod = cert.violation
    assert (i, j) == (1, 2) and prod == 2


def test_single_pair_family():
    fam = MatchingFamily(30, 2, ((5, 5),), ((5, 25),))
    assert verify_family(fam, S_30).ok          # 25 + 125 = 150 = 0 mod 30
    bad = MatchingFamily(30, 2, ((5, 5),), ((5, 26),))
    assert not verify_family(bad, S_30).ok


def test_product_family_frozen_fixture(params_b):
    # M = 30 = 2*3*5, idempotents 15, 10, 6; k = 2 gives N = 2^3 = 8.
    fam = product_family(params_b, h=6)
    assert fam.size == 8 and fam.certified
    assert verify_family(fam, params_b.S_M).ok
    assert fam.u(1) == (15, 0, 10, 0, 6, 0) and fam.v(1) == (0, 15, 0, 10, 0, 6)
    assert fam.u(2) == (0, 15, 10, 0, 6, 0)      # x - 1 = 1: digits (1, 0, 0)
    assert fam.u(8) == fam.v(1) and fam.v(8) == fam.u(1)
    again = product_family(params_b, h=6)
    assert fam.U == again.U and fam.V == again.V


def test_product_family_single_pair(params_a, params_b):
    """k = 1: one pair, u_1 the d idempotents and v_1 zero."""
    for params in (params_a, params_b):
        fam = product_family(params, h=3)
        primes = sorted(params.primes + (params.p,))
        assert fam.size == 1 and fam.V == ((0, 0, 0),)
        assert [[e % q for q in primes] for e in fam.u(1)] == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert verify_family(fam, params.S_M).ok


PRODUCT_PARAMS = [((7, 73), 2), ((2, 3), 5), ((2,), 257), ((3, 5, 7), 2)]


@pytest.mark.parametrize("k", [1, 2, 3, 4], ids=lambda k: f"k{k}")
def test_product_family_outputs_always_verify(k):
    for primes, p in PRODUCT_PARAMS:
        params = build_params(primes, p)
        d = len(primes) + 1
        fam = product_family(params, h=d * k)
        assert fam.size == k ** d
        assert all(len(support) == d for support in fam.supports)
        assert verify_family(fam, params.S_M).ok, (primes, p, k)


def test_certified_family_gate():
    fam = trivial_family(30, 2)
    assert certified_family(fam, S_30).certified
    broken = MatchingFamily(30, 2, fam.U, (fam.U[0],) + fam.V[1:])
    with pytest.raises(ParameterError, match=r"pair \(1, 1\)"):
        certified_family(broken, S_30)


def test_index_bounds():
    fam = trivial_family(30, 4)
    with pytest.raises(ParameterError):
        fam.u(0)
    with pytest.raises(ParameterError):
        fam.v(5)


def test_family_json_round_trip(params_b):
    for k in range(1, 5):
        for fam in (product_family(params_b, h=3 * k),
                    trivial_family(params_b.M, 3 * k)):
            data = family_to_json(fam)
            loaded = family_from_json(params_b, data)
            assert loaded.U == fam.U and loaded.V == fam.V and loaded.certified
            assert family_to_json(loaded) == data


def test_both_families_at_h_equal_n_load_back():
    """With two primes in M, h = N = 4 is both the basis family and the
    product family at k = 2; each file loads back to itself."""
    params = build_params((2,), 257)
    basis, product = trivial_family(params.M, 4), product_family(params, 4)
    assert basis.size == product.size == 4 and basis.U != product.U
    for fam in (basis, product):
        data = family_to_json(fam)
        assert family_to_json(family_from_json(params, data)) == data


def test_family_json_rejects_inconsistency(params_b):
    obj = json.loads(family_to_json(trivial_family(params_b.M, 2)))
    obj["N"] = 3
    with pytest.raises(ParameterError):
        family_from_json(params_b, (json.dumps(obj) + "\n").encode())


def test_dot_mod_is_exact_for_large_entries():
    # Wide accumulation: entries near M with long vectors stay exact.
    h = 64
    u = tuple(1021 for _ in range(h))
    v = tuple(1021 for _ in range(h))
    assert dot_mod(u, v, 1022) == (1021 * 1021 * h) % 1022


# ---------------------------------------------------------------------------
# The sparse certificate against a dense reference.
# ---------------------------------------------------------------------------

def _dense_verify(family, S_M):
    """verify_family as it reads from the definition: every dot product
    over all h coordinates, pairs in row-major order."""
    allowed = set(S_M) - {0}
    checked = 0
    for i in range(family.size):
        for j in range(family.size):
            prod = dot_mod(family.U[i], family.V[j], family.modulus)
            checked += 1
            if (prod != 0) if i == j else (prod not in allowed):
                return False, checked, (i + 1, j + 1, prod)
    return True, checked, None


def _with_entry(rows, r, c, value):
    row = list(rows[r])
    row[c] = value
    return rows[:r] + (tuple(row),) + rows[r + 1:]


def _reference_cases(params_b):
    """Families over Z_30: the broken families of the tests, product and
    scaled families, and random families with sparse rows."""
    fam3, fam8 = trivial_family(30, 3), trivial_family(30, 8)
    cases = [
        MatchingFamily(30, 3, fam3.U, (fam3.U[0],) + fam3.V[1:]),
        MatchingFamily(30, 3, fam3.U, _with_entry(fam3.V, 1, 0, 2)),
        MatchingFamily(30, 2, ((5, 5),), ((5, 25),)),
        MatchingFamily(30, 2, ((5, 5),), ((5, 26),)),
        MatchingFamily(30, 8, fam8.U, _with_entry(fam8.V, 2, 6, 2)),
        MatchingFamily(30, 8, fam8.U, _with_entry(fam8.V, 0, 0, 1)),
        MatchingFamily(30, 8, fam8.U, _with_entry(fam8.V, 0, 3, 2)),
        MatchingFamily(30, 8, _with_entry(fam8.U, 7, 7, 30), fam8.V),
        MatchingFamily(30, 8, _with_entry(fam8.U, 5, 2, -29), fam8.V),
    ]
    cases += [product_family(params_b, h=3 * k) for k in range(1, 5)]
    cases += [MatchingFamily(30, 8, tuple(tuple(c * e for e in u)
                                          for u in fam8.U), fam8.V)
              for c in (1, 6, 25, 30, 2)]
    rng = random.Random(11)
    for _ in range(200):
        h, n = rng.randrange(1, 5), rng.randrange(1, 5)
        U = tuple(tuple(rng.choice((0, 0, 30, rng.randrange(-60, 60)))
                        for _ in range(h)) for _ in range(n))
        V = tuple(tuple(rng.randrange(30) for _ in range(h))
                  for _ in range(n))
        cases.append(MatchingFamily(30, h, U, V))
    return cases


def test_sparse_certificate_matches_dense_reference(params_b):
    outcomes = set()
    for family in _reference_cases(params_b):
        cert = verify_family(family, S_30)
        expected = _dense_verify(family, S_30)
        assert (cert.ok, cert.checked_pairs, cert.violation) == expected
        outcomes.add((cert.ok, expected[2] is not None
                      and expected[2][0] == expected[2][1]))
    # Both outcomes occur, and violations on and off the diagonal.
    assert outcomes == {(True, False), (False, True), (False, False)}


def test_supports_skip_zero_entries_mod_M():
    fam = MatchingFamily(30, 4, ((0, 30, 7, -60), (1, 0, 0, 31)),
                         ((0,) * 4,) * 2)
    assert fam.supports == (((2, 7),), ((0, 1), (3, 31)))


def test_family_holds_its_supports_from_construction():
    """supports is built with the family, not on first read, and the
    certified copy holds the same pairs."""
    basis = trivial_family(30, 3)
    fam = MatchingFamily(30, 3, basis.U, basis.V)
    assert vars(fam)["supports"] == (((0, 1),), ((1, 1),), ((2, 1),))
    marked = certified_family(fam, S_30)
    assert marked.certified and vars(marked)["supports"] == fam.supports
