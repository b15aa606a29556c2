import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itdpf.errors import ParameterError
from itdpf.matching import (MatchingFamily, certified_family, dot_mod,
                            family_from_json, family_to_json, search_family,
                            trivial_family, verify_family)

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


def test_search_family_frozen_fixture(params_b):
    fam = search_family(params_b, h=4, n_goal=6, seed=7, budget=20000)
    assert fam.size == 3       # recorded from the first deterministic run
    assert fam.certified
    assert verify_family(fam, params_b.S_M).ok
    again = search_family(params_b, h=4, n_goal=6, seed=7, budget=20000)
    assert fam.U == again.U and fam.V == again.V


def test_search_family_single_pair_always_succeeds(params_b):
    fam = search_family(params_b, h=3, n_goal=1, seed=0, budget=5000)
    assert fam.size >= 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_search_family_outputs_always_verify(params_b, seed):
    fam = search_family(params_b, h=4, n_goal=5, seed=seed, budget=4000)
    assert verify_family(fam, params_b.S_M).ok


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
    fam = search_family(params_b, h=4, n_goal=4, seed=1, budget=4000)
    data = family_to_json(fam)
    loaded = family_from_json(data)
    assert loaded.U == fam.U and loaded.V == fam.V
    assert family_to_json(loaded) == data


def test_family_json_rejects_inconsistency():
    fam = trivial_family(30, 2)
    import json
    obj = json.loads(family_to_json(fam))
    obj["N"] = 3
    with pytest.raises(ParameterError):
        family_from_json((json.dumps(obj) + "\n").encode())


def test_dot_mod_is_exact_for_large_entries():
    # Wide accumulation: entries near M with long vectors stay exact.
    h = 64
    u = tuple(1021 for _ in range(h))
    v = tuple(1021 for _ in range(h))
    assert dot_mod(u, v, 1022) == (1021 * 1021 * h) % 1022
