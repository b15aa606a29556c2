import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itdpf.errors import ParameterError
from itdpf.params import (build_params, canonical_set, params_from_json,
                          params_to_json, sparsity_target)


# ---------------------------------------------------------------------------
# Canonical sets.
# ---------------------------------------------------------------------------

def test_canonical_set_m6():
    assert canonical_set(6, [2, 3]) == [0, 1, 3, 4]


def test_canonical_set_m30():
    assert canonical_set(30, [2, 3, 5]) == [0, 1, 6, 10, 15, 16, 21, 25]


def test_canonical_set_prime_collapses():
    for q in (2, 3, 5, 7, 73):
        assert canonical_set(q, [q]) == [0, 1]


def test_canonical_set_reverified_elementwise():
    # Independent loop against the defining residue condition.
    for modulus, factors in [(6, [2, 3]), (30, [2, 3, 5]), (1022, [2, 7, 73])]:
        result = set(canonical_set(modulus, factors))
        for s in range(modulus):
            expected = all(s % q in (0, 1) for q in factors)
            assert (s in result) == expected, s


def test_canonical_set_sizes_are_powers_of_two():
    assert len(canonical_set(511, [7, 73])) == 4
    assert len(canonical_set(1022, [2, 7, 73])) == 8
    assert len(canonical_set(6, [2, 3])) == 4
    assert len(canonical_set(30, [2, 3, 5])) == 8
    assert len(canonical_set(210, [2, 3, 5, 7])) == 16


def test_canonical_set_rejects_bad_factors():
    with pytest.raises(ParameterError):
        canonical_set(4, [2, 2])
    with pytest.raises(ParameterError):
        canonical_set(12, [3, 4])
    with pytest.raises(ParameterError):
        canonical_set(10, [2, 3])  # product mismatch


# ---------------------------------------------------------------------------
# Published sparsity targets.
# ---------------------------------------------------------------------------

def test_sparsity_target_values():
    assert sparsity_target(1) == 2
    assert sparsity_target(2) == 3
    assert sparsity_target(3) == 8
    assert sparsity_target(4) == 9
    assert sparsity_target(5) == 24
    assert sparsity_target(103) == 8 * 3 ** 50
    assert sparsity_target(104) == 3 ** 51 * 4
    assert sparsity_target(105) == 3 ** 51 * 8
    with pytest.raises(ParameterError):
        sparsity_target(0)


# ---------------------------------------------------------------------------
# Parameter synthesis.
# ---------------------------------------------------------------------------

def test_build_params_binary_fixture(params_a):
    assert params_a.m == 511
    assert params_a.M == 1022
    assert params_a.tau == 9       # order of 2 mod 511
    assert len(params_a.S_m) == 4
    assert len(params_a.S_M) == 8
    assert params_a.S_m == (0, 1, 147, 365)
    assert params_a.n_target == 3
    assert params_a.field.element_order(params_a.H[1]) == 511


def test_build_params_odd_fixture(params_b):
    assert params_b.m == 6
    assert params_b.M == 30
    assert params_b.tau == 2       # 6 | 5^2 - 1
    assert params_b.S_m == (0, 1, 3, 4)
    assert params_b.S_M == (0, 1, 6, 10, 15, 16, 21, 25)
    assert list(params_b.field.zeta) == [1, 1, 1]


def test_build_params_degree_one():
    params = build_params([2, 3], 7)
    assert params.tau == 1         # 6 | 7 - 1


def test_tau_is_minimal_above_hint():
    params = build_params([2, 3], 5, tau_hint=3)
    assert params.tau == 4         # least multiple of ord=2 that is >= 3
    for t in range(3, params.tau):
        assert (5 ** t - 1) % 6 != 0
    baseline = build_params([2, 3], 5)
    for t in range(1, baseline.tau):
        assert (5 ** t - 1) % 6 != 0


def test_build_params_deterministic_bytes():
    a = params_to_json(build_params([7, 73], 2))
    b = params_to_json(build_params([7, 73], 2))
    assert a == b


def test_build_params_rejections():
    with pytest.raises(ParameterError):
        build_params([2, 3], 6)       # p not prime
    with pytest.raises(ParameterError):
        build_params([2, 3], 3)       # p divides m
    with pytest.raises(ParameterError):
        build_params([2, 2, 3], 5)    # repeated factor
    with pytest.raises(ParameterError):
        build_params([4, 3], 5)       # non-prime factor


@settings(max_examples=30)
@given(st.sampled_from([(2, 3), (2, 5), (3, 5), (2, 7), (3, 7)]),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_crt_containment_property(primes, p):
    if p in primes:
        return
    params = build_params(primes, p)
    s_m = set(params.S_m)
    for s in params.S_M:
        assert s % params.m in s_m
        assert s % params.p in (0, 1)
    assert 0 in params.S_m and 0 in params.S_M


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def test_params_json_round_trip(params_b):
    data = params_to_json(params_b)
    loaded = params_from_json(data)
    assert params_to_json(loaded) == data


def test_params_json_rejects_tampering(params_b):
    import json
    obj = json.loads(params_to_json(params_b))
    obj["gamma"] = "1,0"  # not of order m
    with pytest.raises(ParameterError):
        params_from_json((json.dumps(obj) + "\n").encode())
    obj2 = json.loads(params_to_json(params_b))
    obj2["S_m"] = [0, 1, 2, 3]
    with pytest.raises(ParameterError):
        params_from_json((json.dumps(obj2) + "\n").encode())
