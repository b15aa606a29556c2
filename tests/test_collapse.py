"""Production evaluation against the vector-form reference conversion.

dpf.evaluate_key computes one monomial times one linear form; it must
equal the constant term of the mask's inner product with
oracles.convert_share for every key index and every input.  The
scaled basis families U = c*I cover both sides of the support split:
u = 0 mod p (no linear term) and u = 0 mod m (monomial value 1).
"""

import random

import pytest

from itdpf.dpf import PointFunction, evaluate_all, evaluate_key, keygen
from itdpf.matching import (MatchingFamily, certified_family, product_family,
                            trivial_family)
from itdpf.oracles import reference_output


def _assert_matches_reference(params, family, scheme, seeds):
    for seed in seeds:
        rng = random.Random(seed)
        func = PointFunction(family.size, params.p,
                             rng.randrange(1, family.size + 1),
                             rng.randrange(params.p))
        keys = keygen(params, family, scheme, func, rng)
        assert len(keys) == 2 * scheme.n
        for key in keys:
            expected = [reference_output(params, family, scheme, key, x)
                        for x in range(1, family.size + 1)]
            assert [evaluate_key(params, family, scheme, key, x)
                    for x in range(1, family.size + 1)] == expected
            assert evaluate_all(params, family, scheme, key) == expected


def test_collapse_matches_reference_binary(params_a, scheme_a, family_a16):
    _assert_matches_reference(params_a, family_a16, scheme_a, seeds=(1, 2))


def test_collapse_matches_reference_odd(params_b, scheme_b, family_b8):
    _assert_matches_reference(params_b, family_b8, scheme_b, seeds=(1, 2, 3))


def test_collapse_matches_reference_product_family(params_a, scheme_a,
                                                   params_b, scheme_b):
    for params, scheme in ((params_a, scheme_a), (params_b, scheme_b)):
        for k in range(1, 5):
            family = product_family(params, h=3 * k)
            # Not a basis family: each u_x has three nonzero entries.  The
            # one that is 1 mod p is 0 mod m and feeds the linear form
            # alone; the other two are 0 mod p and feed the monomial alone.
            assert all(len(support) == 3 for support in family.supports)
            _assert_matches_reference(params, family, scheme, seeds=(k,))


def _scaled_basis_family(params, c, h=8):
    basis = trivial_family(params.M, h)
    U = tuple(tuple(c * e for e in u) for u in basis.U)
    return certified_family(MatchingFamily(params.M, h, U, basis.V),
                            params.S_M)


@pytest.mark.parametrize("fixture, c", [
    ("a", 1), ("a", 511), ("a", 512), ("b", 1), ("b", 6), ("b", 25)])
def test_collapse_on_scaled_basis_families(request, fixture, c):
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    family = _scaled_basis_family(params, c)
    u = family.u(1)[0]
    assert (u % params.m == 0) == (c in (511, 6))
    assert (u % params.p == 0) == (c in (512, 25))
    _assert_matches_reference(params, family, scheme, seeds=(1, 2))
    for alpha in (1, 5, 8):
        beta = 1 + alpha % (params.p - 1)
        func = PointFunction(family.size, params.p, alpha, beta)
        keys = keygen(params, family, scheme, func, random.Random(alpha))
        outputs = [evaluate_all(params, family, scheme, key) for key in keys]
        assert [sum(col) % params.p for col in zip(*outputs)] == [
            beta if x == alpha else 0 for x in range(1, family.size + 1)]
