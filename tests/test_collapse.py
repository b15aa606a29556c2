"""Production evaluation against the vector-form reference conversion.

dpf.evaluate_key computes one monomial times one linear form; it must
equal the constant term of the mask's inner product with
oracles.convert_share for every key index and every input.
"""

import random

from itdpf.dpf import PointFunction, evaluate_all, evaluate_key, keygen
from itdpf.matching import search_family
from itdpf.oracles import convert_share


def _reference(params, family, scheme, key, x):
    conv = convert_share(params, family, scheme, key.slot, x, key.share)
    inner = params.field.zero
    for a, b in zip(key.mask, conv):
        inner = inner + a * b
    return inner.constant_term


def _assert_matches_reference(params, family, scheme, seeds):
    for seed in seeds:
        rng = random.Random(seed)
        func = PointFunction(family.size, params.p,
                             rng.randrange(1, family.size + 1),
                             rng.randrange(params.p))
        keys = keygen(params, family, scheme, func, rng)
        assert len(keys) == 2 * scheme.n
        for key in keys:
            expected = [_reference(params, family, scheme, key, x)
                        for x in range(1, family.size + 1)]
            assert [evaluate_key(params, family, scheme, key, x)
                    for x in range(1, family.size + 1)] == expected
            assert evaluate_all(params, family, scheme, key) == expected


def test_collapse_matches_reference_binary(params_a, scheme_a, family_a16):
    _assert_matches_reference(params_a, family_a16, scheme_a, seeds=(1, 2))


def test_collapse_matches_reference_odd(params_b, scheme_b, family_b8):
    _assert_matches_reference(params_b, family_b8, scheme_b, seeds=(1, 2, 3))


def test_collapse_matches_reference_searched_family(params_b, scheme_b):
    family = search_family(params_b, h=4, n_goal=6, seed=7, budget=20000)
    # Not a basis family: some u_x has several nonzero entries, so the
    # linear form and the monomial each span more than one coordinate.
    assert any(sum(1 for e in family.u(x) if e % params_b.M) > 1
               for x in range(1, family.size + 1))
    _assert_matches_reference(params_b, family, scheme_b, seeds=range(6))

