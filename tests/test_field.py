import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itdpf
from itdpf.errors import ParameterError
from itdpf.field import (Field, draw_below, factorize, find_irreducible,
                         is_irreducible, is_prime)

F25 = Field(5, 2)          # zeta = X^2 + X + 1
F5 = Field(5, 1)
F512 = Field(2, 9)
F4 = Field(2, 2)


# ---------------------------------------------------------------------------
# Irreducible discovery.
# ---------------------------------------------------------------------------

def test_canonical_irreducible_5_2():
    assert find_irreducible(5, 2) == (1, 1, 1)  # X^2 + X + 1


def test_canonical_irreducible_degree_one():
    for p in (2, 3, 5, 7, 11):
        assert find_irreducible(p, 1) == (0, 1)  # X itself


def test_canonical_irreducible_2_9_frozen():
    # Recorded after the first deterministic run: X^9 + X^8 + 1.
    assert find_irreducible(2, 9) == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)


def _poly_divides(d, a, p):
    """Test oracle: trial division of a by d over Z_p, no reuse of the
    library's gcd-based machinery."""
    r = list(a)
    inv = pow(d[-1], -1, p)
    while len(r) >= len(d) and any(r):
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        c = r[-1] * inv % p
        shift = len(r) - len(d)
        for k in range(len(d)):
            r[shift + k] = (r[shift + k] - c * d[k]) % p
    return not any(r)


def _all_monic(p, degree):
    def rec(deg):
        if deg == 0:
            yield [1]
            return
        for rest in rec(deg - 1):
            for c in range(p):
                yield [c] + rest
    yield from rec(degree)


@pytest.mark.parametrize("p,tau", [(2, 9), (5, 2), (2, 2), (3, 4), (7, 3)])
def test_irreducible_verified_by_full_factor_scan(p, tau):
    zeta = list(find_irreducible(p, tau))
    for deg in range(1, tau // 2 + 1):
        for cand in _all_monic(p, deg):
            assert not _poly_divides(cand, zeta, p), (cand, zeta)


@pytest.mark.parametrize("p,tau", [(2, 2), (2, 6), (3, 3), (5, 2), (7, 2)])
def test_irreducible_is_first_in_lexicographic_order(p, tau):
    # The search skips zero constant terms above degree 1; the result must
    # still be the first irreducible of the full constant-first order.
    first = next(low + (1,) for low in itertools.product(range(p), repeat=tau)
                 if is_irreducible(list(low) + [1], p))
    assert find_irreducible(p, tau) == first


def test_reducibles_rejected():
    assert not is_irreducible([0, 0, 1], 5)   # X^2
    assert not is_irreducible([1, 0, 1], 5)   # X^2 + 1 = (X-2)(X+2)


# ---------------------------------------------------------------------------
# Element arithmetic.
# ---------------------------------------------------------------------------

def test_addition_examples():
    a = F25.element([3, 4])
    b = F25.element([4, 3])
    assert a + b == F25.element([2, 2])
    assert F25.zero + a == a
    x = F4.element([1, 1])
    assert (x + x).is_zero()  # characteristic-2 self-inverse


def test_multiplication_examples():
    x = F25.element([0, 1])
    assert x * x == F25.element([4, 4])  # X^2 = -X - 1 mod X^2+X+1
    a = F25.element([2, 3])
    assert a * F25.one == a
    assert (a * F25.zero).is_zero()


def test_inverse_examples():
    assert F5.const(2).inverse() == F5.const(3)
    assert F25.one.inverse() == F25.one
    rng = random.Random(0)
    for a in F25.random_elements(rng, 100):
        if a.is_zero():
            continue
        assert a * a.inverse() == F25.one
    with pytest.raises(ZeroDivisionError):
        F25.zero.inverse()


def test_pow_examples():
    rng = random.Random(1)
    for a in F512.random_elements(rng, 50):
        if a.is_zero():
            continue
        assert a ** 0 == F512.one
        assert a ** F512.group_order == F512.one   # Lagrange
        assert a ** -1 == a.inverse()
    assert F25.zero ** 0 == F25.one
    assert (F25.zero ** 5).is_zero()
    with pytest.raises(ZeroDivisionError):
        F25.zero ** -1


def test_mixed_field_elements_rejected():
    with pytest.raises(ParameterError):
        F25.element([1, 0]) + F4.element([1, 0])


def test_element_wrong_length_rejected():
    with pytest.raises(ParameterError):
        F25.element([1, 2, 3])


# ---------------------------------------------------------------------------
# Field axioms, bulk-sampled (>= 10^4 triples across both fixture fields).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [F25, F512], ids=["F25", "F512"])
def test_field_axioms_bulk(field):
    rng = random.Random(7)
    for _ in range(5000):
        a, b, c = field.random_elements(rng, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero
        if not a.is_zero():
            assert a * a.inverse() == field.one


@pytest.mark.parametrize("field", [F25, F512, F5], ids=["F25", "F512", "F5"])
def test_frobenius(field):
    rng = random.Random(11)
    for _ in range(200):
        a, b = field.random_elements(rng, 2)
        assert (a + b) ** field.p == a ** field.p + b ** field.p


def test_table_path_matches_direct_path():
    # The log/exp fast path must agree with schoolbook reduction, and the
    # operations derived from pow with the log/exp formulas for them.
    for field in (F25, F512):
        rng = random.Random(3)
        for _ in range(300):
            a, b = field.random_elements(rng, 2)
            direct = field.decode(field._mul_enc_direct(a.enc, b.enc))
            assert a * b == direct
        log, exp = field.log_exp
        q1 = field.group_order
        nonzero = (range(1, field.order) if field is F25
                   else [enc for enc in draw_below(rng, field.order, 300)
                         if enc])
        for enc in nonzero:
            a = field.decode(enc)
            e = rng.randrange(2 * q1)
            assert field.decode(field._pow_enc_direct(enc, e)) == a ** e
            assert field.inv(a).enc == exp[-log[enc] % q1]
            assert field.element_order(a) == q1 // math.gcd(log[enc], q1)


def test_inverse_and_order_above_table_limit():
    big = Field(11, 6)
    assert big.log_exp is None
    for a in big.random_elements(random.Random(4), 30):
        if a.is_zero():
            continue
        assert a * big.inv(a) == big.one
        order = big.element_order(a)
        assert a ** order == big.one
        assert all(a ** (order // f) != big.one for f in factorize(order))


# ---------------------------------------------------------------------------
# Output homomorphism.
# ---------------------------------------------------------------------------

def test_constant_term_examples():
    assert F25.zero.constant_term == 0
    assert F25.one.constant_term == 1
    assert F25.element([3, 2]).constant_term == 3


def test_constant_term_is_additive_and_surjective():
    rng = random.Random(5)
    for _ in range(500):
        a, b = F512.random_elements(rng, 2)
        assert (a + b).constant_term == (a.constant_term + b.constant_term) % 2
    for c in range(5):
        assert F25.const(c).constant_term == c  # constant embedding witnesses


# ---------------------------------------------------------------------------
# Roots of unity and subgroups.
# ---------------------------------------------------------------------------

def test_root_of_unity_trivial():
    assert F25.root_of_unity(1) == F25.one


def test_root_of_unity_order_three():
    g3 = F25.root_of_unity(3)
    assert F25.element_order(g3) == 3
    # the order-3 elements are exactly the roots of z^2 + z + 1
    assert g3 * g3 + g3 + F25.one == F25.zero


def test_root_of_unity_order_six():
    g6 = F25.root_of_unity(6)
    assert g6 ** 3 == F25.const(4)    # -1
    assert g6 ** 2 != F25.one
    assert F25.element_order(g6) == 6


def test_root_of_unity_incompatible():
    with pytest.raises(ParameterError):
        F25.root_of_unity(7)  # 7 does not divide 24


def test_subgroup_structure():
    g6 = F25.root_of_unity(6)
    H = F25.subgroup(g6, 6)
    assert len(set(e.enc for e in H)) == 6
    assert H[0] == F25.one
    product = F25.one
    for b in H:
        product = product * b
        assert b ** 6 == F25.one
    assert product == F25.const(4)    # gamma^(0+..+5) = gamma^3 = -1
    # closure under multiplication
    encs = set(e.enc for e in H)
    for a in H:
        for b in H:
            assert (a * b).enc in encs


def test_subgroup_order_mismatch():
    g3 = F25.root_of_unity(3)
    with pytest.raises(ParameterError):
        F25.subgroup(g3, 6)


def test_subgroup_m_equals_one():
    assert F25.subgroup(F25.one, 1) == [F25.one]


# ---------------------------------------------------------------------------
# Encoding / parsing.
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=511))
def test_string_round_trip(enc):
    e = F512.decode(enc)
    assert F512.parse_element(e.as_string()) == e


def test_parse_rejects_garbage():
    with pytest.raises(ParameterError):
        F25.parse_element("1,2,3")
    with pytest.raises(ParameterError):
        F25.parse_element("5,0")      # coefficient out of range
    with pytest.raises(ParameterError):
        F25.parse_element("a,b")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 255, 256, 257, 511,
                               65521, 1048573, 2 ** 32 - 1, 2 ** 40 + 3])
def test_draw_below_is_randrange_in_bulk(n):
    """The same values as one randrange(n) call per draw, and the same
    generator state afterwards, byte by byte of the key stream."""
    for seed in range(3):
        for count in (0, 1, 2, 1200):
            one_by_one, bulk = random.Random(seed), random.Random(seed)
            expected = [one_by_one.randrange(n) for _ in range(count)]
            assert draw_below(bulk, n, count) == expected
            assert bulk.getstate() == one_by_one.getstate()


def test_random_elements_draw_coefficients_in_order():
    for field in (F25, F512, F5):
        rng, again = random.Random(4), random.Random(4)
        elements = field.random_elements(rng, 40)
        assert elements == [field.element([again.randrange(field.p)
                                           for _ in range(field.tau)])
                            for _ in range(40)]
        assert rng.getstate() == again.getstate()


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_cli_over_f_2_to_20_builds_no_tables(tmp_path):
    """F_{2^20} is above TABLE_LIMIT: `params` and `scheme` on it must
    each finish within 10 s.  Building its log tables took 43 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(itdpf.__file__).parents[1])}
    params = str(tmp_path / "params.json")
    for argv in (["params", "--primes", "3", "--p", "2", "--tau", "20",
                  "--out", params],
                 ["scheme", "--params", params,
                  "--out", str(tmp_path / "scheme.json")]):
        proc = subprocess.run([sys.executable, "-m", "itdpf", *argv],
                              capture_output=True, text=True, timeout=10,
                              env=env)
        assert proc.returncode == 0, proc.stderr
