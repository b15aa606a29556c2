import functools
import itertools
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itdpf import interpolation
from itdpf.errors import ParameterError
from itdpf.field import Field, FieldElement
from itdpf.interpolation import (InterpolationScheme, SchemeCertificate,
                                 build_scheme,
                                 find_interpolation_set, hasse_monomial,
                                 scheme_from_json, scheme_to_json,
                                 verify_scheme)
from itdpf.params import build_params


# ---------------------------------------------------------------------------
# Hasse derivatives of monomials.
# ---------------------------------------------------------------------------

def test_hasse_order_zero_of_constant(params_b):
    one = params_b.field.one
    for b in params_b.H:
        assert hasse_monomial(params_b, 0, 0, b) == one


def test_hasse_order_one_of_constant(params_b):
    for b in params_b.H:
        assert hasse_monomial(params_b, 0, 1, b).is_zero()


def test_hasse_even_exponent_vanishes_in_char_two(params_a):
    for s in range(0, 40, 2):
        assert hasse_monomial(params_a, s, 1, params_a.H[5]).is_zero()


def test_hasse_unsupported_order(params_b):
    with pytest.raises(ParameterError):
        hasse_monomial(params_b, 3, 2, params_b.H[1])


_PARAMS_B_CACHE = build_params([2, 3], 5)  # hypothesis cannot draw fixtures


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=29), st.integers(min_value=0, max_value=5),
       st.sampled_from([0, 1]))
def test_hasse_well_defined_mod_M(s, log, k):
    params = _PARAMS_B_CACHE
    b = params.H[log]
    assert hasse_monomial(params, s, k, b) == hasse_monomial(params, s + params.M, k, b)


def test_hasse_monomial_matches_repeated_products(params_a, scheme_a,
                                                  params_b):
    """For k in {0, 1} and every s in S_M, hasse_monomial equals b's
    powers built by repeated multiplication: b^(s mod m), and
    (s mod p)*b^((s-1) mod m), zero when s mod p = 0.  verify_scheme
    checks every S_M row, so a disagreement between these two is the one
    fault its random polynomials could still catch.  Run for every b in H
    on F_25 and on F_{11^6} (no tables), and for the scheme's points on
    F_512."""
    big = build_params((3, 7), 11)
    assert big.field.log_exp is None
    for params, points in ((params_b, params_b.H), (big, big.H),
                           (params_a, scheme_a.points)):
        fld = params.field
        for b in points:
            powers = [fld.one]
            for _ in range(params.m - 1):
                powers.append(powers[-1] * b)
            for s in params.S_M:
                assert hasse_monomial(params, s, 0, b) == powers[s % params.m]
                scalar = s % params.p
                expected = (fld.const(scalar) * powers[(s - 1) % params.m]
                            if scalar else fld.zero)
                assert hasse_monomial(params, s, 1, b) == expected


# ---------------------------------------------------------------------------
# Brute-force oracle: over F_25 no 3-point subset of the order-6 subgroup
# interpolates the constant term for exponents {0, 1, 3, 4}.  The s = 0
# constraint forces a0 + a1 + a2 = 1, so enumerating (a0, a1) and solving
# for a2 exhausts every candidate coefficient vector with no linear
# algebra shared with the production solver.
# ---------------------------------------------------------------------------

def test_no_three_point_scheme_over_f25_by_brute_force(params_b):
    fld = params_b.field
    H = params_b.H
    nonzero_exponents = [s for s in params_b.S_m if s != 0]
    elems = [fld.decode(v) for v in range(fld.order)]
    solvable = []
    for combo in itertools.combinations(range(6), 3):
        points = [H[d] for d in combo]
        powers = {s: [p ** s for p in points] for s in nonzero_exponents}
        found = False
        for a0 in elems:
            for a1 in elems:
                a2 = fld.one - a0 - a1
                if all((a0 * powers[s][0] + a1 * powers[s][1]
                        + a2 * powers[s][2]).is_zero()
                       for s in nonzero_exponents):
                    found = True
                    break
            if found:
                break
        if found:
            solvable.append(combo)
    assert solvable == [], f"unexpected 3-point schemes: {solvable}"


# ---------------------------------------------------------------------------
# Multiplicity-1 search.
# ---------------------------------------------------------------------------

def test_degenerate_exponent_set_needs_one_point(params_b):
    logs, coeffs = find_interpolation_set(params_b.field, params_b.H, [0], 1)
    assert logs == (0,)
    assert coeffs == (params_b.field.one,)


def test_mult1_binary_fixture_frozen(params_a):
    logs, coeffs = find_interpolation_set(params_a.field, params_a.H,
                                          params_a.S_m, params_a.n_target)
    assert logs == (0, 5, 276)                       # recorded first hit
    assert [c.enc for c in coeffs] == [252, 151, 106]
    fld = params_a.field
    for s in params_a.S_m:
        total = fld.zero
        for c, d in zip(coeffs, logs):
            total = total + c * fld.pow(params_a.H[d], s)
        assert total == (fld.one if s == 0 else fld.zero)


def test_mult1_odd_fixture_escalates_to_four(params_b):
    logs, coeffs = find_interpolation_set(params_b.field, params_b.H,
                                          params_b.S_m, 3)
    assert len(logs) == 4                            # no 3-point scheme exists
    assert logs == (0, 1, 2, 3)
    assert [c.enc for c in coeffs] == [7, 7, 21, 21]


def test_mult1_search_stops_at_its_bound(params_a):
    """The binary fixture's set is the 2,301st subset tried."""
    args = (params_a.field, params_a.H, params_a.S_m, params_a.n_target)
    with mock.patch.object(interpolation, "MAX_SUBSETS", 2301):
        assert find_interpolation_set(*args)[0] == (0, 5, 276)
    with mock.patch.object(interpolation, "MAX_SUBSETS", 2300), \
            pytest.raises(ParameterError, match="first 2300 subsets"):
        find_interpolation_set(*args)


def test_mult1_search_deterministic(params_b):
    args = (params_b.field, params_b.H, params_b.S_m, params_b.n_target)
    assert find_interpolation_set(*args) == find_interpolation_set(*args)


# ---------------------------------------------------------------------------
# The solver on inputs the fixtures do not reach, recorded with the
# FieldElement elimination that the solver on encodings replaced: larger
# systems, odd p at tau = 3 and 4, and F_{7^10}, above TABLE_LIMIT and so
# without tables.  (5, 19) at p = 11 has no 3-point set among the first
# MAX_SUBSETS subsets, so it starts at 4 points.  exponents = [0] from
# 2 points leaves a free variable, which the solver sets to zero.
# ---------------------------------------------------------------------------

# name: (primes, p, exponents or None for S_m, n_min or None for n_target,
#        logs, encodings of the coefficients)
SOLVER_PINS = {
    "binary": ((7, 73), 2, None, None, (0, 5, 276), [252, 151, 106]),
    "odd": ((2, 3), 5, None, None, (0, 1, 2, 3), [7, 7, 21, 21]),
    "F_64": ((3, 7), 2, None, None, (0, 1, 2, 3), [44, 54, 33, 58]),
    "F_2401": ((2, 3, 5), 7, None, None, tuple(range(8)),
               [2084, 2084, 1023, 1023, 511, 511, 1979, 1979]),
    "F_4096": ((3, 5, 7), 2, None, None, tuple(range(8)),
               [341, 3398, 1807, 2832, 3400, 1991, 2582, 148]),
    "F_1331": ((5, 19), 11, None, 4, (0, 1, 2, 3), [228, 825, 1300, 684]),
    "F_7^10": ((11,), 7, None, None, (0, 1), [152358647, 176254611]),
    "binary_free_variable": ((7, 73), 2, [0], 2, (0, 1), [1, 0]),
    "odd_free_variable": ((2, 3), 5, [0], 2, (0, 1), [1, 0]),
}


@functools.cache
def _pinned_search(name):
    """The arguments of a pinned search, and its pinned result."""
    primes, p, exponents, n_min, logs, encs = SOLVER_PINS[name]
    params = build_params(primes, p)
    args = (params.field, params.H,
            params.S_m if exponents is None else exponents,
            params.n_target if n_min is None else n_min)
    return args, (logs, encs)


@pytest.mark.parametrize("name", sorted(SOLVER_PINS))
def test_mult1_search_pinned(name):
    args, pinned = _pinned_search(name)
    logs, coeffs = find_interpolation_set(*args)
    assert (logs, [c.enc for c in coeffs]) == pinned


def _raises(*args):
    raise AssertionError("FieldElement arithmetic in the search")


@pytest.mark.parametrize("name", ["binary", "odd", "F_7^10"])
def test_mult1_search_runs_on_encodings(name):
    """The search does no FieldElement or Field element arithmetic."""
    args, pinned = _pinned_search(name)
    with ExitStack() as stack:
        for cls, names in ((FieldElement, ("__add__", "__sub__", "__mul__",
                                           "__neg__", "__pow__")),
                           (Field, ("add", "sub", "mul", "neg"))):
            for attr in names:
                stack.enter_context(mock.patch.object(cls, attr, _raises))
        logs, coeffs = find_interpolation_set(*args)
    assert (logs, [c.enc for c in coeffs]) == pinned


# ---------------------------------------------------------------------------
# Multiplicity-2 lift.
# ---------------------------------------------------------------------------

def test_lift_binary_fixture_frozen(params_a, scheme_a):
    assert scheme_a.n == 3
    flat = [c.enc for pair in scheme_a.coeffs for c in pair]
    assert flat == [252, 252, 151, 509, 106, 257]    # recorded canonical lift


def test_lift_odd_fixture_frozen(params_b, scheme_b):
    assert scheme_b.n == 4
    flat = [c.enc for pair in scheme_b.coeffs for c in pair]
    assert flat == [7, 23, 7, 9, 21, 7, 21, 21]


def test_lift_zero_row_isolates_order_zero(params_a, params_b, scheme_a, scheme_b):
    # At s = 0 the derivative terms vanish, so sum_l a_{l,0} must be 1.
    for params, scheme in ((params_a, scheme_a), (params_b, scheme_b)):
        total = params.field.zero
        for a0, _ in scheme.coeffs:
            total = total + a0
        assert total == params.field.one


def test_lift_succeeds_across_parameter_sweep():
    # The lift of a certified multiplicity-1 set is always solvable; any
    # inconsistency fails the build.
    for primes, p in [((7, 73), 2), ((2, 3), 5), ((2, 3), 7),
                      ((3, 5), 2), ((3, 7), 2), ((2, 5), 3)]:
        params = build_params(primes, p)
        scheme = build_scheme(params)                # raises on lift failure
        assert verify_scheme(params, scheme).ok, (primes, p)
        logs, c = find_interpolation_set(params.field, params.H, params.S_m,
                                         params.n_target)
        assert scheme.point_logs == logs
        assert scheme.coeffs == tuple(
            (c_l, -(c_l * params.H[d])) for c_l, d in zip(c, logs))


def test_prime_m_smoke():
    # r = 1 is accepted: schemes over a prime m work end-to-end even
    # though interesting families need r >= 2.
    import random
    from itdpf.dpf import PointFunction, evaluate_key, keygen
    from itdpf.matching import trivial_family

    params = build_params([5], 2)
    assert params.n_target == 2
    scheme = build_scheme(params)
    assert scheme.n == 2
    family = trivial_family(params.M, 4)
    keys = keygen(params, family, scheme, PointFunction(4, 2, 2, 1),
                  random.Random(0))
    for x in range(1, 5):
        total = sum(evaluate_key(params, family, scheme, k, x)
                    for k in keys) % 2
        assert total == (1 if x == 2 else 0)


# ---------------------------------------------------------------------------
# Certification.
# ---------------------------------------------------------------------------

def test_verify_scheme_passes_fixtures(params_a, scheme_a, params_b, scheme_b):
    for params, scheme in ((params_a, scheme_a), (params_b, scheme_b)):
        cert = verify_scheme(params, scheme)
        assert cert.ok
        assert cert.random_cases == 100 and cert.random_failures == 0


def test_verify_scheme_catches_perturbation(params_a, scheme_a):
    a00, a01 = scheme_a.coeffs[0]
    corrupted = InterpolationScheme(
        scheme_a.points, scheme_a.point_logs,
        ((a00 + params_a.field.one, a01),) + scheme_a.coeffs[1:])
    cert = verify_scheme(params_a, corrupted, random_polynomials=0)
    assert not cert.ok
    assert 0 in cert.failed_exponents


# Failed exponents of the certificate rows, recorded when each row still
# powered its points afresh: for the lifted scheme of every pinned search
# (the free-variable sets interpolate only s = 0), and for each fixture
# with its first derivative coefficient raised by one.
CERTIFICATE_PINS = {**{name: () for name in SOLVER_PINS},
                    "binary_free_variable": (512, 658, 876),
                    "odd_free_variable": (10, 15, 25)}
PERTURBED_PINS = {"binary": (1, 147, 365, 511), "odd": (1, 6, 16, 21)}


def _pow_forbidden(*args):
    raise AssertionError("Field.pow in the certificate's rows")


def _certificate_rows(params, scheme):
    """verify_scheme's monomial rows alone, with Field.pow forbidden."""
    with mock.patch.object(Field, "pow", _pow_forbidden):
        return verify_scheme(params, scheme, random_polynomials=0)


@pytest.mark.parametrize("name", sorted(SOLVER_PINS))
def test_certificate_rows_pinned(name):
    primes, p, _, _, logs, encs = SOLVER_PINS[name]
    params = build_params(primes, p)
    scheme = interpolation._lifted_scheme(
        params, logs, [params.field.decode(e) for e in encs])
    assert _certificate_rows(params, scheme) == SchemeCertificate(
        not CERTIFICATE_PINS[name], CERTIFICATE_PINS[name], 0, 0)


@pytest.mark.parametrize("name", sorted(PERTURBED_PINS))
def test_certificate_rows_pinned_on_perturbed_fixture(name):
    primes, p = SOLVER_PINS[name][:2]
    params = build_params(primes, p)
    scheme = build_scheme(params)
    (a0, a1), *rest = scheme.coeffs
    perturbed = InterpolationScheme(
        scheme.points, scheme.point_logs,
        ((a0, a1 + params.field.one), *rest))
    assert _certificate_rows(params, perturbed) == SchemeCertificate(
        False, PERTURBED_PINS[name], 0, 0)


def test_recovery_map_is_linear(params_b, scheme_b):
    # E(data(R1) + data(R2)) = E(data(R1)) + E(data(R2)), exactly.
    import random
    fld = params_b.field
    rng = random.Random(9)
    size = len(params_b.S_M)

    def data_of(poly):
        rows = []
        for b in scheme_b.points:
            value = fld.zero
            deriv = fld.zero
            for s, c in poly.items():
                value = value + c * hasse_monomial(params_b, s, 0, b)
                deriv = deriv + c * hasse_monomial(params_b, s, 1, b)
            rows.append((value, deriv))
        return rows

    def apply_map(rows):
        out = fld.zero
        for (a0, a1), (value, deriv) in zip(scheme_b.coeffs, rows):
            out = out + a0 * value + a1 * deriv
        return out

    for _ in range(25):
        r1 = dict(zip(params_b.S_M, fld.random_elements(rng, size)))
        r2 = dict(zip(params_b.S_M, fld.random_elements(rng, size)))
        d1, d2 = data_of(r1), data_of(r2)
        joint = [(v1 + v2, w1 + w2) for (v1, w1), (v2, w2) in zip(d1, d2)]
        assert apply_map(joint) == apply_map(d1) + apply_map(d2)
        assert apply_map(d1) == r1[0]


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def test_scheme_json_round_trip_and_determinism(params_b, scheme_b):
    data = scheme_to_json(scheme_b)
    again = scheme_to_json(build_scheme(params_b))
    assert data == again
    loaded = scheme_from_json(params_b, data)
    assert scheme_to_json(loaded) == data


def test_scheme_json_rejects_points_outside_subgroup(params_b, scheme_b):
    import json
    obj = json.loads(scheme_to_json(scheme_b))
    obj["B_logs"][0] = 5  # wrong discrete log for the stored element
    with pytest.raises(ParameterError):
        scheme_from_json(params_b, (json.dumps(obj) + "\n").encode())


@pytest.mark.parametrize("path", [("mult1", 0), ("mult1", 3),
                                  ("A", 1, 1), ("A", 3, 1)])
def test_scheme_json_rejects_lift_not_in_closed_form(params_b, scheme_b, path):
    # mult1 must repeat A[:, 0], and A[l][1] must be -A[l][0] * B[l].
    import json
    obj = json.loads(scheme_to_json(scheme_b))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    entry = params_b.field.parse_element(parent[path[-1]])
    parent[path[-1]] = (entry + params_b.field.one).as_string()
    with pytest.raises(ParameterError):
        scheme_from_json(params_b, (json.dumps(obj) + "\n").encode())
