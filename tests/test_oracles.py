import itertools
import random

import pytest

from itdpf import oracles
from itdpf.dpf import PointFunction, make_shares
from itdpf.errors import FamilyViolationError
from itdpf.interpolation import InterpolationScheme
from itdpf.matching import MatchingFamily, product_family, trivial_family
from itdpf.oracles import (check_distribution_equality,
                           derivative_consistency_check, key_size_sweep,
                           measure_key_size, reconstruction_identity_check,
                           reduced_polynomial_table)


def _random_blind(params, h, rng):
    return [params.H[rng.randrange(params.m)] for _ in range(h)]


# ---------------------------------------------------------------------------
# Explicit coefficient table.
# ---------------------------------------------------------------------------

def test_table_at_the_special_point(params_b, family_b8):
    rng = random.Random(0)
    blind = _random_blind(params_b, 8, rng)
    alpha = 5
    table = reduced_polynomial_table(params_b, family_b8, alpha, alpha, blind)
    u_a = family_b8.u(alpha)
    expected = params_b.field.one
    for i in range(8):
        expected = expected * params_b.field.pow(blind[i], u_a[i] % params_b.m)
    assert table[0] == expected            # constant term is blind^{u_alpha}


def test_table_off_point_single_coefficient(params_b, family_b8):
    rng = random.Random(1)
    blind = _random_blind(params_b, 8, rng)
    table = reduced_polynomial_table(params_b, family_b8, 2, 7, blind)
    nonzero = {s: c for s, c in table.items() if not c.is_zero()}
    assert set(nonzero) == {1}             # basis cross product is 1


def test_table_constant_unblinds_to_delta(params_b, family_b8):
    fld = params_b.field
    rng = random.Random(2)
    for alpha, x in [(3, 3), (3, 4)]:
        blind = _random_blind(params_b, 8, rng)
        table = reduced_polynomial_table(params_b, family_b8, alpha, x, blind)
        u_a = family_b8.u(alpha)
        unblind = fld.one
        for i in range(8):
            unblind = unblind * fld.pow(blind[i], (-u_a[i]) % params_b.m)
        constant = table.get(0, fld.zero)
        expected = fld.one if alpha == x else fld.zero
        assert constant * unblind == expected


def test_table_rejects_corrupted_family_vector(params_b, family_b8):
    # Poking a 2 into v_alpha sends the cross product to 2, outside the
    # canonical set of 30.
    V = list(family_b8.V)
    v3 = list(V[2])
    v3[6] = 2
    V[2] = tuple(v3)
    corrupted = MatchingFamily(params_b.M, 8, family_b8.U, tuple(V),
                               certified=True)
    blind = [params_b.H[1]] * 8
    with pytest.raises(FamilyViolationError):
        reduced_polynomial_table(params_b, corrupted, 3, 7, blind)


# ---------------------------------------------------------------------------
# Derivative consistency.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", ["a", "b"])
def test_derivative_consistency_random_sweep(request, fixture):
    params = request.getfixturevalue(f"params_{fixture}")
    scheme = request.getfixturevalue(f"scheme_{fixture}")
    family = request.getfixturevalue("family_a16" if fixture == "a" else "family_b8")
    rng = random.Random(42)
    n = family.size
    for _ in range(100):
        alpha, x = rng.randrange(n) + 1, rng.randrange(n) + 1
        blind = _random_blind(params, family.h, rng)
        report = derivative_consistency_check(params, family, scheme,
                                              alpha, x, blind)
        assert report.ok, report.failures


def test_derivative_vanishes_when_exponents_divisible_by_p(params_b, scheme_b):
    # v entries all multiples of p kill every chain-rule factor, and the
    # table derivative must vanish identically too.
    family = MatchingFamily(30, 2, ((5, 5),), ((5, 25),), certified=True)
    blind = [params_b.H[2], params_b.H[4]]
    report = derivative_consistency_check(params_b, family, scheme_b, 1, 1, blind)
    assert report.ok
    table = reduced_polynomial_table(params_b, family, 1, 1, blind)
    for b in scheme_b.points:
        deriv = params_b.field.zero
        for s, c in table.items():
            scalar = s % params_b.p
            if scalar:
                deriv = deriv + c * params_b.field.const(scalar) \
                    * params_b.field.pow(b, (s - 1) % params_b.m)
        assert deriv.is_zero()


def test_derivative_consistency_with_unit_blind(params_a, scheme_a, family_a16):
    blind = [params_a.field.one] * 16
    for alpha, x in [(1, 1), (2, 9), (16, 16)]:
        report = derivative_consistency_check(params_a, family_a16, scheme_a,
                                              alpha, x, blind)
        assert report.ok


def test_oracles_over_product_family(params_a, scheme_a, params_b, scheme_b):
    # Non-basis vectors: both oracle paths must still agree exactly, on
    # every (alpha, x) up to N = 27 and on a sample of the 4096 at N = 64.
    rng = random.Random(5)
    for params, scheme in ((params_a, scheme_a), (params_b, scheme_b)):
        for k in range(1, 5):
            fam = product_family(params, h=3 * k)
            pairs = [(alpha, x) for alpha in range(1, fam.size + 1)
                     for x in range(1, fam.size + 1)]
            if k == 4:
                pairs = rng.sample(pairs, 256)
            for alpha, x in pairs:
                blind = _random_blind(params, fam.h, rng)
                assert derivative_consistency_check(
                    params, fam, scheme, alpha, x, blind).ok
                assert reconstruction_identity_check(
                    params, fam, scheme, alpha, x, blind).ok


# ---------------------------------------------------------------------------
# Reconstruction identity.
# ---------------------------------------------------------------------------

def test_reconstruction_identity_exhaustive_binary(params_a, scheme_a, family_a16):
    rng = random.Random(7)
    for alpha in range(1, 17):
        for x in range(1, 17):
            blind = _random_blind(params_a, 16, rng)
            report = reconstruction_identity_check(params_a, family_a16,
                                                   scheme_a, alpha, x, blind)
            assert report.ok, (alpha, x, report.failures)


def test_reconstruction_detects_corrupted_recovery_coefficient(
        params_b, scheme_b, family_b8):
    one = params_b.field.one
    a10, a11 = scheme_b.coeffs[1]
    corrupted = InterpolationScheme(
        scheme_b.points, scheme_b.point_logs,
        (scheme_b.coeffs[0], (a10, a11 + one)) + scheme_b.coeffs[2:])
    rng = random.Random(3)
    detected = 0
    for alpha, x in [(1, 1), (2, 5), (4, 4), (7, 3)]:
        blind = _random_blind(params_b, 8, rng)
        report = reconstruction_identity_check(params_b, family_b8, corrupted,
                                               alpha, x, blind)
        detected += 0 if report.ok else 1
    assert detected > 0


def test_reconstruction_detects_corrupted_family_entry(
        params_b, scheme_b, family_b8):
    # Corrupt the self-product slot of v_1: the dot product becomes 1,
    # which stays inside the canonical set (so the support check cannot
    # see it), but the recovered constant term no longer unblinds to the
    # Kronecker delta at alpha = x = 1.
    V = list(family_b8.V)
    v1 = list(V[0])
    assert v1[0] == 0
    v1[0] = 1
    V[0] = tuple(v1)
    tweaked = MatchingFamily(params_b.M, 8, family_b8.U, tuple(V),
                             certified=True)
    blind = [params_b.H[3]] * 8
    report = reconstruction_identity_check(params_b, tweaked, scheme_b,
                                           1, 1, blind)
    assert not report.ok
    assert any(f["kind"] == "delta" for f in report.failures)


# ---------------------------------------------------------------------------
# Distribution equality.
# ---------------------------------------------------------------------------

def test_share_multisets_identical_all_slots(params_b, scheme_b, family_b2):
    # One call covers every slot, comparing the share bytes a server
    # receives, then runs the mask grid once: 2 functions x 3 blinds.
    f0 = PointFunction(2, 5, 1, 1)
    f1 = PointFunction(2, 5, 2, 3)
    report = check_distribution_equality(params_b, family_b2, scheme_b,
                                         f0, f1)
    assert not report.skipped
    assert report.ok, report.failures
    assert report.cases == scheme_b.n + 6


def test_share_multisets_identical_as_wire_bytes(params_b, scheme_b, family_b2):
    # The bytes a server receives for slot 0, built on the upload path
    # (make_shares, then Field.pack) over every blind, form the same
    # multiset for f0 and f1, as the oracle reports.
    f0 = PointFunction(2, 5, 1, 1)
    f1 = PointFunction(2, 5, 2, 3)
    fld = params_b.field

    def wire_multiset(func):
        return sorted(
            fld.pack(make_shares(params_b, family_b2, scheme_b, func.alpha,
                                 list(blind))[0])
            for blind in itertools.product(params_b.H, repeat=family_b2.h))

    assert wire_multiset(f0) == wire_multiset(f1)
    report = check_distribution_equality(params_b, family_b2, scheme_b,
                                         f0, f1)
    assert report.ok, report.failures


@pytest.mark.parametrize("altered", [0, 3])
def test_altered_share_names_its_slot(params_b, scheme_b, family_b2,
                                      monkeypatch, altered):
    # f1's share at one slot gets a constant first entry: exactly that
    # slot's multiset differs.
    f0 = PointFunction(2, 5, 1, 1)
    f1 = PointFunction(2, 5, 2, 3)
    honest = oracles.shares_from_logs

    def shares(params, family, scheme, alpha, logs):
        out = honest(params, family, scheme, alpha, logs)
        if (alpha == f1.alpha
                and scheme.point_logs == (scheme_b.point_logs[altered],)):
            out = [(params.H_enc[0],) + share[1:] for share in out]
        return out

    monkeypatch.setattr(oracles, "shares_from_logs", shares)
    report = check_distribution_equality(params_b, family_b2, scheme_b,
                                         f0, f1)
    assert report.failures == [{"kind": "share_multiset", "slot": altered}]


def test_share_multisets_identical_over_product_family(params_b, scheme_b):
    """Exact 1-privacy on the smallest product family with more than one
    point: h = 6, N = 8, m^h = 46,656 blinds per slot.  alpha = 1 and
    alpha = 8 differ in every digit, so v_alpha differs in every block."""
    family = product_family(params_b, h=6)
    f0 = PointFunction(8, 5, 1, 1)
    f1 = PointFunction(8, 5, 8, 3)
    assert all(a != b for a, b in zip(family.v(1), family.v(8)))
    report = check_distribution_equality(params_b, family, scheme_b, f0, f1)
    assert not report.skipped
    assert report.ok, report.failures


def test_equal_functions_trivially_equal(params_b, scheme_b, family_b2):
    f = PointFunction(2, 5, 1, 2)
    report = check_distribution_equality(params_b, family_b2, scheme_b,
                                         f, f)
    assert report.ok


def test_budget_exceeded_reports_skip(params_b, scheme_b, family_b8):
    f0 = PointFunction(8, 5, 1, 1)
    f1 = PointFunction(8, 5, 2, 3)
    report = check_distribution_equality(params_b, family_b8, scheme_b,
                                         f0, f1, enumeration_budget=10)
    assert report.skipped is not None
    assert report.ok                      # skipped, not failed


def test_two_share_collusion_leaks_the_index(params_b, scheme_b, family_b8):
    # Documented negative example, not a security claim: privacy is
    # 1-private only.  Two shares reveal (b1/b2)^{v_alpha} entry-wise,
    # and with both points public that pins down alpha exactly.
    from itdpf.dpf import make_shares
    fld = params_b.field
    rng = random.Random(13)
    blind = _random_blind(params_b, 8, rng)
    b1, b2 = scheme_b.points[0], scheme_b.points[1]
    ratio_base = b1 * b2.inverse()

    def identify(shares):
        ratios = [x * y.inverse() for x, y in
                  zip(shares[0][:8], shares[1][:8])]
        matches = []
        for cand in range(1, 9):
            v = family_b8.v(cand)
            if all(ratio_base ** (v[i] % params_b.m) == ratios[i]
                   for i in range(8)):
                matches.append(cand)
        return matches

    for alpha in (2, 7):
        shares = [tuple(map(fld.decode, share)) for share in
                  make_shares(params_b, family_b8, scheme_b, alpha, blind)]
        assert identify(shares) == [alpha]   # colluding pair wins outright


# ---------------------------------------------------------------------------
# Key size.
# ---------------------------------------------------------------------------

def test_key_size_binary_fixture(params_a, scheme_a, family_a16):
    audit = measure_key_size(params_a, family_a16, scheme_a)
    assert audit.measured == audit.formula == 313   # 7 + 2*17*9*1
    assert audit.header == 7


def test_key_size_minimal_h(params_b, scheme_b):
    family = trivial_family(params_b.M, 1)
    audit = measure_key_size(params_b, family, scheme_b)
    assert audit.ok
    assert audit.measured == 7 + 2 * 2 * 2 * 1      # h=1, tau=2, width=1


def test_key_size_sweep_is_affine(params_a, scheme_a):
    audits = key_size_sweep(params_a, scheme_a)
    assert [a.h for a in audits] == [2, 4, 8, 16, 32]
    slope = 2 * params_a.tau * 1
    for audit in audits:
        assert audit.ok
        assert audit.measured == audit.header + slope * (audit.h + 1)
    # doubling h doubles the payload: payload(2h) = 2*payload(h) - slope
    by_h = {a.h: a.measured - a.header for a in audits}
    for h in (2, 4, 8, 16):
        assert by_h[2 * h] == 2 * by_h[h] - slope
