import hashlib
import json
import random

import pytest

from itdpf.dpf import (KEY_HEADER_LEN, KEY_MAGIC, KEY_VERSION, DpfKey,
                       PointFunction, deserialize_key, evaluate_all,
                       evaluate_key, key_byte_length, key_from_json,
                       key_to_json, keygen, make_shares, serialize_key)
from itdpf.errors import ArtifactMismatchError, KeyParseError, ParameterError
from itdpf.interpolation import InterpolationScheme, build_scheme
from itdpf.matching import (MAX_H, MatchingFamily, product_family,
                            trivial_family)
from itdpf.oracles import convert_share
from itdpf.params import build_params


def _decoded(params, vector):
    """A key vector of encodings as field elements."""
    return tuple(map(params.field.decode, vector))


def _sum_eval(params, family, scheme, keys, x):
    return sum(evaluate_key(params, family, scheme, k, x)
               for k in keys) % params.p


# ---------------------------------------------------------------------------
# Share generation.
# ---------------------------------------------------------------------------

def test_shares_with_zero_exponent_vector(params_b, scheme_b):
    # v_alpha = 0 means no blind rotation: share = (blind, point).
    family = MatchingFamily(params_b.M, 2, ((0, 0),), ((0, 0),), certified=True)
    rng = random.Random(0)
    blind = [params_b.H[rng.randrange(6)] for _ in range(2)]
    shares = make_shares(params_b, family, scheme_b, 1, blind)
    for share, point in zip(shares, scheme_b.points):
        assert share == (*(z.enc for z in blind), point.enc)


def test_shares_with_unit_blind(params_b, scheme_b, family_b8):
    blind = [params_b.field.one] * 8
    shares = make_shares(params_b, family_b8, scheme_b, 3, blind)
    v = family_b8.v(3)
    for share, point in zip(shares, scheme_b.points):
        for i in range(8):
            assert share[i] == (point ** (v[i] % params_b.m)).enc


def test_shares_match_direct_exponentiation(params_b, scheme_b):
    family = trivial_family(params_b.M, 3)
    rng = random.Random(5)
    blind = [params_b.H[rng.randrange(6)] for _ in range(3)]
    shares = make_shares(params_b, family, scheme_b, 2, blind)
    v = family.v(2)
    for share, point in zip(shares, scheme_b.points):
        for i in range(3):
            expected = blind[i] * point ** (v[i] % params_b.m)
            assert share[i] == expected.enc
        assert share[3] == point.enc


def test_shares_reject_blind_outside_subgroup(params_b, scheme_b, family_b8):
    generator = params_b.field.smallest_generator()   # order 24, not 6
    blind = [generator] + [params_b.H[0]] * 7
    with pytest.raises(ParameterError):
        make_shares(params_b, family_b8, scheme_b, 1, blind)


def test_shares_reject_uncertified_family(params_b, scheme_b):
    fam = trivial_family(params_b.M, 4)
    uncertified = MatchingFamily(fam.modulus, fam.h, fam.U, fam.V, False)
    with pytest.raises(ParameterError, match="not certified"):
        make_shares(params_b, uncertified, scheme_b, 1, [params_b.H[0]] * 4)


# ---------------------------------------------------------------------------
# Share conversion.
# ---------------------------------------------------------------------------

def test_convert_share_basis_structure(params_b, scheme_b, family_b8):
    # With basis-vector exponents, the converted share is supported on
    # entry 0 and the single slot matching x.
    rng = random.Random(2)
    blind = [params_b.H[rng.randrange(6)] for _ in range(8)]
    shares = [_decoded(params_b, share) for share in
              make_shares(params_b, family_b8, scheme_b, 4, blind)]
    x = 6
    for slot in range(scheme_b.n):
        conv = convert_share(params_b, family_b8, scheme_b, slot, x, shares[slot])
        a0, a1 = scheme_b.coeffs[slot]
        point = scheme_b.points[slot]
        c_x = shares[slot][x - 1]
        assert conv[0] == a0 * c_x                      # single monomial value
        assert conv[x] == a1 * c_x * point.inverse()    # gradient is basis-like
        for i in range(1, 9):
            if i != x:
                assert conv[i].is_zero()


def test_convert_share_zero_coefficients(params_b, scheme_b, family_b8):
    zero = params_b.field.zero
    muted = InterpolationScheme(
        scheme_b.points, scheme_b.point_logs,
        ((zero, zero),) + scheme_b.coeffs[1:])
    blind = [params_b.H[1]] * 8
    share = make_shares(params_b, family_b8, muted, 2, blind)[0]
    conv = convert_share(params_b, family_b8, muted, 0, 5,
                         _decoded(params_b, share))
    assert all(e.is_zero() for e in conv)


def test_convert_share_ignores_exponent_shifts_by_M(params_b, scheme_b):
    base = trivial_family(params_b.M, 4)
    shifted = MatchingFamily(
        params_b.M, 4,
        tuple(tuple(e + params_b.M for e in u) for u in base.U),
        tuple(tuple(e + params_b.M for e in v) for v in base.V),
        certified=True)
    rng = random.Random(3)
    blind = [params_b.H[rng.randrange(6)] for _ in range(4)]
    for alpha in (1, 3):
        s1 = make_shares(params_b, base, scheme_b, alpha, blind)
        s2 = make_shares(params_b, shifted, scheme_b, alpha, blind)
        assert s1 == s2
        for x in range(1, 5):
            for slot in range(scheme_b.n):
                assert (convert_share(params_b, base, scheme_b, slot, x,
                                      _decoded(params_b, s1[slot]))
                        == convert_share(params_b, shifted, scheme_b, slot, x,
                                         _decoded(params_b, s2[slot])))


# ---------------------------------------------------------------------------
# Key generation and evaluation.
# ---------------------------------------------------------------------------

def test_keygen_mask_sum_identity(params_b, scheme_b, family_b8):
    seed = 123
    func = PointFunction(8, 5, 6, 4)
    keys = keygen(params_b, family_b8, scheme_b, func, random.Random(seed))
    assert len(keys) == 2 * scheme_b.n

    # Replay the documented draw order to recompute the correction target.
    fld = params_b.field
    replay = random.Random(seed)
    blind = [params_b.H[replay.randrange(params_b.m)] for _ in range(8)]
    u_a, v_a = family_b8.u(6), family_b8.v(6)
    corr = fld.one
    for i in range(8):
        corr = corr * fld.pow(blind[i], (-u_a[i]) % params_b.m)
    scaled = corr * fld.const(4)
    target = [scaled] + [scaled * fld.const(v_a[i] % 5) for i in range(8)]

    n = scheme_b.n
    for slot in range(n):
        summed = [a + b for a, b in zip(
            _decoded(params_b, keys[slot].mask),
            _decoded(params_b, keys[n + slot].mask))]
        assert summed == target
        assert keys[slot].share == keys[n + slot].share


def test_keygen_index_layout(params_a, scheme_a, family_a16):
    keys = keygen(params_a, family_a16, scheme_a,
                  PointFunction(16, 2, 1, 1), random.Random(0))
    for key in keys:
        half, slot = divmod(key.index, scheme_a.n)
        assert key.index == scheme_a.n * half + slot
        assert key.share[-1] == scheme_a.points[slot].enc


def test_correctness_binary_fixture_spot(params_a, scheme_a, family_a16):
    keys = keygen(params_a, family_a16, scheme_a,
                  PointFunction(16, 2, 3, 1), random.Random(0))
    values = [0] * 16
    for key in keys:
        for i, y in enumerate(evaluate_all(params_a, family_a16, scheme_a, key)):
            values[i] = (values[i] + y) % 2
    assert values == [1 if x == 3 else 0 for x in range(1, 17)]


def test_correctness_odd_fixture_all_beta(params_b, scheme_b, family_b8):
    for beta in range(5):
        keys = keygen(params_b, family_b8, scheme_b,
                      PointFunction(8, 5, 2, beta), random.Random(beta))
        for x in (1, 2, 5):
            got = _sum_eval(params_b, family_b8, scheme_b, keys, x)
            assert got == (beta if x == 2 else 0)


def test_correctness_over_product_family(params_a, scheme_a,
                                         params_b, scheme_b):
    # Non-basis exponent vectors: each u_x has a nonzero entry in every
    # block, so the monomial spans several coordinates of the share.
    for params, scheme in ((params_a, scheme_a), (params_b, scheme_b)):
        for k in range(1, 5):
            fam = product_family(params, h=3 * k)
            assert fam.size == k ** 3
            assert all(sum(1 for e in u if e % params.m) == 2 for u in fam.U)
            for alpha in range(1, fam.size + 1):
                beta = (alpha + k) % params.p
                keys = keygen(params, fam, scheme,
                              PointFunction(fam.size, params.p, alpha, beta),
                              random.Random(10 * alpha + k))
                outputs = [evaluate_all(params, fam, scheme, key)
                           for key in keys]
                assert [sum(col) % params.p for col in zip(*outputs)] == [
                    beta if x == alpha else 0
                    for x in range(1, fam.size + 1)], (k, alpha, beta)


def test_zero_function_sums_to_zero_everywhere(params_b, scheme_b, family_b8):
    keys = keygen(params_b, family_b8, scheme_b,
                  PointFunction(8, 5, 4, 0), random.Random(17))
    for x in range(1, 9):
        assert _sum_eval(params_b, family_b8, scheme_b, keys, x) == 0


def test_zero_mask_evaluates_to_zero(params_b, scheme_b, family_b8):
    keys = keygen(params_b, family_b8, scheme_b,
                  PointFunction(8, 5, 1, 1), random.Random(4))
    zeroed = DpfKey(keys[0].index, (0,) * 9, keys[0].share)
    for x in range(1, 9):
        assert evaluate_key(params_b, family_b8, scheme_b, zeroed, x) == 0


def test_bilinear_regrouping(params_b, scheme_b, family_b8):
    # Summing per-key projections equals projecting the regrouped inner
    # product of summed masks with summed conversions.
    fld = params_b.field
    keys = keygen(params_b, family_b8, scheme_b,
                  PointFunction(8, 5, 3, 2), random.Random(8))
    n = scheme_b.n
    for x in (1, 3, 7):
        direct = _sum_eval(params_b, family_b8, scheme_b, keys, x)
        mask_sum = [a + b for a, b in zip(_decoded(params_b, keys[0].mask),
                                          _decoded(params_b, keys[n].mask))]
        conv_sum = [fld.zero] * 9
        for slot in range(n):
            conv = convert_share(params_b, family_b8, scheme_b, slot, x,
                                 _decoded(params_b, keys[slot].share))
            conv_sum = [a + b for a, b in zip(conv_sum, conv)]
        inner = fld.zero
        for a, b in zip(mask_sum, conv_sum):
            inner = inner + a * b
        assert inner.constant_term == direct


def test_eval_rejects_out_of_range(params_b, scheme_b, family_b8):
    keys = keygen(params_b, family_b8, scheme_b,
                  PointFunction(8, 5, 1, 1), random.Random(0))
    for x in (0, 9, -1):
        with pytest.raises(ParameterError):
            evaluate_key(params_b, family_b8, scheme_b, keys[0], x)


def test_keygen_rejects_mismatched_function(params_b, scheme_b, family_b8):
    with pytest.raises(ParameterError):
        keygen(params_b, family_b8, scheme_b,
               PointFunction(9, 5, 1, 1), random.Random(0))
    with pytest.raises(ParameterError):
        keygen(params_b, family_b8, scheme_b,
               PointFunction(8, 7, 1, 1), random.Random(0))


def test_point_function_validation():
    with pytest.raises(ParameterError):
        PointFunction(8, 5, 0, 1)
    with pytest.raises(ParameterError):
        PointFunction(8, 5, 9, 1)
    with pytest.raises(ParameterError):
        PointFunction(8, 5, 1, 5)


# ---------------------------------------------------------------------------
# Perfect-security structure.
# ---------------------------------------------------------------------------

def test_single_share_blind_map_is_bijection(params_b, scheme_b, family_b2):
    # For fixed slot and alpha, blind -> blinded section permutes the
    # whole square of the subgroup: enumerate all 36 blinds exactly.
    m = params_b.m
    for alpha in (1, 2):
        for slot in range(scheme_b.n):
            images = set()
            for c0 in range(m):
                for c1 in range(m):
                    blind = [params_b.H[c0], params_b.H[c1]]
                    share = make_shares(params_b, family_b2, scheme_b,
                                        alpha, blind)[slot]
                    images.add((share[0], share[1]))
            assert len(images) == m * m


def test_key_distribution_equality_exhaustive(params_b, scheme_b, family_b2):
    # Exact multiset equality of whole keys over ALL randomness (36
    # blinds x 25^3 first masks) for two different functions, at the
    # representative indices 0 (half 0) and n (half 1).  Other slots
    # only change which public point is attached, hence the restriction.
    fld = params_b.field
    q = fld.order
    m = params_b.m
    f0 = PointFunction(2, 5, 1, 1)
    f1 = PointFunction(2, 5, 2, 3)

    sub_enc = [[(fld.decode(a) - fld.decode(b)).enc for b in range(q)]
               for a in range(q)]
    shift = q * q * q

    def samples(func, half):
        out = []
        u_a, v_a = family_b2.u(func.alpha), family_b2.v(func.alpha)
        for c0 in range(m):
            for c1 in range(m):
                blind = [params_b.H[c0], params_b.H[c1]]
                share = make_shares(params_b, family_b2, scheme_b,
                                    func.alpha, blind)[0]
                share_code = (share[0] * q + share[1]) * q + share[2]
                if half == 0:
                    for o in range(q ** 3):
                        out.append(o * shift + share_code)
                    continue
                corr = fld.one
                for i in range(2):
                    corr = corr * fld.pow(blind[i], (-u_a[i]) % m)
                scaled = corr * fld.const(func.beta)
                target = [scaled] + [scaled * fld.const(v_a[i] % 5)
                                     for i in range(2)]
                r0, r1, r2 = (sub_enc[t.enc] for t in target)
                for a in r0:
                    pa = a * q
                    for b in r1:
                        pab = (pa + b) * q
                        for c in r2:
                            out.append((pab + c) * shift + share_code)
        out.sort()
        return out

    for half in (0, 1):
        assert samples(f0, half) == samples(f1, half), f"half {half} leaks"


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_binary_round_trip(params_a, scheme_a, family_a16):
    keys = keygen(params_a, family_a16, scheme_a,
                  PointFunction(16, 2, 7, 1), random.Random(21))
    for key in keys:
        blob = serialize_key(params_a, key)
        assert len(blob) == key_byte_length(params_a, 16)
        assert deserialize_key(params_a, scheme_a.n, blob) == key


def test_binary_round_trip_odd_characteristic(params_b, scheme_b, family_b8):
    keys = keygen(params_b, family_b8, scheme_b,
                  PointFunction(8, 5, 5, 3), random.Random(34))
    for key in keys:
        blob = serialize_key(params_b, key)
        assert deserialize_key(params_b, scheme_b.n, blob) == key


def test_truncated_stream_is_a_parse_error(params_a, scheme_a, family_a16):
    key = keygen(params_a, family_a16, scheme_a,
                 PointFunction(16, 2, 1, 1), random.Random(0))[0]
    blob = serialize_key(params_a, key)
    with pytest.raises(KeyParseError) as info:
        deserialize_key(params_a, scheme_a.n, blob[:5])
    assert info.value.offset == 5
    with pytest.raises(KeyParseError):
        deserialize_key(params_a, scheme_a.n, blob[:-1])


def test_key_longer_than_any_family_is_refused(params_b, scheme_b):
    # Zero bytes are valid coefficients: h = MAX_H parses, h + 1 does not.
    header = KEY_MAGIC + bytes([KEY_VERSION]) + (0).to_bytes(2, "big")
    size = params_b.tau
    longest = header + bytes(2 * (MAX_H + 1) * size)
    assert len(deserialize_key(params_b, scheme_b.n, longest).mask) == (
        MAX_H + 1)
    data = header + bytes(2 * (MAX_H + 2) * size)
    with pytest.raises(KeyParseError, match="too long") as info:
        deserialize_key(params_b, scheme_b.n, data)
    assert info.value.offset == len(data) > KEY_HEADER_LEN


def test_bad_magic_and_version(params_a, scheme_a, family_a16):
    key = keygen(params_a, family_a16, scheme_a,
                 PointFunction(16, 2, 1, 1), random.Random(0))[0]
    blob = serialize_key(params_a, key)
    with pytest.raises(KeyParseError):
        deserialize_key(params_a, scheme_a.n, b"XXXX" + blob[4:])
    with pytest.raises(KeyParseError):
        deserialize_key(params_a, scheme_a.n, blob[:4] + b"\x09" + blob[5:])


def test_json_round_trip_and_digest_gate(params_b, scheme_b, family_b8):
    key = keygen(params_b, family_b8, scheme_b,
                 PointFunction(8, 5, 2, 2), random.Random(1))[3]
    data = key_to_json(params_b, scheme_b.n, key, "d" * 64)
    assert key_from_json(params_b, scheme_b.n, data,
                         expected_digest="d" * 64) == key
    assert key_from_json(params_b, scheme_b.n, data) == key   # digest optional
    with pytest.raises(ArtifactMismatchError):
        key_from_json(params_b, scheme_b.n, data, expected_digest="e" * 64)


def _edited_key_json(params, scheme, family, **fields):
    key = keygen(params, family, scheme, PointFunction(8, 5, 2, 2),
                 random.Random(1))[scheme.n + 1]
    obj = json.loads(key_to_json(params, scheme.n, key, "d" * 64))
    assert (obj["j"], obj["ell"]) == (1, 1)
    return json.dumps({**obj, **fields}).encode()


@pytest.mark.parametrize("fields", [{"j": 0}, {"ell": 2}, {"j": 0, "ell": 1}])
def test_json_layout_must_match_index(params_b, scheme_b, family_b8, fields):
    data = _edited_key_json(params_b, scheme_b, family_b8, **fields)
    with pytest.raises(ParameterError, match="differs"):
        key_from_json(params_b, scheme_b.n, data)


def test_json_must_be_what_key_to_json_writes(params_b, scheme_b, family_b8):
    """An unknown field, or a mask entry spelled otherwise than
    key_to_json writes it ("00 ,3" for "0,3"), is refused."""
    omega = json.loads(_edited_key_json(params_b, scheme_b, family_b8))["omega"]
    respelled = ["0" + omega[0].replace(",", " ,"), *omega[1:]]
    for fields, match in (({"note": "x"}, "unknown field 'note'"),
                          ({"omega": respelled}, "field 'omega' differs")):
        data = _edited_key_json(params_b, scheme_b, family_b8, **fields)
        with pytest.raises(ParameterError, match=match):
            key_from_json(params_b, scheme_b.n, data)


@pytest.mark.parametrize("index", [-1, 8, 9, 65535])
def test_json_index_out_of_range(params_b, scheme_b, family_b8, index):
    assert scheme_b.n == 4
    j, ell = divmod(index, scheme_b.n)
    data = _edited_key_json(params_b, scheme_b, family_b8,
                            i=index, j=j, ell=ell)
    with pytest.raises(ParameterError, match="not an integer in"):
        key_from_json(params_b, scheme_b.n, data)


# ---------------------------------------------------------------------------
# The wire form, pinned: sha256 over every serialize_key output of keygen
# at seeds 0-4, per fixture and family.  Recorded on the FieldElement key
# form, so a change of the key's in-memory form cannot move a byte.
# ---------------------------------------------------------------------------

WIRE_HASHES = {
    "binary-basis16":
        "4d4aa98a2173de130eef15aaacd5be922ebc66282818071c6b1b6f886b8c31d7",
    "binary-product12":
        "739a533c61579a0b6de2b67c77702adfd137ce0a2a0f926bb1bb8dda5639811f",
    "odd-basis8":
        "e59d80ba050c9c8d728d4caf4cf254ae01d29714f7b07cf49ba3dae49de925f7",
    "odd-product12":
        "4714e8c841e1a5ddaa8ce1818f921b15612fc51ba56597fa5bdf618527fd2b42",
    "wide-basis6":
        "abd23bf4d50b4ebc56a3e3bc8b9b35042080dca44791a09b4e9d9d788a6ea9e0",
}


def _wire_family(params, kind):
    if kind.startswith("product"):
        return product_family(params, int(kind[len("product"):]))
    return trivial_family(params.M, int(kind[len("basis"):]))


@pytest.mark.parametrize("case", sorted(WIRE_HASHES))
def test_wire_bytes_are_pinned(case):
    fixture, kind = case.split("-")
    primes, p = {"binary": ((7, 73), 2), "odd": ((2, 3), 5),
                 "wide": ((2,), 257)}[fixture]
    params = build_params(primes, p)
    scheme = build_scheme(params)
    family = _wire_family(params, kind)
    digest = hashlib.sha256()
    for seed in range(5):
        rng = random.Random(seed)
        func = PointFunction(family.size, p, rng.randrange(family.size) + 1,
                             rng.randrange(p))
        for key in keygen(params, family, scheme, func, rng):
            digest.update(serialize_key(params, key))
    assert digest.hexdigest() == WIRE_HASHES[case]
