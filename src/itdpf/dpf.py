"""Key generation and per-server evaluation of the point-function scheme.

A point function over [1, N] with output in Z_p is split into 2n keys
(n = interpolation-set size).  Key generation draws a multiplicative
blinding vector over the order-m subgroup, attaches to each of the n
interpolation points a share consisting of the blinded power vector and
the point itself, and splits a correction vector additively into two
masks.  A server holding key i = n*j + l evaluates any input x locally
as one monomial in its share entries times one linear form in its mask,
projected onto the constant coefficient; this is the collapsed form of
the share conversion (value plus scaled gradient) whose vector form
lives in the oracles as the reference.  Summing all 2n outputs mod p
reconstructs the function value; any single key is distributed
independently of the function.

Randomness contract: key generation consumes the injected rng in a
fixed documented order (blind vector first, one subgroup index per
coordinate; then the first mask, tau residues per coordinate), so a
seeded rng reproduces keys exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ArtifactMismatchError, KeyParseError, ParameterError
from .field import FieldElement
from .interpolation import InterpolationScheme
from .matching import MatchingFamily
from .params import DpfParams, canonical_json_bytes

KEY_MAGIC = b"IDPF"
KEY_VERSION = 1
KEY_HEADER_LEN = 7  # magic + version byte + 2-byte key index


@dataclass(frozen=True)
class PointFunction:
    """f(x) = beta if x == alpha else 0, on the domain [1, N] into Z_p."""

    domain_size: int
    modulus: int
    alpha: int
    beta: int

    def __post_init__(self):
        if not 1 <= self.alpha <= self.domain_size:
            raise ParameterError(
                f"alpha={self.alpha} outside [1, {self.domain_size}]")
        if not 0 <= self.beta < self.modulus:
            raise ParameterError(f"beta={self.beta} outside [0, {self.modulus})")

    def value_at(self, x: int) -> int:
        return self.beta if x == self.alpha else 0


@dataclass(frozen=True)
class Share:
    """One server's share: h blinded subgroup elements plus its point."""

    slot: int
    vector: tuple[FieldElement, ...]


@dataclass(frozen=True)
class DpfKey:
    index: int                       # i in [0, 2n)
    half: int                        # j = i // n
    slot: int                        # l = i % n
    mask: tuple[FieldElement, ...]
    share: Share

    def __post_init__(self):
        if self.half not in (0, 1):
            raise ParameterError(f"key half must be 0 or 1, got {self.half}")
        if self.share.slot != self.slot:
            raise ParameterError("key slot does not match its share")


def _check_context(params: DpfParams, family: MatchingFamily,
                   scheme: InterpolationScheme) -> None:
    if family.modulus != params.M:
        raise ParameterError(
            f"family modulus {family.modulus} != params M {params.M}")
    if not family.certified:
        raise ParameterError("family is not certified; run verify_family first")
    if scheme.n < 1:
        raise ParameterError("scheme has no interpolation points")


def make_shares(params: DpfParams, family: MatchingFamily,
                scheme: InterpolationScheme, alpha: int,
                blind: list[FieldElement]) -> list[Share]:
    """Shares of alpha: for each point b, the vector of coordinate-wise
    products blind_i * b^(v_i) followed by b itself, where v is the
    family's second vector at alpha (exponents mod m)."""
    _check_context(params, family, scheme)
    fld = params.field
    if len(blind) != family.h:
        raise ParameterError(f"blind vector must have length {family.h}")
    for z in blind:
        if not fld.in_subgroup(z, params.m):
            raise ParameterError("blind entry outside the order-m subgroup")
    v_alpha = family.v(alpha)
    shares = []
    for slot, b in enumerate(scheme.points):
        first = tuple(
            blind[i] * fld.pow(b, v_alpha[i] % params.m)
            for i in range(family.h)
        )
        shares.append(Share(slot, first + (b,)))
    return shares


def keygen(params: DpfParams, family: MatchingFamily,
           scheme: InterpolationScheme, func: PointFunction,
           rng) -> list[DpfKey]:
    """Generate the 2n keys of a point function.

    The correction vector is (blind^{-u_alpha} * beta) * (1, v_alpha),
    with v_alpha entries reduced mod p into the prime subfield; it is
    split as mask0 + mask1 with mask0 uniform, and key i = n*j + l
    carries (mask_j, share_l).
    """
    _check_context(params, family, scheme)
    if func.domain_size != family.size:
        raise ParameterError(
            f"function domain {func.domain_size} != family size {family.size}")
    if func.modulus != params.p:
        raise ParameterError(
            f"function modulus {func.modulus} != params p {params.p}")
    fld = params.field
    m = params.m
    h = family.h

    blind = [params.H[rng.randrange(m)] for _ in range(h)]
    shares = make_shares(params, family, scheme, func.alpha, blind)

    u_alpha = family.u(func.alpha)
    correction = fld.one
    for i in range(h):
        correction = correction * fld.pow(blind[i], (-u_alpha[i]) % m)
    scaled = correction * fld.const(func.beta)

    v_alpha = family.v(func.alpha)
    target = [scaled] + [scaled * fld.const(v_alpha[i] % params.p)
                         for i in range(h)]

    mask0 = tuple(fld.random_element(rng) for _ in range(h + 1))
    mask1 = tuple(t - o for t, o in zip(target, mask0))

    n = scheme.n
    keys = []
    for half, mask in ((0, mask0), (1, mask1)):
        for slot in range(n):
            keys.append(DpfKey(index=n * half + slot, half=half,
                               slot=slot, mask=mask, share=shares[slot]))
    return keys


def evaluate_key(params: DpfParams, family: MatchingFamily,
                 scheme: InterpolationScheme, key: DpfKey, x: int) -> int:
    """One server's output share at input x, a residue mod p: the
    constant term of value * (a0*mask[0] + a1/b * sum_i (u_i mod p)*mask[i+1])
    with value = prod_i c_i^(u_i mod m), u = u_x, c the share entries, b
    the share point and (a0, a1) the slot's recovery coefficients.

    This is the mask's inner product with oracles.convert_share,
    collapsed: each c_i lies in the order-m subgroup, so c_i times the
    i-th partial derivative of the monomial is its value again.  The
    field-op count depends on x and the family only.  The key must pass
    check_key.
    """
    if not 1 <= x <= family.size:
        raise ParameterError(f"x={x} outside the domain [1, {family.size}]")
    fld = params.field
    m, p = params.m, params.p
    share, mask = key.share.vector, key.mask
    value = fld.one
    linear = fld.zero
    for i, u in enumerate(family.u(x)):
        if u % m:
            value = value * fld.pow(share[i], u % m)
        if u % p:
            linear = linear + fld.const(u % p) * mask[i + 1]
    a0, a1 = scheme.coeffs[key.slot]
    rescale = a1 * share[family.h].inverse()
    return (value * (a0 * mask[0] + rescale * linear)).constant_term


def evaluate_all(params: DpfParams, family: MatchingFamily,
                 scheme: InterpolationScheme, key: DpfKey) -> list[int]:
    """Full-domain evaluation (one residue per x in [1, N])."""
    return [evaluate_key(params, family, scheme, key, x)
            for x in range(1, family.size + 1)]


def check_key(params: DpfParams, scheme: InterpolationScheme, h: int,
              key: DpfKey) -> None:
    """Reject a key that evaluate_key cannot serve: wrong vector length
    for the family's h, an index that disagrees with its slot, a share
    point other than the slot's interpolation point, or a share entry
    outside the order-m subgroup (evaluate_key relies on c_i^m = 1)."""
    n = scheme.n
    if len(key.mask) != h + 1 or len(key.share.vector) != h + 1:
        raise ParameterError(
            f"key vectors have lengths {len(key.mask)} and "
            f"{len(key.share.vector)}, expected {h + 1} for h={h}")
    if not 0 <= key.slot < n or key.index != n * key.half + key.slot:
        raise ParameterError(
            f"key index {key.index} does not match its slot {key.slot}")
    if key.share.vector[h] != scheme.points[key.slot]:
        raise ParameterError(
            f"key share point is not the interpolation point of slot {key.slot}")
    for c in key.share.vector[:h]:
        if not params.field.in_subgroup(c, params.m):
            raise ParameterError("key share entry outside the order-m subgroup")


# ---------------------------------------------------------------------------
# Serialization: compact binary form (wire) and canonical JSON (artifacts).
# ---------------------------------------------------------------------------

def coeff_width(p: int) -> int:
    """Bytes per coefficient: residues mod p packed little-endian."""
    return ((p - 1).bit_length() + 7) // 8


def key_byte_length(params: DpfParams, h: int) -> int:
    """Exact serialized size: header + 2*(h+1)*tau*width."""
    return KEY_HEADER_LEN + 2 * (h + 1) * params.tau * coeff_width(params.p)


def _pack_elements(params: DpfParams, elems) -> bytes:
    width = coeff_width(params.p)
    out = bytearray()
    for e in elems:
        for c in e.coeffs:
            out += c.to_bytes(width, "little")
    return bytes(out)


def serialize_key(params: DpfParams, key: DpfKey) -> bytes:
    """Binary form: magic, version, 2-byte index, then the mask and share
    vectors as packed little-endian coefficient arrays."""
    return (KEY_MAGIC + bytes([KEY_VERSION]) + key.index.to_bytes(2, "big")
            + _pack_elements(params, key.mask)
            + _pack_elements(params, key.share.vector))


def deserialize_key(params: DpfParams, n: int, data: bytes) -> DpfKey:
    """Parse the binary form; n is the scheme size (fixes index -> slot)."""
    if len(data) < KEY_HEADER_LEN:
        raise KeyParseError("truncated key header", len(data))
    if data[:4] != KEY_MAGIC:
        raise KeyParseError("bad key magic", 0)
    if data[4] != KEY_VERSION:
        raise KeyParseError(f"unsupported key version {data[4]}", 4)
    index = int.from_bytes(data[5:7], "big")

    width = coeff_width(params.p)
    stride = params.tau * width
    body = len(data) - KEY_HEADER_LEN
    if body % (2 * stride) != 0:
        raise KeyParseError("key body length is not element-aligned", len(data))
    per_vector = body // (2 * stride)
    if per_vector < 2:
        raise KeyParseError("key body too short for any share vector", len(data))

    def read_vector(offset: int):
        elems = []
        for _ in range(per_vector):
            coeffs = []
            for _ in range(params.tau):
                c = int.from_bytes(data[offset:offset + width], "little")
                if c >= params.p:
                    raise KeyParseError(f"coefficient {c} out of range", offset)
                coeffs.append(c)
                offset += width
            elems.append(params.field.element(coeffs))
        return tuple(elems), offset

    mask, offset = read_vector(KEY_HEADER_LEN)
    share_vec, _ = read_vector(offset)
    if not 0 <= index < 2 * n:
        raise ParameterError(f"key index {index} outside [0, {2 * n})")
    return DpfKey(index=index, half=index // n, slot=index % n,
                  mask=mask, share=Share(index % n, share_vec))


def key_to_json(params: DpfParams, key: DpfKey, params_digest: str) -> bytes:
    obj = {
        "i": key.index,
        "j": key.half,
        "ell": key.slot,
        "omega": [e.as_string() for e in key.mask],
        "c": [e.as_string() for e in key.share.vector],
        "params_digest": params_digest,
    }
    return canonical_json_bytes(obj)


def key_from_json(params: DpfParams, data: bytes,
                  expected_digest: str | None = None) -> DpfKey:
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"key file is not valid JSON: {exc}") from exc
    if expected_digest is not None and obj.get("params_digest") != expected_digest:
        raise ArtifactMismatchError(
            "key params_digest does not match the params file")
    fld = params.field
    try:
        mask = tuple(fld.parse_element(s) for s in obj["omega"])
        share_vec = tuple(fld.parse_element(s) for s in obj["c"])
        key = DpfKey(index=int(obj["i"]), half=int(obj["j"]),
                     slot=int(obj["ell"]), mask=mask,
                     share=Share(int(obj["ell"]), share_vec))
    except KeyError as exc:
        raise ParameterError(f"key file missing key: {exc}") from exc
    return key
