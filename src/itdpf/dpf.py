"""Key generation and per-server evaluation of the point-function scheme.

A point function over [1, N] with output in Z_p is split into 2n keys
(n = interpolation-set size).  Key generation draws a multiplicative
blinding vector over the order-m subgroup, attaches to each of the n
interpolation points a share consisting of the blinded power vector and
the point itself, and splits a correction vector additively into two
masks.  Key i = n*j + l pairs mask j with share l and holds exactly its
wire form: the index, the mask vector and the share vector (h blinded
subgroup elements, then the interpolation point).  The slot l = i mod n
is derived, never stored, and this module alone knows the layout.  A
server holding key i evaluates any input x locally as one monomial in
its share entries times one linear form in its mask, both over the
support of u_x, projected onto the constant coefficient.  The monomial
is read from H by its log, so no field power is taken on the query
path.  This is the collapsed form of the share conversion (value plus
scaled gradient) whose vector form lives in the oracles as the
reference.  Summing all 2n outputs mod p reconstructs the function
value; any single key is distributed independently of the function.

Randomness contract: key generation consumes the injected rng in a
fixed documented order (blind vector first, one subgroup index per
coordinate; then the first mask, tau residues per coordinate), so a
seeded rng reproduces keys exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import ArtifactMismatchError, KeyParseError, ParameterError
from .field import FieldElement
from .interpolation import InterpolationScheme
from .matching import MatchingFamily
from .params import (DpfParams, artifact_fields, canonical_json_bytes,
                     parse_artifact)

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


@dataclass(frozen=True)
class DpfKey:
    """Key i = n*j + l: mask j and the share of interpolation point l."""

    index: int                       # i in [0, 2n)
    mask: tuple[FieldElement, ...]   # h+1 additive mask entries
    share: tuple[FieldElement, ...]  # h blinded entries, then the point


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
                blind: list[FieldElement]) -> list[tuple[FieldElement, ...]]:
    """Shares of alpha: for each point b, the vector of coordinate-wise
    products blind_i * b^(v_i) followed by b itself, where v is the
    family's second vector at alpha (exponents mod m).  Each product is
    read from H by its log, log(blind_i) + v_i * log(b) mod m."""
    _check_context(params, family, scheme)
    if len(blind) != family.h:
        raise ParameterError(f"blind vector must have length {family.h}")
    H, log, m = params.H, params.H_log, params.m
    if any(z.enc not in log for z in blind):
        raise ParameterError("blind entry outside the order-m subgroup")
    blind_logs = [log[z.enc] for z in blind]
    v_alpha = family.v(alpha)
    return [tuple(H[(k + v * log[b.enc]) % m]
                  for k, v in zip(blind_logs, v_alpha)) + (b,)
            for b in scheme.points]


def keygen(params: DpfParams, family: MatchingFamily,
           scheme: InterpolationScheme, func: PointFunction,
           rng) -> list[DpfKey]:
    """Generate the 2n keys of a point function.

    The correction vector is (blind^{-u_alpha} * beta) * (1, v_alpha),
    with v_alpha entries reduced mod p into the prime subfield; it is
    split as mask0 + mask1 with mask0 uniform, and key i = n*j + l
    carries (mask_j, share_l).  blind^{-u_alpha} is H at minus the sum
    of u_i * log(blind_i) over the support of u_alpha.
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

    blind_logs = [rng.randrange(m) for _ in range(h)]
    blind = [params.H[k] for k in blind_logs]
    shares = make_shares(params, family, scheme, func.alpha, blind)

    correction = params.H[-sum(u * blind_logs[i] for i, u
                               in family.supports[func.alpha - 1]) % m]
    scaled = correction * fld.const(func.beta)

    v_alpha = family.v(func.alpha)
    target = [scaled] + [scaled * fld.const(v_alpha[i] % params.p)
                         for i in range(h)]

    mask0 = tuple(fld.random_element(rng) for _ in range(h + 1))
    mask1 = tuple(t - o for t, o in zip(target, mask0))

    n = scheme.n
    return [DpfKey(index=n * half + slot, mask=mask, share=shares[slot])
            for half, mask in enumerate((mask0, mask1)) for slot in range(n)]


def evaluate_key(params: DpfParams, family: MatchingFamily,
                 scheme: InterpolationScheme, key: DpfKey, x: int) -> int:
    """One server's output share at input x, a residue mod p: the
    constant term of a0 * value * (mask[0] - sum_i (u_i mod p)*mask[i+1])
    with value = prod_i c_i^(u_i mod m), u = u_x, c the share entries and
    a0 the slot's first recovery coefficient.  Both sums run over the
    support of u_x, and value is H[sum_i u_i * log(c_i) mod m].

    This is the mask's inner product with oracles.convert_share,
    collapsed: each c_i lies in the order-m subgroup, so c_i times the
    i-th partial derivative of the monomial is its value again, and the
    gradient's factor a1 / b is -a0 by the closed-form lift, so no field
    inverse is taken.  The field-op count depends on x and the family
    only.  The key must pass check_key.
    """
    if not 1 <= x <= family.size:
        raise ParameterError(f"x={x} outside the domain [1, {family.size}]")
    fld = params.field
    p = params.p
    share, mask, log = key.share, key.mask, params.H_log
    exponent = 0
    linear = fld.zero
    for i, u in family.supports[x - 1]:
        exponent += u * log[share[i].enc]
        if u % p:
            linear = linear + fld.const(u % p) * mask[i + 1]
    a0 = scheme.coeffs[key.index % scheme.n][0]
    value = params.H[exponent % params.m]
    return (a0 * value * (mask[0] - linear)).constant_term


def evaluate_all(params: DpfParams, family: MatchingFamily,
                 scheme: InterpolationScheme, key: DpfKey) -> list[int]:
    """Full-domain evaluation (one residue per x in [1, N])."""
    return [evaluate_key(params, family, scheme, key, x)
            for x in range(1, family.size + 1)]


def check_key(params: DpfParams, scheme: InterpolationScheme, h: int,
              key: DpfKey) -> None:
    """Reject a key that evaluate_key cannot serve: wrong vector length
    for the family's h, an index outside [0, 2n), a share point other
    than its slot's interpolation point, or a share entry outside the
    order-m subgroup (evaluate_key reads the log of each c_i)."""
    n = scheme.n
    if len(key.mask) != h + 1 or len(key.share) != h + 1:
        raise ParameterError(
            f"key vectors have lengths {len(key.mask)} and "
            f"{len(key.share)}, expected {h + 1} for h={h}")
    if not 0 <= key.index < 2 * n:
        raise ParameterError(f"key index {key.index} outside [0, {2 * n})")
    slot = key.index % n
    if key.share[h] != scheme.points[slot]:
        raise ParameterError(
            f"key share point is not the interpolation point of slot {slot}")
    if any(c.enc not in params.H_log for c in key.share[:h]):
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


def _coeff_format(p: int, count: int) -> str:
    """struct format of `count` packed coefficients mod p."""
    return f"<{count}{'B' if coeff_width(p) == 1 else 'H'}"


def _pack_elements(params: DpfParams, elems) -> bytes:
    coeffs = [c for e in elems for c in e.coeffs]
    return struct.pack(_coeff_format(params.p, len(coeffs)), *coeffs)


def serialize_key(params: DpfParams, key: DpfKey) -> bytes:
    """Binary form: magic, version, 2-byte index, then the mask and share
    vectors as packed little-endian coefficient arrays."""
    return (KEY_MAGIC + bytes([KEY_VERSION]) + key.index.to_bytes(2, "big")
            + _pack_elements(params, key.mask + key.share))


def deserialize_key(params: DpfParams, n: int, data: bytes) -> DpfKey:
    """Parse the binary form; n is the scheme size (bounds the index)."""
    if len(data) < KEY_HEADER_LEN:
        raise KeyParseError("truncated key header", len(data))
    if data[:4] != KEY_MAGIC:
        raise KeyParseError("bad key magic", 0)
    if data[4] != KEY_VERSION:
        raise KeyParseError(f"unsupported key version {data[4]}", 4)
    index = int.from_bytes(data[5:7], "big")

    p, tau = params.p, params.tau
    width = coeff_width(p)
    body = len(data) - KEY_HEADER_LEN
    if body % (2 * tau * width) != 0:
        raise KeyParseError("key body length is not element-aligned", len(data))
    per_vector = body // (2 * tau * width)
    if per_vector < 2:
        raise KeyParseError("key body too short for any share vector", len(data))

    coeffs = struct.unpack_from(_coeff_format(p, body // width), data,
                                KEY_HEADER_LEN)
    if max(coeffs) >= p:
        k = next(k for k, c in enumerate(coeffs) if c >= p)
        raise KeyParseError(f"coefficient {coeffs[k]} out of range",
                            KEY_HEADER_LEN + k * width)
    fld = params.field
    encs = [fld.encode(coeffs[k:k + tau]) for k in range(0, len(coeffs), tau)]
    elems = tuple(map(fld.decode, encs))
    if not 0 <= index < 2 * n:
        raise ParameterError(f"key index {index} outside [0, {2 * n})")
    return DpfKey(index=index, mask=elems[:per_vector],
                  share=elems[per_vector:])


def key_to_json(params: DpfParams, n: int, key: DpfKey,
                params_digest: str) -> bytes:
    """Canonical JSON form; n is the scheme size.  j and ell are
    divmod(i, n), written out for readers of the file."""
    half, slot = divmod(key.index, n)
    obj = {
        "i": key.index,
        "j": half,
        "ell": slot,
        "omega": [e.as_string() for e in key.mask],
        "c": [e.as_string() for e in key.share],
        "params_digest": params_digest,
    }
    return canonical_json_bytes(obj)


def key_from_json(params: DpfParams, n: int, data: bytes,
                  expected_digest: str | None = None) -> DpfKey:
    """Parse the JSON form; n is the scheme size.  The index must lie in
    [0, 2n) and j, ell must equal divmod(i, n)."""
    obj = parse_artifact(data, "key")
    if expected_digest is not None and obj.get("params_digest") != expected_digest:
        raise ArtifactMismatchError(
            "key params_digest does not match the params file")
    fld = params.field
    with artifact_fields("key"):
        index, layout = obj["i"], [obj["j"], obj["ell"]]
        mask = tuple(fld.parse_element(s) for s in obj["omega"])
        share = tuple(fld.parse_element(s) for s in obj["c"])
    if type(index) is not int or not 0 <= index < 2 * n:
        raise ParameterError(
            f"key index {index!r} is not an integer in [0, {2 * n})")
    if layout != list(divmod(index, n)):
        raise ParameterError(
            f"key j, ell = {layout} disagree with i={index} for n={n}")
    return DpfKey(index=index, mask=mask, share=share)
