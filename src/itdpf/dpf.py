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

A PIR server needs only the Z_p-linear functional sum_x db_x * f_i(x),
so `pir_answer` contracts the db against the family's supports without
building the N shares: constant_term is Z_p-linear, and on encodings
ct(y) = enc(y) mod p, since enc = sum_j c_j p^j.  Each term is then one
log addition, one exp lookup and one reduction mod p.  `evaluate_key`
and `evaluate_all` stay as the reference that fulleval, verify and the
oracles use.  The key codec maps each element to its packed coefficient
bytes through the field's byte tables, and back through their inverse.

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


def pir_answer(params: DpfParams, family: MatchingFamily,
               scheme: InterpolationScheme, key: DpfKey,
               db: list[int]) -> int:
    """One server's PIR answer, sum_x db_x * evaluate_key(x) mod p, as one
    contraction over the family's supports.

    With w = a0 * mask and v_x = H[sum_i u_i * log(c_i) mod m], the
    answer is sum_x db_x * [ct(w_0 * v_x) - sum_{(i,u) in supp(x)}
    (u mod p) * ct(w_{i+1} * v_x)] mod p, because ct is Z_p-linear and
    db_x, u mod p lie in Z_p.  With the field's tables a term is
    exp[log(w_j) + log(v_x)] mod p, where log(v_x) is that exponent times
    log(H[1]); above TABLE_LIMIT it is a Field product.  A zero db entry
    or mask entry contributes nothing.  The key must pass check_key.
    """
    fld, p, m, H = params.field, params.p, params.m, params.H
    H_log = params.H_log
    share_logs = [H_log[c.enc] for c in key.share[:family.h]]
    a0 = scheme.coeffs[key.index % scheme.n][0]
    tables = fld.log_exp
    if tables is None:
        scaled = [a0 * w for w in key.mask]
        handles = [w if w.enc else None for w in scaled]

        def term(w, e):
            return (w * H[e]).constant_term
    else:
        # Each w_j as its log: log(a0) + log(mask_j), None for w_j = 0.
        log, exp = tables
        q1 = fld.group_order
        step, log_a0 = log[H[1 % m].enc], log[a0.enc]
        handles = [(log_a0 + log[w.enc]) % q1 if w.enc and a0.enc else None
                   for w in key.mask]

        def term(w, e):
            return exp[(w + e * step) % q1] % p
    w0 = handles[0]
    total = 0
    for d, support in zip(db, family.supports):
        if not d:
            continue
        e = 0
        for i, u in support:
            e += u * share_logs[i]
        e %= m
        acc = 0 if w0 is None else term(w0, e)
        for i, u in support:
            w = handles[i + 1]
            if u % p and w is not None:
                acc -= u % p * term(w, e)
        total += d * acc
    return total % p


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


def _out_of_range(data: bytes, p: int, start: int) -> KeyParseError:
    """The error for the first coefficient >= p at or after byte `start`
    of a key, reported at its byte offset."""
    width = coeff_width(p)
    for offset in range(start, len(data), width):
        c = int.from_bytes(data[offset:offset + width], "little")
        if c >= p:
            return KeyParseError(f"coefficient {c} out of range", offset)
    raise AssertionError("no coefficient >= p after the start")


def serialize_key(params: DpfParams, key: DpfKey) -> bytes:
    """Binary form: magic, version, 2-byte index, then the mask and share
    vectors as packed little-endian coefficient arrays."""
    header = KEY_MAGIC + bytes([KEY_VERSION]) + key.index.to_bytes(2, "big")
    elems = key.mask + key.share
    codec = params.field.byte_codec(coeff_width(params.p))
    if codec is None:
        coeffs = [c for e in elems for c in e.coeffs]
        return header + struct.pack(_coeff_format(params.p, len(coeffs)),
                                    *coeffs)
    pack = codec[0]
    return header + b"".join([pack[e.enc] for e in elems])


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
    size = tau * width
    body = len(data) - KEY_HEADER_LEN
    if body % (2 * size) != 0:
        raise KeyParseError("key body length is not element-aligned", len(data))
    per_vector = body // (2 * size)
    if per_vector < 2:
        raise KeyParseError("key body too short for any share vector", len(data))

    fld = params.field
    codec = fld.byte_codec(width)
    if codec is None:
        coeffs = struct.unpack_from(_coeff_format(p, body // width), data,
                                    KEY_HEADER_LEN)
        if max(coeffs) >= p:
            raise _out_of_range(data, p, KEY_HEADER_LEN)
        encs = [fld.encode(coeffs[k:k + tau])
                for k in range(0, len(coeffs), tau)]
    else:
        unpack = codec[1]
        starts = range(KEY_HEADER_LEN, len(data), size)
        encs = [unpack.get(data[k:k + size]) for k in starts]
        if None in encs:    # a slice holding a coefficient >= p
            raise _out_of_range(data, p, starts[encs.index(None)])
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
