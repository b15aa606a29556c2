"""Key generation and per-server evaluation of the point-function scheme.

A point function over [1, N] with output in Z_p is split into 2n keys
(n = interpolation-set size).  Key generation draws a multiplicative
blinding vector over the order-m subgroup, attaches to each of the n
interpolation points a share consisting of the blinded power vector and
the point itself, and splits a correction vector additively into two
masks.  Key i = n*j + l pairs mask j with share l and holds exactly its
wire form: the index, the mask vector and the share vector (h blinded
subgroup elements, then the interpolation point), each entry a field
element's integer encoding.  The slot l = i mod n is derived, never
stored, and this module alone knows the key layout; each element's
byte form is the field's (Field.pack, Field.unpack).  A server holding
key i evaluates any input x locally as one monomial in its share entries
times one linear form in its mask, projected onto the constant
coefficient, which is enc mod p.  The walk reads only the support of
u_x: the monomial's field log sums the field's own logs of its share
entries, each term is one exp lookup (Field.mul_enc above TABLE_LIMIT),
and the terms are summed as integers and reduced mod p once.  Keygen,
serialization and the query path build no FieldElement; the JSON form
decodes at its boundary.  This is the collapsed form of the share
conversion whose vector form lives in the oracles as the reference.
evaluate_key, evaluate_all and pir_answer share that walk; pir_answer,
the Z_p-linear functional sum_x db_x * f_i(x), builds none of the N
shares, and over F_{2^tau} with tables it is ct of two XOR sums instead.
Summing all 2n outputs mod p reconstructs the function value; any single
key is distributed independently of the function.

Randomness contract: key generation consumes the injected rng in a
fixed documented order (blind vector first, one subgroup index per
coordinate; then the first mask, tau residues per coordinate), drawn in
bulk (field.draw_below) with the values and final rng state of one
rng.randrange call per residue, so a seeded rng reproduces keys exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import mul

from .errors import ArtifactMismatchError, KeyParseError, ParameterError
from .field import FieldElement, coeff_width, draw_below
from .interpolation import InterpolationScheme
from .matching import MAX_H, MatchingFamily
from .params import (DpfParams, artifact_fields, canonical_json_bytes,
                     parse_artifact, require_rebuilt)

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
    """Key i = n*j + l: mask j and the share of interpolation point l,
    each entry a field element's integer encoding."""

    index: int               # i in [0, 2n)
    mask: tuple[int, ...]    # h+1 additive mask entries
    share: tuple[int, ...]   # h blinded entries, then the point


def _check_context(params: DpfParams, family: MatchingFamily,
                   scheme: InterpolationScheme) -> None:
    if family.modulus != params.M:
        raise ParameterError(
            f"family modulus {family.modulus} != params M {params.M}")
    if not family.certified:
        raise ParameterError("family is not certified; run verify_family first")
    if scheme.n < 1:
        raise ParameterError("scheme has no interpolation points")


def shares_from_logs(params: DpfParams, family: MatchingFamily,
                     scheme: InterpolationScheme, alpha: int,
                     blind_logs) -> list[tuple[int, ...]]:
    """make_shares for the blind whose entries are H at blind_logs,
    unchecked."""
    H, m, v_alpha = params.H_enc, params.m, family.v(alpha)
    return [tuple(H[(k + v * d) % m] for k, v in zip(blind_logs, v_alpha))
            + (H[d],) for d in scheme.point_logs]


def make_shares(params: DpfParams, family: MatchingFamily,
                scheme: InterpolationScheme, alpha: int,
                blind: list[FieldElement]) -> list[tuple[int, ...]]:
    """Shares of alpha as keys hold them: for each point b, the encodings
    of blind_i * b^(v_i), then of b, where v is the family's second
    vector at alpha; each is H at log(blind_i) + v_i * log(b) mod m."""
    _check_context(params, family, scheme)
    if len(blind) != family.h:
        raise ParameterError(f"blind vector must have length {family.h}")
    log = params.H_log
    if any(z.enc not in log for z in blind):
        raise ParameterError("blind entry outside the order-m subgroup")
    return shares_from_logs(params, family, scheme, alpha,
                            [log[z.enc] for z in blind])


def keygen(params: DpfParams, family: MatchingFamily,
           scheme: InterpolationScheme, func: PointFunction,
           rng) -> list[DpfKey]:
    """Generate the 2n keys of a point function.

    The correction vector is (blind^{-u_alpha} * beta) * (1, v_alpha),
    with v_alpha entries reduced mod p into the prime subfield; it is
    split as mask0 + mask1 with mask0 uniform, and key i = n*j + l
    carries (mask_j, share_l).  blind^{-u_alpha} is H at minus the sum
    of u_i * log(blind_i) over the support of u_alpha.  A residue r
    encodes as r, so the target takes one product per distinct residue.
    mask0 is the drawn residues read as elements (Field.from_residues);
    mask1 is an XOR of encodings for p = 2, coefficient-wise otherwise.
    """
    _check_context(params, family, scheme)
    if func.domain_size != family.size:
        raise ParameterError(
            f"function domain {func.domain_size} != family size {family.size}")
    if func.modulus != params.p:
        raise ParameterError(
            f"function modulus {func.modulus} != params p {params.p}")
    fld, p, m, h = params.field, params.p, params.m, family.h

    blind_logs = draw_below(rng, m, h)
    shares = shares_from_logs(params, family, scheme, func.alpha, blind_logs)

    correction = -sum(u * blind_logs[i] for i, u
                      in family.supports[func.alpha - 1]) % m
    scaled = fld.mul_enc(params.H_enc[correction], func.beta)
    residues = [v % p for v in family.v(func.alpha)]
    by_residue = {r: fld.mul_enc(scaled, r) for r in set(residues)}
    target = [scaled] + [by_residue[r] for r in residues]

    drawn = draw_below(rng, p, (h + 1) * params.tau)
    mask0 = fld.from_residues(drawn)
    if p == 2:
        mask1 = tuple(t ^ o for t, o in zip(target, mask0))
    else:
        digits = {t: fld.decode_raw(t) for t in set(target)}
        flat = [c for t in target for c in digits[t]]
        diff = [(c - o) % p for c, o in zip(flat, drawn)]
        mask1 = fld.from_residues(diff)

    n = scheme.n
    return [DpfKey(index=n * half + slot, mask=mask, share=shares[slot])
            for half, mask in enumerate((mask0, mask1)) for slot in range(n)]


def _point_sums(params: DpfParams, scheme: InterpolationScheme, key: DpfKey,
                supports):
    """For each support of a row u_x, an integer that is the key's output
    at x mod p: ct(y * (mask[0] - sum_i (u_i mod p) * mask[i+1])) with
    y = a0 * prod_i c_i^u_i, c the share and a0 the slot's first
    recovery coefficient.  ct(z) = enc(z) mod p is Z_p-linear, so terms
    are summed as integers and the caller reduces once.  With tables a
    term is exp[(E + log w) % (q - 1)], E = log a0 + sum_i u_i * log c_i;
    without, Field.mul_enc(y, w) with y = a0 * H[sum_i u_i * H_log[c_i]
    mod m].  Only the support's entries are read; zero w or a0 adds 0."""
    fld, p, share, mask = params.field, params.p, key.share, key.mask
    a0 = scheme.coeffs[key.index % scheme.n][0].enc
    if not a0:
        yield from (0 for _ in supports)
        return
    if fld.log_exp is None:
        H, log, m, mul_enc = params.H_enc, params.H_log, params.m, fld.mul_enc
        for support in supports:
            e = 0
            for i, u in support:
                e += u * log[share[i]]
            y = mul_enc(a0, H[e % m])
            total = mul_enc(y, mask[0])
            for i, u in support:
                if u % p:
                    total -= u % p * mul_enc(y, mask[i + 1])
            yield total
        return
    log, exp = fld.log_exp
    q1, log_a0, w0 = fld.group_order, log[a0], mask[0]
    for support in supports:
        E = log_a0
        for i, u in support:
            E += u * log[share[i]]
        total = exp[(E + log[w0]) % q1] if w0 else 0
        for i, u in support:
            if u % p and (w := mask[i + 1]):
                total -= u % p * exp[(E + log[w]) % q1]
        yield total


def check_input(family: MatchingFamily, x: int) -> None:
    if not 1 <= x <= family.size:
        raise ParameterError(f"x={x} outside the domain [1, {family.size}]")


def evaluate_key(params: DpfParams, family: MatchingFamily,
                 scheme: InterpolationScheme, key: DpfKey, x: int) -> int:
    """One server's output share at input x, a residue mod p: the
    _point_sums walk over the support of u_x, on the key itself.  This
    is the mask's inner product with oracles.convert_share, collapsed:
    each c_i lies in the order-m subgroup, so c_i times the i-th partial
    derivative of the monomial is its value again, and the gradient's
    factor a1 / b is -a0 by the closed-form lift, so no field inverse
    is taken.  The key must pass check_key."""
    check_input(family, x)
    supports = (family.supports[x - 1],)
    return next(_point_sums(params, scheme, key, supports)) % params.p


def evaluate_all(params: DpfParams, family: MatchingFamily,
                 scheme: InterpolationScheme, key: DpfKey) -> list[int]:
    """Full-domain evaluation (one residue per x in [1, N])."""
    p = params.p
    return [s % p for s in _point_sums(params, scheme, key, family.supports)]


def pir_answer(params: DpfParams, family: MatchingFamily,
               scheme: InterpolationScheme, key: DpfKey,
               db: list[int]) -> int:
    """One server's PIR answer, sum_x db_x * evaluate_key(x) mod p, with
    one reduction; zero db entries are skipped.  Over F_{2^tau} with
    tables it is _binary_answer, else the _point_sums walk.  The key
    must pass check_key."""
    rows = compress(family.supports, db)
    if params.p == 2 and params.field.log_exp is not None:
        return _binary_answer(params, scheme, key, rows)
    sums = _point_sums(params, scheme, key, rows)
    return sum(map(mul, filter(None, db), sums)) % params.p


def _binary_answer(params: DpfParams, scheme: InterpolationScheme,
                   key: DpfKey, rows) -> int:
    """The PIR answer for p = 2 over the rows with db_x = 1.  ct is
    Z_p-linear, so the sum of the outputs is ct(a0 * mask[0] * T - a0 *
    S) with T = sum_x H[e_x] and S = sum_x sum_i (u_i mod 2) * H[e_x] *
    mask[i+1]; both sums are XORs of encodings, and E = sum_i u_i *
    log c_i is the field log of H[e_x].  A zero mask entry or a0 adds
    nothing.  It stays beside the _point_sums walk, which took 1.24-1.38x
    its time on F_512 (basis h = 128 and 1000, product N = 512; best of
    21 on one pinned CPU)."""
    fld = params.field
    log, exp = fld.log_exp
    q1, share, mask = fld.group_order, key.share, key.mask
    T = S = 0
    for support in rows:
        E = 0
        for i, u in support:
            E += u * log[share[i]]
        T ^= exp[E % q1]
        for i, u in support:
            if u & 1 and (w := mask[i + 1]):
                S ^= exp[(E + log[w]) % q1]
    a0, mul_enc = scheme.coeffs[key.index % scheme.n][0].enc, fld.mul_enc
    return (mul_enc(mul_enc(a0, mask[0]), T) ^ mul_enc(a0, S)) & 1


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
    if key.share[h] != scheme.points[slot].enc:
        raise ParameterError(
            f"key share point is not the interpolation point of slot {slot}")
    H_log = params.H_log
    if any(c not in H_log for c in key.share[:h]):
        raise ParameterError("key share entry outside the order-m subgroup")


# ---------------------------------------------------------------------------
# Serialization: compact binary form (wire) and canonical JSON (artifacts).
# ---------------------------------------------------------------------------

def key_byte_length(params: DpfParams, h: int) -> int:
    """Exact serialized size: header + 2*(h+1)*tau*width."""
    return KEY_HEADER_LEN + 2 * (h + 1) * params.tau * coeff_width(params.p)


def serialize_key(params: DpfParams, key: DpfKey) -> bytes:
    """Binary form: magic, version, 2-byte index, then the mask and share
    vectors in the field's byte form (Field.pack)."""
    header = KEY_MAGIC + bytes([KEY_VERSION]) + key.index.to_bytes(2, "big")
    return header + params.field.pack(key.mask + key.share)


def deserialize_key(params: DpfParams, n: int, data: bytes) -> DpfKey:
    """Parse the binary form; n is the scheme size (bounds the index).
    A vector longer than any family's h + 1 is refused before parsing."""
    if len(data) < KEY_HEADER_LEN:
        raise KeyParseError("truncated key header", len(data))
    if data[:4] != KEY_MAGIC:
        raise KeyParseError("bad key magic", 0)
    if data[4] != KEY_VERSION:
        raise KeyParseError(f"unsupported key version {data[4]}", 4)
    index = int.from_bytes(data[5:7], "big")

    size = params.tau * coeff_width(params.p)
    body = len(data) - KEY_HEADER_LEN
    if body % (2 * size) != 0:
        raise KeyParseError("key body length is not element-aligned", len(data))
    per_vector = body // (2 * size)
    if per_vector < 2:
        raise KeyParseError("key body too short for any share vector", len(data))
    if per_vector > MAX_H + 1:
        raise KeyParseError("key body too long for any family", len(data))

    encs = params.field.unpack(data, KEY_HEADER_LEN)
    if not 0 <= index < 2 * n:
        raise ParameterError(f"key index {index} outside [0, {2 * n})")
    return DpfKey(index=index, mask=encs[:per_vector],
                  share=encs[per_vector:])


def key_to_json(params: DpfParams, n: int, key: DpfKey,
                params_digest: str) -> bytes:
    """Canonical JSON form; n is the scheme size.  j and ell are
    divmod(i, n), written out for readers of the file."""
    half, slot = divmod(key.index, n)
    obj = {
        "i": key.index,
        "j": half,
        "ell": slot,
        "omega": [params.field.decode(e).as_string() for e in key.mask],
        "c": [params.field.decode(e).as_string() for e in key.share],
        "params_digest": params_digest,
    }
    return canonical_json_bytes(obj)


def key_from_json(params: DpfParams, n: int, data: bytes,
                  expected_digest: str | None = None) -> DpfKey:
    """Parse the JSON form; n is the scheme size.  The index must lie in
    [0, 2n), and the file must be exactly what key_to_json writes for
    the key read from it."""
    obj = parse_artifact(data, "key")
    if expected_digest is not None and obj.get("params_digest") != expected_digest:
        raise ArtifactMismatchError(
            "key params_digest does not match the params file")
    fld = params.field
    with artifact_fields("key"):
        index, digest = obj["i"], obj["params_digest"]
        mask = tuple(fld.parse_element(s).enc for s in obj["omega"])
        share = tuple(fld.parse_element(s).enc for s in obj["c"])
    if type(index) is not int or not 0 <= index < 2 * n:
        raise ParameterError(
            f"key index {index!r} is not an integer in [0, {2 * n})")
    key = DpfKey(index=index, mask=mask, share=share)
    require_rebuilt(obj, key_to_json(params, n, key, digest), "key")
    return key
