"""Exact arithmetic in small extension fields F_{p^tau}.

Elements are tau-coefficient polynomials over Z_p reduced modulo the
smallest monic irreducible zeta(X), stored constant term first.  For
small fields (order <= 2**16) the constructor builds discrete-log tables
over a fixed smallest generator, giving O(1) multiplication and
powering; all elements are then interned so arithmetic allocates
nothing.  Above the limit arithmetic is polynomial arithmetic mod zeta.
The serving path and the interpolation search work on integer
encodings: they read those tables (`log_exp`, None above the limit),
multiply with `mul_enc`, invert with `inv_enc` and add with `add_enc`,
coefficient-wise (an XOR for p = 2), as element addition does.

The field alone defines an element's byte form: its tau coefficients,
constant term first, each `coeff_width(p)` bytes little-endian, one
struct packing.  `pack`, `unpack` and `from_residues` map encodings to
and from it through byte tables of that packing built with the log
tables, or above the limit through struct.  A field is complete once
constructed and never writes to itself, so threads share it unlocked.

The additive output map used by the point-function scheme is
``constant_term``: it projects a field element onto its constant
coefficient, a surjective homomorphism onto Z_p.
"""

from __future__ import annotations

import functools
import itertools
import struct

from .errors import KeyParseError, ParameterError

# Above this order we skip table construction; arithmetic falls back to
# direct polynomial operations (correct, just slower).  Tables cost about
# 22 us per element: 1.4 s and 47 MiB at order 2**16, but 43 s at 2**20,
# where `itdpf params` and `scheme` take well under a second without them.
TABLE_LIMIT = 1 << 16

MAX_P = 1 << 16
MAX_ORDER = 1 << 32     # field orders p**tau stay below this


def is_prime(n: int) -> bool:
    """Trial-division primality check; inputs here are small by design."""
    return n >= 2 and factorize(n) == [n]


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def coeff_width(p: int) -> int:
    """Bytes per coefficient: residues mod p packed little-endian."""
    return ((p - 1).bit_length() + 7) // 8


def _coeff_format(width: int, count: int) -> str:
    """struct format of `count` packed coefficients of `width` bytes."""
    return f"<{count}{'B' if width == 1 else 'H'}"


@functools.lru_cache(maxsize=16)
def _slicer(size: int, count: int) -> struct.Struct:
    """Splits `count` consecutive elements of `size` bytes each."""
    return struct.Struct(f"{size}s" * count)


@functools.cache
def _top_byte_tables(n: int) -> tuple[bytes, bytes]:
    """bytes.translate arguments that map a word's top byte to its top
    n.bit_length() bits and delete the bytes whose value is >= n."""
    shift = 8 - n.bit_length()
    return (bytes(b >> shift for b in range(256)),
            bytes(range(n << shift, 256)))


def draw_below(rng, n: int, count: int) -> list[int]:
    """[rng.randrange(n) for _ in range(count)], drawn in bulk: the same
    values, and rng is left in the same state.

    randrange(n) takes the top k = n.bit_length() bits of one 32-bit
    word and redraws while the value is >= n.  getrandbits(32 * r)
    returns the next r words, least significant first, so each round
    draws one word per residue still needed and never reads past where
    the one-at-a-time loop would stop.  For k <= 8 the top byte of each
    word is shifted and filtered by one bytes.translate."""
    k = n.bit_length()
    if k > 32:
        return [rng.randrange(n) for _ in range(count)]
    out: list[int] = []
    while len(out) < count:
        need = count - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        if k <= 8:
            out += words[3::4].translate(*_top_byte_tables(n))
        else:
            shift = 32 - k
            out += [r for w in struct.unpack(f"<{need}I", words)
                    if (r := w >> shift) < n]
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers over Z_p (dense coefficient lists, constant term first).
# Used for zeta discovery and as the table-free fallback.
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    n = len(a)
    while n > 1 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _poly_mulmod(a, b, zeta, p):
    """a*b reduced mod zeta and mod p; zeta monic of degree tau."""
    tau = len(zeta) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, tau - 1, -1):
        c = prod[d]
        if c == 0:
            continue
        prod[d] = 0
        base = d - tau
        for k in range(tau):
            prod[base + k] = (prod[base + k] - c * zeta[k]) % p
    out = prod[:tau]
    out.extend([0] * (tau - len(out)))
    return out


def _poly_powmod(a, e, zeta, p):
    tau = len(zeta) - 1
    result = [1] + [0] * (tau - 1)
    base = list(a) if len(a) == tau else (list(a) + [0] * (tau - len(a)))[:tau]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, zeta, p)
        base = _poly_mulmod(base, base, zeta, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b != [0]:
        inv_lead = pow(b[-1], -1, p)
        r = list(a)
        while True:
            r = _poly_trim(r)
            if r == [0] or len(r) < len(b):
                break
            c = r[-1] * inv_lead % p
            shift = len(r) - len(b)
            for k in range(len(b)):
                r[shift + k] = (r[shift + k] - c * b[k]) % p
        a, b = b, _poly_trim(r)
    return a


def is_irreducible(zeta, p: int) -> bool:
    """Irreducibility of monic zeta over Z_p.

    A reducible polynomial of degree tau has an irreducible factor of
    degree k <= tau/2; such factors divide X^{p^k} - X, so it suffices
    to check gcd(X^{p^k} - X, zeta) = 1 for k = 1 .. floor(tau/2).
    """
    tau = len(zeta) - 1
    if tau < 1 or zeta[-1] != 1:
        return False
    if tau == 1:
        return True
    if zeta[0] == 0:
        return False  # X divides
    xpk = [0, 1]
    for _ in range(tau // 2):
        xpk = _poly_powmod(xpk, p, zeta, p)
        diff = list(xpk)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, zeta, p)
        if len(g) != 1 or g[0] == 0:
            return False
    return True


def find_irreducible(p: int, tau: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree tau over Z_p.

    Candidates are ordered lexicographically by their constant-first
    coefficient tuple, so the result is identical on every run and
    machine.  Existence is guaranteed for every prime p and tau >= 1.
    """
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if tau < 1:
        raise ParameterError(f"tau={tau} must be >= 1")
    # X divides a candidate of degree >= 2 with a zero constant term.
    constants = range(1 if tau >= 2 else 0, p)
    for low in itertools.product(constants, *[range(p)] * (tau - 1)):
        zeta = list(low) + [1]
        if is_irreducible(zeta, p):
            return tuple(zeta)
    raise AssertionError("unreachable: irreducibles exist for every degree")


# ---------------------------------------------------------------------------
# Field context and elements.
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable element of a :class:`Field`, in canonical reduced form.

    Equality is structural (coefficient-wise plus field parameters), so
    elements serialize and compare reproducibly.
    """

    __slots__ = ("coeffs", "field", "enc")

    def __init__(self, field: "Field", coeffs: tuple[int, ...], enc: int):
        self.field = field
        self.coeffs = coeffs
        self.enc = enc

    def __add__(self, other):
        return self.field.add(self, other)

    def __sub__(self, other):
        return self.field.sub(self, other)

    def __neg__(self):
        return self.field.neg(self)

    def __mul__(self, other):
        return self.field.mul(self, other)

    def __pow__(self, k: int):
        return self.field.pow(self, k)

    def inverse(self) -> "FieldElement":
        return self.field.inv(self)

    def is_zero(self) -> bool:
        return self.enc == 0

    @property
    def constant_term(self) -> int:
        """Constant coefficient: the additive projection onto Z_p."""
        return self.coeffs[0]

    def as_string(self) -> str:
        """Text encoding: decimal coefficients, constant term first."""
        return ",".join(str(c) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.field.signature == other.field.signature

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"<{self.as_string()}>"


class Field:
    """F_{p^tau} = Z_p[X]/(zeta(X)) with reproducible canonical choices.

    zeta is always the lexicographically smallest monic irreducible of
    degree tau (see :func:`find_irreducible`), so (p, tau) alone fixes
    the field and the encoding of every element.
    """

    def __init__(self, p: int, tau: int):
        # The bounds first: trial division of a huge p or a search over a
        # huge field would run for ages.  p >= 2 makes p**32 >= MAX_ORDER.
        if p > MAX_P:
            raise ParameterError(f"p={p} exceeds supported bound {MAX_P}")
        if tau < 1 or p ** min(tau, 32) >= MAX_ORDER:
            raise ParameterError(f"tau={tau}: order p**tau outside [p, {MAX_ORDER})")
        if not is_prime(p):
            raise ParameterError(f"p={p} is not prime")
        self.p = p
        self.tau = tau
        self.zeta = find_irreducible(p, tau)
        self.order = p ** tau
        self.group_order = self.order - 1
        self.signature = (p, tau, self.zeta)
        self.width = coeff_width(p)

        self._generator_enc = self._find_generator_enc()
        self._elems = self._exp = self._log = self._codec = None
        if self.order <= TABLE_LIMIT:
            self._build_tables()
        self.zero = self.decode(0)
        self.one = self.decode(1)

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs) -> int:
        """Integer encoding sum(c_i * p^i); the fixed element ordering."""
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def decode(self, enc: int) -> FieldElement:
        if self._elems is not None:
            return self._elems[enc]
        return FieldElement(self, tuple(self.decode_raw(enc)), enc)

    def element(self, coeffs) -> FieldElement:
        """Build an element from a coefficient sequence (reduced mod p)."""
        coeffs = [int(c) % self.p for c in coeffs]
        if len(coeffs) != self.tau:
            raise ParameterError(
                f"expected {self.tau} coefficients, got {len(coeffs)}")
        return self.decode(self.encode(coeffs))

    def const(self, c: int) -> FieldElement:
        """Embed a residue mod p as a constant polynomial."""
        return self.decode(c % self.p)

    def parse_element(self, text: str) -> FieldElement:
        parts = text.split(",")
        if len(parts) != self.tau:
            raise ParameterError(f"element string {text!r} has wrong length")
        try:
            coeffs = [int(s) for s in parts]
        except ValueError as exc:
            raise ParameterError(f"bad element string {text!r}") from exc
        if any(not 0 <= c < self.p for c in coeffs):
            raise ParameterError(f"coefficient out of range in {text!r}")
        return self.element(coeffs)

    # -- table construction -------------------------------------------------

    def _mul_enc_direct(self, a: int, b: int) -> int:
        pa = self.decode_raw(a)
        pb = self.decode_raw(b)
        return self.encode(_poly_mulmod(pa, pb, self.zeta, self.p))

    def decode_raw(self, enc: int) -> list[int]:
        """The tau coefficients of an encoding, constant term first."""
        coeffs = []
        for _ in range(self.tau):
            coeffs.append(enc % self.p)
            enc //= self.p
        return coeffs

    def _pow_enc_direct(self, a: int, e: int) -> int:
        return self.encode(_poly_powmod(self.decode_raw(a), e, self.zeta,
                                        self.p))

    def _find_generator_enc(self) -> int:
        q1 = self.group_order
        prime_factors = factorize(q1)
        for cand in range(1, self.order):
            if all(self._pow_enc_direct(cand, q1 // f) != 1 for f in prime_factors):
                return cand
        raise AssertionError("unreachable: F* is cyclic")

    def _build_tables(self):
        g = self._generator_enc
        q1 = self.group_order
        exp = [0] * q1
        log = [-1] * self.order
        cur = 1
        for k in range(q1):
            exp[k] = cur
            log[cur] = k
            cur = self._mul_enc_direct(cur, g)
        if cur != 1:
            raise AssertionError("generator order mismatch; zeta not irreducible?")
        self._exp = exp
        self._log = log
        self._elems = [self.decode(enc) for enc in range(self.order)]
        # (pack, unpack): pack[enc] is the element's byte form, unpack
        # maps those bytes back to enc.
        pack = [self._pack_residues(e.coeffs) for e in self._elems]
        self._codec = (pack, {b: enc for enc, b in enumerate(pack)})

    # -- integer access for the serving path ----------------------------------

    @property
    def log_exp(self) -> tuple[list[int], list[int]] | None:
        """(log, exp) over encodings, or None above TABLE_LIMIT: exp[k]
        encodes g^k and log[a] = k for a != 0 (g the tables' generator,
        k in [0, group_order)), and log[0] = -1."""
        return None if self._log is None else (self._log, self._exp)

    # -- byte form -------------------------------------------------------------

    def _pack_residues(self, residues) -> bytes:
        return struct.pack(_coeff_format(self.width, len(residues)),
                           *residues)

    def pack(self, encs) -> bytes:
        """The byte forms of a sequence of encodings, concatenated."""
        if self._codec is None:
            return self._pack_residues(
                [c for e in encs for c in self.decode_raw(e)])
        return b"".join(map(self._codec[0].__getitem__, encs))

    def unpack(self, data: bytes, start: int) -> tuple[int, ...]:
        """The encodings of the packed elements that fill data[start:];
        KeyParseError at the byte offset of the first coefficient >= p."""
        size = self.tau * self.width
        count = (len(data) - start) // size
        if self._codec is not None:
            encs = tuple(map(self._codec[1].get,
                             _slicer(size, count).unpack_from(data, start)))
            if None not in encs:    # else a slice holds a coefficient >= p
                return encs
        coeffs = struct.unpack_from(
            _coeff_format(self.width, count * self.tau), data, start)
        if max(coeffs, default=0) >= self.p:
            k = next(k for k, c in enumerate(coeffs) if c >= self.p)
            raise KeyParseError(f"coefficient {coeffs[k]} out of range",
                                start + k * self.width)
        return self.from_residues(coeffs)

    def from_residues(self, residues) -> tuple[int, ...]:
        """The encodings of consecutive elements given as tau residues
        mod p each, constant term first: their byte form read back
        through the tables, or encoded one by one above TABLE_LIMIT."""
        if self._codec is None:
            tau = self.tau
            return tuple(self.encode(residues[k:k + tau])
                         for k in range(0, len(residues), tau))
        return self.unpack(self._pack_residues(residues), 0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, a: FieldElement):
        if a.field.signature != self.signature:
            raise ParameterError("field element belongs to a different field")

    def add_enc(self, a: int, b: int, sign: int = 1) -> int:
        """a + sign*b on encodings, coefficient-wise, sign = +-1: an XOR
        for p = 2."""
        if self.p == 2:
            return a ^ b
        return self._add_coeffs(self.decode(a).coeffs, self.decode(b).coeffs,
                                sign)

    def _add_coeffs(self, xs, ys, sign: int) -> int:
        return self.encode([(x + sign * y) % self.p for x, y in zip(xs, ys)])

    def _add_scaled(self, a: FieldElement, b: FieldElement,
                    sign: int) -> FieldElement:
        """add_enc on elements, read from their own coefficients."""
        self._check(a)
        self._check(b)
        if self.p == 2:
            return self.decode(a.enc ^ b.enc)
        return self.decode(self._add_coeffs(a.coeffs, b.coeffs, sign))

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self._add_scaled(a, b, 1)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self._add_scaled(a, b, -1)

    def neg(self, a: FieldElement) -> FieldElement:
        return self._add_scaled(self.zero, a, -1)

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        return self.decode(self.mul_enc(a.enc, b.enc))

    def mul_enc(self, a: int, b: int) -> int:
        """The product of two encodings, as an encoding: one log/exp
        lookup, or a polynomial product above TABLE_LIMIT."""
        if a == 0 or b == 0:
            return 0
        if self._log is None:
            return self._mul_enc_direct(a, b)
        return self._exp[(self._log[a] + self._log[b]) % self.group_order]

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        return self.decode(self.inv_enc(a.enc))

    def inv_enc(self, a: int) -> int:
        """The inverse of an encoding, as an encoding: one log/exp lookup,
        or a**(group_order - 1) above TABLE_LIMIT."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._log is None:
            return self._pow_enc_direct(a, self.group_order - 1)
        return self._exp[-self._log[a] % self.group_order]

    def pow(self, a: FieldElement, k: int) -> FieldElement:
        """a**k; for a != 0 the exponent is reduced mod the group order,
        so negative exponents mean inverse powers."""
        self._check(a)
        if a.enc == 0:
            if k == 0:
                return self.one
            if k < 0:
                raise ZeroDivisionError("zero to a negative power")
            return self.zero
        k %= self.group_order
        if self._log is not None:
            return self._elems[self._exp[(self._log[a.enc] * k) % self.group_order]]
        return self.decode(self._pow_enc_direct(a.enc, k))

    # -- multiplicative structure ---------------------------------------------

    def smallest_generator(self) -> FieldElement:
        """Generator of F* smallest under the integer element encoding."""
        return self.decode(self._generator_enc)

    def root_of_unity(self, m: int) -> FieldElement:
        """Canonical element of multiplicative order exactly m.

        Returns g**((order-1)/m) for the smallest generator g, so the
        same root is produced on every run.
        """
        if m < 1 or self.group_order % m != 0:
            raise ParameterError(
                f"m={m} does not divide the group order {self.group_order}")
        return self.pow(self.smallest_generator(), self.group_order // m)

    def subgroup(self, gamma: FieldElement, m: int) -> list[FieldElement]:
        """[gamma^0, ..., gamma^(m-1)], indexed by discrete log.

        gamma must have order exactly m.
        """
        if self.element_order(gamma) != m:
            raise ParameterError(f"element does not have order {m}")
        out = [self.one]
        cur = self.one
        for _ in range(m - 1):
            cur = self.mul(cur, gamma)
            out.append(cur)
        return out

    def element_order(self, a: FieldElement) -> int:
        if a.enc == 0:
            raise ParameterError("zero has no multiplicative order")
        order = self.group_order
        for f in factorize(order):
            while order % f == 0 and self.pow(a, order // f).enc == 1:
                order //= f
        return order

    def random_element(self, rng) -> FieldElement:
        """One uniform element, as random_elements(rng, 1) draws it;
        kept for bench/sweep.py."""
        return self.random_elements(rng, 1)[0]

    def random_elements(self, rng, count: int) -> list[FieldElement]:
        """`count` uniform elements; draws tau residues mod p per element,
        in coefficient order, through draw_below."""
        residues = draw_below(rng, self.p, count * self.tau)
        return list(map(self.decode, self.from_residues(residues)))

    def __repr__(self):
        return f"Field(p={self.p}, tau={self.tau}, zeta={list(self.zeta)})"
