"""Exact arithmetic in small extension fields F_{p^tau}.

Elements are tau-coefficient polynomials over Z_p reduced modulo the
smallest monic irreducible zeta(X), stored constant term first.  For
small fields (order <= 2**16) the constructor builds discrete-log tables
over a fixed smallest generator, giving O(1) multiplication, inversion
and powering; all elements are then interned so arithmetic allocates
nothing.  The serving path reads those tables on integer encodings
(`log_exp`) and packs keys through per-field byte tables (`byte_codec`);
above the limit both return None and callers fall back to FieldElement
arithmetic and struct packing.

The additive output map used by the point-function scheme is
``constant_term``: it projects a field element onto its constant
coefficient, a surjective homomorphism onto Z_p.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct

from .errors import ParameterError

# Above this order we skip table construction; arithmetic falls back to
# direct polynomial operations (correct, just slower).  Tables cost about
# 22 us per element: 1.4 s and 47 MiB at order 2**16, but 43 s at 2**20,
# where `itdpf params` and `scheme` take well under a second without them.
TABLE_LIMIT = 1 << 16

MAX_P = 1 << 16
MAX_ORDER = 1 << 32     # field orders p**tau stay below this


def is_prime(n: int) -> bool:
    """Trial-division primality check; inputs here are small by design."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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

        self._elems: list[FieldElement] | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._generator_enc: int | None = None
        self._codecs: dict[int, tuple[list[bytes], dict[bytes, int]]] = {}
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
        v = enc
        coeffs = []
        for _ in range(self.tau):
            coeffs.append(v % self.p)
            v //= self.p
        return FieldElement(self, tuple(coeffs), enc)

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
        return self.decode(self.encode(coeffs))

    # -- table construction -------------------------------------------------

    def _mul_enc_direct(self, a: int, b: int) -> int:
        pa = self.decode_raw(a)
        pb = self.decode_raw(b)
        return self.encode(_poly_mulmod(pa, pb, self.zeta, self.p))

    def decode_raw(self, enc: int) -> list[int]:
        coeffs = []
        for _ in range(self.tau):
            coeffs.append(enc % self.p)
            enc //= self.p
        return coeffs

    def _pow_enc_direct(self, a: int, e: int) -> int:
        r = 1
        base = a
        while e:
            if e & 1:
                r = self._mul_enc_direct(r, base)
            base = self._mul_enc_direct(base, base)
            e >>= 1
        return r

    def _find_generator_enc(self) -> int:
        q1 = self.group_order
        prime_factors = factorize(q1)
        for cand in range(1, self.order):
            if all(self._pow_enc_direct(cand, q1 // f) != 1 for f in prime_factors):
                return cand
        raise AssertionError("unreachable: F* is cyclic")

    def _build_tables(self):
        g = self._find_generator_enc()
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
        self._generator_enc = g
        self._exp = exp
        self._log = log
        elems = []
        for enc in range(self.order):
            v = enc
            coeffs = []
            for _ in range(self.tau):
                coeffs.append(v % self.p)
                v //= self.p
            elems.append(FieldElement(self, tuple(coeffs), enc))
        self._elems = elems

    # -- integer access for the serving path ----------------------------------

    @property
    def log_exp(self) -> tuple[list[int], list[int]] | None:
        """(log, exp) over encodings, or None above TABLE_LIMIT: exp[k]
        encodes g^k and log[a] = k for a != 0 (g the tables' generator,
        k in [0, group_order))."""
        return None if self._log is None else (self._log, self._exp)

    def byte_codec(self, width: int
                   ) -> tuple[list[bytes], dict[bytes, int]] | None:
        """(pack, unpack), or None above TABLE_LIMIT: pack[enc] is the
        element's tau coefficients, constant term first, each `width`
        bytes little-endian, and unpack maps those bytes back to enc.
        Built on first use per width; two threads racing there build
        equal tables, and either one is kept."""
        if self._elems is None:
            return None
        codec = self._codecs.get(width)
        if codec is None:
            pack = [b"".join(c.to_bytes(width, "little") for c in e.coeffs)
                    for e in self._elems]
            codec = (pack, {b: enc for enc, b in enumerate(pack)})
            self._codecs[width] = codec
        return codec

    # -- arithmetic ----------------------------------------------------------

    def _check(self, a: FieldElement):
        if a.field.signature != self.signature:
            raise ParameterError("field element belongs to a different field")

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        if self.p == 2:
            return self.decode(a.enc ^ b.enc)
        p = self.p
        coeffs = tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
        return self.decode(self.encode(coeffs))

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        if self.p == 2:
            return self.decode(a.enc ^ b.enc)
        p = self.p
        coeffs = tuple((x - y) % p for x, y in zip(a.coeffs, b.coeffs))
        return self.decode(self.encode(coeffs))

    def neg(self, a: FieldElement) -> FieldElement:
        if self.p == 2:
            return a
        coeffs = tuple((-x) % self.p for x in a.coeffs)
        return self.decode(self.encode(coeffs))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        if a.enc == 0 or b.enc == 0:
            return self.zero
        if self._log is not None:
            k = self._log[a.enc] + self._log[b.enc]
            if k >= self.group_order:
                k -= self.group_order
            return self._elems[self._exp[k]]
        return self.decode(self._mul_enc_direct(a.enc, b.enc))

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        if a.enc == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self._log is not None:
            return self._elems[self._exp[(-self._log[a.enc]) % self.group_order]]
        return self.decode(self._pow_enc_direct(a.enc, self.group_order - 1))

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
        if self._generator_enc is None:
            self._generator_enc = self._find_generator_enc()
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
        if self._log is not None:
            return self.group_order // math.gcd(self._log[a.enc], self.group_order)
        order = self.group_order
        for f in factorize(self.group_order):
            while order % f == 0 and self._pow_enc_direct(a.enc, order // f) == 1:
                order //= f
        return order

    def random_element(self, rng) -> FieldElement:
        """One uniform element, as random_elements(rng, 1) draws it;
        kept for bench/sweep.py."""
        return self.random_elements(rng, 1)[0]

    def random_elements(self, rng, count: int) -> list[FieldElement]:
        """`count` uniform elements; draws tau residues mod p per element,
        in coefficient order, through draw_below."""
        tau = self.tau
        residues = draw_below(rng, self.p, count * tau)
        return [self.decode(self.encode(residues[k:k + tau]))
                for k in range(0, len(residues), tau)]

    def __repr__(self):
        return f"Field(p={self.p}, tau={self.tau}, zeta={list(self.zeta)})"
