"""Matching families of vector pairs over Z_M.

A family of N pairs (u_i, v_i) in Z_M^h indexes the point-function
domain: self dot products vanish mod M, and every cross product lands
in the canonical set minus zero.  Domain indices are 1-based at the API
boundary (alpha, x in [1, N]) and 0-based in storage: the accessors `u`
and `v` convert them, and so do dpf.keygen and dpf.evaluate_key, which
read `supports[alpha - 1]` and `supports[x - 1]`.  `supports` is the
sparse view of U that evaluation and certification iterate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ParameterError
from .params import (DpfParams, artifact_fields, canonical_json_bytes,
                     parse_artifact)

# Bound on h and N: `itdpf family` and `verify` certify a family in
# O(N^2 * nnz(u)), 0.35 s for the basis family at h = N = 1024.  The
# product family with d = 3 primes stays within it for k <= 10.
MAX_H = 1024


def _check_bound(name: str, value: int) -> None:
    if type(value) is not int or not 1 <= value <= MAX_H:
        raise ParameterError(
            f"{name}={value!r} is not an integer in [1, {MAX_H}]")


@dataclass(frozen=True)
class MatchingFamily:
    modulus: int                       # M
    h: int
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    certified: bool = False
    # For each 0-based row of U, the pairs (i, u_i) with u_i != 0 mod M:
    # the only coordinates a dot product with u can depend on.  Built at
    # construction, so that threads only ever read it.
    supports: tuple[tuple[tuple[int, int], ...], ...] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        M = self.modulus
        object.__setattr__(self, "supports", tuple(
            tuple((i, e) for i, e in enumerate(row) if e % M)
            for row in self.U))

    @property
    def size(self) -> int:
        return len(self.U)

    def u(self, i: int) -> tuple[int, ...]:
        """Row vector for 1-based domain index i."""
        self._check_index(i)
        return self.U[i - 1]

    def v(self, i: int) -> tuple[int, ...]:
        self._check_index(i)
        return self.V[i - 1]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.size:
            raise ParameterError(
                f"index {i} outside the domain [1, {self.size}]")


def dot_mod(u, v, modulus: int) -> int:
    """Exact dot product reduced mod `modulus` (no intermediate overflow:
    Python ints are exact)."""
    return sum(a * b for a, b in zip(u, v)) % modulus


def _block_family(M: int, k: int, idempotents) -> MatchingFamily:
    """N = k^d pairs over d blocks of k coordinates, block t holding e_t.
    With x - 1 = sum_t a_t*k^t, u_x is e_t at position a_t of block t and
    v_x is e_t everywhere in block t except there."""
    d = len(idempotents)
    U, V = [], []
    for x in range(k ** d):
        digits = [x // k ** t % k for t in range(d)]
        U.append(tuple(e if i == a else 0
                       for e, a in zip(idempotents, digits) for i in range(k)))
        V.append(tuple(0 if i == a else e
                       for e, a in zip(idempotents, digits) for i in range(k)))
    return MatchingFamily(M, k * d, tuple(U), tuple(V), certified=True)


def trivial_family(modulus: int, h: int) -> MatchingFamily:
    """Standard-basis family of size N = h, one block with e = 1: u_i is
    the i-th basis vector and v_j the all-ones vector with a zero at
    position j, so u_i . v_i = 0 and u_i . v_j = 1 for i != j; it is
    valid for every canonical set since 1 reduces to 1 mod every prime."""
    _check_bound("h", h)
    return _block_family(modulus, h, (1,))


def product_family(params: DpfParams, h: int) -> MatchingFamily:
    """CRT product family of size N = k^d with k = h/d, where d counts the
    primes q_0 < ... < q_{d-1} of M (those of m, plus p).  Block t holds
    the CRT idempotent e_t (1 mod q_t, 0 mod every other prime), so
    u_x . v_y is [a_t != b_t] mod each q_t, for a and b the base-k digits
    of x - 1 and y - 1: 0 exactly when x = y, else in S_M."""
    _check_bound("h", h)
    primes = sorted(params.primes + (params.p,))
    d, M = len(primes), params.M
    if h % d:
        raise ParameterError(f"h={h} is not a multiple of the {d} primes of M")
    _check_bound("N", (h // d) ** d)
    return _block_family(M, h // d, [M // q * pow(M // q, -1, q) % M
                                     for q in primes])


@dataclass(frozen=True)
class FamilyCertificate:
    ok: bool
    checked_pairs: int
    violation: tuple[int, int, int] | None  # (i, j, offending product), 1-based


def verify_family(family: MatchingFamily, S_M) -> FamilyCertificate:
    """Check both defining properties over all N^2 ordered pairs.

    Row i's products with every v_j are summed column by column over the
    support of u_i only, so a family with sparse rows certifies in
    O(N^2 * nnz).  Reports the first violating (i, j) pair in row-major
    order along with the offending dot product; never raises.
    """
    allowed = set(S_M) - {0}
    M, n = family.modulus, family.size
    columns = tuple(zip(*family.V))
    for i, support in enumerate(family.supports):
        prods = [0] * n
        for k, e in support:
            prods = [a + e * c for a, c in zip(prods, columns[k])]
        for j, prod in enumerate(prods):
            prod %= M
            if (prod != 0) if i == j else (prod not in allowed):
                return FamilyCertificate(False, i * n + j + 1,
                                         (i + 1, j + 1, prod))
    return FamilyCertificate(True, n * n, None)


def certified_family(family: MatchingFamily, S_M) -> MatchingFamily:
    """Return the family marked certified, or raise on violation.

    Load-time gate: key generation only accepts certified families.
    """
    cert = verify_family(family, S_M)
    if not cert.ok:
        i, j, prod = cert.violation
        raise ParameterError(
            f"matching family violated at pair ({i}, {j}): product {prod}")
    return dataclasses.replace(family, certified=True)


def family_to_json(family: MatchingFamily) -> bytes:
    obj = {
        "M": family.modulus,
        "h": family.h,
        "N": family.size,
        "U": [list(u) for u in family.U],
        "V": [list(v) for v in family.V],
        "certified": family.certified,
    }
    return canonical_json_bytes(obj)


def family_from_json(params: DpfParams, data: bytes) -> MatchingFamily:
    """Rebuild the family from the file's h and N: the basis family when
    N = h, the product family when d divides h and (h/d)^d = N.  The file
    must be exactly what family_to_json writes for one of them.  It is
    compared as parsed, so a load never serialises the family."""
    obj = parse_artifact(data, "family")
    with artifact_fields("family"):
        h, n = obj["h"], obj["N"]
        d = len(params.primes) + 1
        rebuilt = [trivial_family(params.M, h)] if n == h else []
        if h % d == 0 and (h // d) ** d == n:
            rebuilt.append(product_family(params, h))
    for family in rebuilt:
        if _written_for(obj, family):
            return family
    raise ParameterError(
        "family file is not the basis or the product family of its h and N")


def _written_for(obj: dict, family: MatchingFamily) -> bool:
    """Whether a parsed family file is what family_to_json writes for the
    certified `family`.  Types count: a JSON 1.0 or true is not 1."""
    return (obj.keys() == {"M", "h", "N", "U", "V", "certified"}
            and [(type(obj[k]), obj[k]) for k in ("M", "N", "certified")]
            == [(int, family.modulus), (int, family.size), (bool, True)]
            and _same_rows(obj["U"], family.U)
            and _same_rows(obj["V"], family.V))


def _same_rows(rows, rebuilt) -> bool:
    return (type(rows) is list and len(rows) == len(rebuilt)
            and all(type(row) is list and tuple(row) == r
                    and all(type(e) is int for e in row)
                    for row, r in zip(rows, rebuilt)))
