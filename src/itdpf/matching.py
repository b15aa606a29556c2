"""Matching families of vector pairs over Z_M.

A family of N pairs (u_i, v_i) in Z_M^h indexes the point-function
domain: self dot products vanish mod M, and every cross product lands
in the canonical set minus zero.  Domain indices are 1-based at the API
boundary (alpha, x in [1, N]); the accessors `u` and `v` are the single
place where they convert to 0-based storage.  `supports` is the sparse
view of U that evaluation and certification iterate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError
from .params import (DpfParams, artifact_fields, canonical_json_bytes,
                     parse_artifact)

# Bound on h and N: certification costs O(N^2 * nnz(u)), 0.35 s for the
# basis family at h = N = 1024 and cubic in h for dense rows.
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

    @property
    def size(self) -> int:
        return len(self.U)

    @cached_property
    def supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each 0-based row of U, the pairs (i, u_i) with u_i != 0
        mod M: the only coordinates a dot product with u can depend on."""
        M = self.modulus
        return tuple(tuple((i, e) for i, e in enumerate(row) if e % M)
                     for row in self.U)

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


def trivial_family(modulus: int, h: int) -> MatchingFamily:
    """Standard-basis family of size N = h.

    u_i is the i-th basis vector and v_j the all-ones vector with a zero
    at position j, so u_i . v_i = 0 and u_i . v_j = 1 for i != j; it is
    valid for every canonical set since 1 reduces to 1 mod every prime.
    """
    _check_bound("h", h)
    U = tuple(tuple(1 if j == i else 0 for j in range(h)) for i in range(h))
    V = tuple(tuple(0 if j == i else 1 for j in range(h)) for i in range(h))
    return MatchingFamily(modulus, h, U, V, certified=True)


def search_family(params: DpfParams, h: int, n_goal: int, seed: int,
                  budget: int) -> MatchingFamily:
    """Randomized greedy search for a family of up to n_goal pairs.

    Samples (u, v) with u . v = 0 mod M, keeps a candidate only when all
    cross products against the accepted pairs stay in S_M \\ {0}, and
    stops at n_goal or when the sampling budget runs out.  An undersized
    result is still a valid certified family.
    """
    _check_bound("h", h)
    if n_goal < 1 or budget < 1:
        raise ParameterError("n_goal and budget must be positive")
    modulus = params.M
    allowed = set(params.S_M) - {0}
    rng = random.Random(seed)
    U: list[tuple[int, ...]] = []
    V: list[tuple[int, ...]] = []
    for _ in range(budget):
        if len(U) >= n_goal:
            break
        u = tuple(rng.randrange(modulus) for _ in range(h))
        v = tuple(rng.randrange(modulus) for _ in range(h))
        if dot_mod(u, v, modulus) != 0:
            continue
        ok = all(
            dot_mod(u, V[k], modulus) in allowed
            and dot_mod(U[k], v, modulus) in allowed
            for k in range(len(U))
        )
        if ok:
            U.append(u)
            V.append(v)
    family = MatchingFamily(modulus, h, tuple(U), tuple(V))
    cert = verify_family(family, params.S_M)
    if not cert.ok:
        raise AssertionError("search produced an uncertified family (bug)")
    return MatchingFamily(modulus, h, tuple(U), tuple(V), certified=True)


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
    marked = MatchingFamily(family.modulus, family.h, family.U, family.V, True)
    # Hand over the supports the certificate just built, so that the
    # first query does not build them a second time.
    marked.__dict__["supports"] = family.supports
    return marked


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


def family_from_json(data: bytes) -> MatchingFamily:
    obj = parse_artifact(data, "family")
    with artifact_fields("family"):
        _check_bound("h", obj["h"])
        _check_bound("N", obj["N"])
        U = tuple(tuple(int(x) for x in row) for row in obj["U"])
        V = tuple(tuple(int(x) for x in row) for row in obj["V"])
        fam = MatchingFamily(obj["M"], obj["h"], U, V, bool(obj["certified"]))
        if len(U) != obj["N"] or len(V) != obj["N"]:
            raise ParameterError("family file N does not match vector count")
    if any(len(u) != fam.h for u in U) or any(len(v) != fam.h for v in V):
        raise ParameterError("family file vector length does not match h")
    return fam
