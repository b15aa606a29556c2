"""Zero-interpolation schemes over the order-m subgroup.

A scheme is a point set B inside the subgroup together with recovery
coefficients a[l][k] (k in {0, 1}) such that for every exponent s in
the canonical set of M,

    sum_l sum_k a[l][k] * Hasse_k(Z^s)(b_l)  =  1 if s == 0 else 0.

It is found in two stages: a canonical search for the smallest B whose
coefficients c interpolate the constant term from plain evaluations
over the canonical set of m (multiplicity 1), then the closed-form lift
a[l] = (c_l, -c_l * b_l) to the canonical set of M (multiplicity 2).
By CRT each s there is a t in the canonical set of m with s mod p in
{0, 1}: the rows with s = 0 mod p have no derivative term and ask
sum_l a_l0 b_l^t = [t == 0], and those with s = 1 mod p then ask
sum_l a_l1 b_l^(t-1) = -[t == 0].  The certificate re-checks every row.

Exponent conventions: a subgroup element b satisfies b^m = 1, so
exponents reduce mod m; the scalar factor produced by differentiation
lives in the field and reduces mod p.  Both reductions are well defined
because m and p divide M.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import LiftInconsistentError, ParameterError
from .field import Field, FieldElement
from .params import (DpfParams, artifact_fields, canonical_json_bytes,
                     parse_artifact, require_rebuilt)

# Subsets tried before the search gives up.  The binary fixture needs
# 2,301, the odd one 21, three primes 1; four (m = 3*5*7*13) reach the
# bound in about 1.5 s on one CPU of a 2-vCPU VM.
MAX_SUBSETS = 1 << 12


def hasse_monomial(params: DpfParams, s: int, k: int, b: FieldElement) -> FieldElement:
    """k-th Hasse derivative of Z^s evaluated at a subgroup element b.

    Order 0 is the plain power; order 1 is the formal derivative
    s * Z^(s-1) with the scalar s reduced mod p and the exponent mod m.
    Orders beyond 1 are not supported (multiplicity is fixed at 2).
    """
    fld = params.field
    if k == 0:
        return fld.pow(b, s % params.m)
    if k == 1:
        scalar = s % params.p
        if scalar == 0:
            return fld.zero
        return fld.const(scalar) * fld.pow(b, (s - 1) % params.m)
    raise ParameterError(f"unsupported derivative order k={k} (multiplicity 2)")


@dataclass(frozen=True)
class InterpolationScheme:
    points: tuple[FieldElement, ...]              # B, in canonical order
    point_logs: tuple[int, ...]                   # discrete logs of B
    coeffs: tuple[tuple[FieldElement, FieldElement], ...]  # a[l] = (a_l0, a_l1)

    @property
    def n(self) -> int:
        return len(self.points)


def find_interpolation_set(
    field: Field,
    H: tuple[FieldElement, ...],
    exponents,
    n_min: int,
) -> tuple[tuple[int, ...], tuple[FieldElement, ...]]:
    """Smallest multiplicity-1 interpolating subset of H for `exponents`.

    For n = n_min, n_min + 1, ... the n-subsets of H are enumerated
    in discrete-log-lexicographic order and the first subset whose
    linear system  sum_l a_l * b_l^s = [s == 0]  is consistent wins, so
    the result is fully deterministic.  The full subgroup always
    interpolates (the |exponents| x m system has full row rank by
    distinctness of the characters Z^s on H), but the search raises
    ParameterError after MAX_SUBSETS subsets.
    """
    m = len(H)
    exponents = sorted(set(int(s) for s in exponents))
    if n_min < 1:
        raise ParameterError(f"n_min={n_min} must be >= 1")
    # b_l = gamma^d, so b_l^s is just the subgroup element at index d*s.
    # Rows hold encodings, with the right-hand side [s == 0] last.
    power_row = {s: [H[(d * s) % m].enc for d in range(m)] for s in exponents}
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(m), n) for n in range(n_min, m + 1))
    for combo in itertools.islice(subsets, MAX_SUBSETS):
        solution = _solve(field, len(combo), [
            [power_row[s][d] for d in combo] + [int(s == 0)]
            for s in exponents])
        if solution is not None:
            return tuple(combo), tuple(map(field.decode, solution))
    raise ParameterError(
        f"no interpolation set among the first {MAX_SUBSETS} subsets of H")


def _solve(field: Field, n_cols: int, aug: list[list[int]]) -> list[int] | None:
    """Solve the augmented system `aug` (right-hand side last) over
    encodings; None exactly when it is inconsistent.  The pivot is the
    first nonzero entry scanning rows top-down and columns left to
    right, and free variables are zero, so a system always yields the
    same solution.  A pivot row is zero left of its pivot column, so
    row updates start there."""
    mul, add = field.mul_enc, field.add_enc
    pivot_cols: list[int] = []
    for col in range(n_cols):
        rank = len(pivot_cols)
        pivot = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = field.inv_enc(aug[rank][col])
        prow = aug[rank][col:] = [mul(inv, x) for x in aug[rank][col:]]
        for i, row in enumerate(aug):
            f = row[col]
            if f and i != rank:
                row[col:] = [add(x, mul(f, y), -1)
                             for x, y in zip(row[col:], prow)]
        pivot_cols.append(col)
    if any(row[n_cols] for row in aug[len(pivot_cols):]):
        return None
    solution = [0] * n_cols
    for row, col in zip(aug, pivot_cols):
        solution[col] = row[n_cols]
    return solution


def _lifted_scheme(params: DpfParams, point_logs, c) -> InterpolationScheme:
    """The scheme on the points H[d] for d in point_logs whose
    multiplicity-1 coefficients are c, lifted in closed form."""
    points = tuple(params.H[d] for d in point_logs)
    return InterpolationScheme(
        points=points,
        point_logs=tuple(point_logs),
        coeffs=tuple((c_l, -(c_l * b))
                     for c_l, b in zip(c, points, strict=True)),
    )


def build_scheme(params: DpfParams) -> InterpolationScheme:
    """Multiplicity-1 search from n_target, closed-form lift, and the
    certificate's monomial rows: the recovery map is linear, so the rows
    certify it exactly, and random polynomials could only add a check of
    hasse_monomial, which `itdpf verify` runs."""
    scheme = _lifted_scheme(params, *find_interpolation_set(
        params.field, params.H, params.S_m, params.n_target))
    cert = verify_scheme(params, scheme, random_polynomials=0)
    if not cert.ok:
        raise LiftInconsistentError(
            f"freshly built scheme failed verification at s={cert.failed_exponents}")
    return scheme


# ---------------------------------------------------------------------------
# Independent certification.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeCertificate:
    ok: bool
    failed_exponents: tuple[int, ...]
    random_cases: int
    random_failures: int


def _powers_by_iteration(field: Field, b: FieldElement,
                         exponents: set[int]) -> dict[int, FieldElement]:
    """b**e for each e in exponents, from one pass of repeated
    multiplication up to the largest; deliberately avoids Field.pow so
    the certificate exercises an arithmetic path disjoint from the
    solver."""
    powers = {}
    acc = field.one
    for e in range(max(exponents) + 1):
        if e in exponents:
            powers[e] = acc
        acc = acc * b
    return powers


def verify_scheme(
    params: DpfParams,
    scheme: InterpolationScheme,
    seed: int = 0,
    random_polynomials: int = 100,
) -> SchemeCertificate:
    """Re-check the multiplicity-2 identity from scratch.

    Every monomial constraint is recomputed from powers of each point
    built by iterated multiplication (not the solver's matrices, not
    table powering), then the linear map is spot-checked on random
    polynomials supported on the canonical set of M: applying the
    recovery coefficients to their evaluations and first derivatives
    must return the constant term exactly.
    """
    fld, m, p = params.field, params.m, params.p
    # Row s reads b**(s mod m) and, when s mod p != 0, b**(s-1 mod m).
    used = ({s % m for s in params.S_M}
            | {(s - 1) % m for s in params.S_M if s % p})
    powers = [_powers_by_iteration(fld, b, used) for b in scheme.points]
    failed = []
    for s in params.S_M:
        scalar = s % p
        total = fld.zero
        for (a0, a1), pw in zip(scheme.coeffs, powers):
            total = total + a0 * pw[s % m]
            if scalar:
                total = total + a1 * (fld.const(scalar) * pw[(s - 1) % m])
        expected = fld.one if s == 0 else fld.zero
        if total != expected:
            failed.append(s)

    rng = random.Random(seed)
    random_failures = 0
    for _ in range(random_polynomials):
        coeffs_by_s = dict(zip(params.S_M,
                               fld.random_elements(rng, len(params.S_M))))
        recovered = fld.zero
        for (a0, a1), b in zip(scheme.coeffs, scheme.points):
            value = fld.zero
            deriv = fld.zero
            for s, c in coeffs_by_s.items():
                value = value + c * hasse_monomial(params, s, 0, b)
                deriv = deriv + c * hasse_monomial(params, s, 1, b)
            recovered = recovered + a0 * value + a1 * deriv
        if recovered != coeffs_by_s[0]:
            random_failures += 1

    return SchemeCertificate(
        ok=not failed and random_failures == 0,
        failed_exponents=tuple(failed),
        random_cases=random_polynomials,
        random_failures=random_failures,
    )


# ---------------------------------------------------------------------------
# Persistence.
# ---------------------------------------------------------------------------

def scheme_to_json(scheme: InterpolationScheme) -> bytes:
    obj = {
        "B": [b.as_string() for b in scheme.points],
        "B_logs": list(scheme.point_logs),
        "n": scheme.n,
        "A": [[a0.as_string(), a1.as_string()] for a0, a1 in scheme.coeffs],
        "mult1": [a0.as_string() for a0, _ in scheme.coeffs],
    }
    return canonical_json_bytes(obj)


def scheme_from_json(params: DpfParams, data: bytes) -> InterpolationScheme:
    """Rebuild the scheme from the file's B_logs and mult1; every other
    field must be what scheme_to_json writes for it, and mult1 must pass
    the certificate's monomial rows (verify_scheme)."""
    obj = parse_artifact(data, "scheme")
    with artifact_fields("scheme"):
        point_logs = obj["B_logs"]
        # A negative log would index H from the end, and a JSON true
        # would index it as 1 and be written back as true.
        if any(type(d) is not int or not 0 <= d < params.m
               for d in point_logs):
            raise ParameterError(
                "scheme point logs outside [0, m) or not integers")
        scheme = _lifted_scheme(
            params, point_logs,
            [params.field.parse_element(a) for a in obj["mult1"]])
    require_rebuilt(obj, scheme_to_json(scheme), "scheme")
    cert = verify_scheme(params, scheme, random_polynomials=0)
    if not cert.ok:
        raise ParameterError(
            f"scheme file fails its certificate at s={list(cert.failed_exponents)}")
    return scheme
