"""Synthesis of a compatible parameter tuple.

A parameter set fixes: a squarefree modulus m = p_1 ... p_r, an output
characteristic p coprime to m, the combined modulus M = m*p, the
extension field F_{p^tau} with m | p^tau - 1, the order-m subgroup H
with its canonical root of unity, and the canonical residue sets of m
and M.  Everything downstream (matching families, interpolation
schemes, key generation) consumes this single object, and its JSON
serialization is byte-reproducible.

The tuple is a function of (primes, p, tau) alone, so build_params is
its only derivation: params_from_json rebuilds it from those three
fields and accepts the file only when it is exactly what
params_to_json writes for the result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import ParameterError
from .field import MAX_P, Field, FieldElement, is_prime

MULTIPLICITY = 2  # derivative orders used everywhere are k in {0, 1}
# Bound on M = m*p: the subgroup H and the canonical sets are enumerated.
MAX_MODULUS = 1 << 20


def canonical_set(modulus: int, prime_factors) -> list[int]:
    """Residues s mod `modulus` with s mod q in {0, 1} for every factor q.

    `modulus` must be exactly the product of the given distinct primes.
    """
    factors = list(prime_factors)
    if len(set(factors)) != len(factors):
        raise ParameterError(f"repeated prime factors in {factors}")
    prod = 1
    for q in factors:
        if not is_prime(q):
            raise ParameterError(f"factor {q} is not prime")
        prod *= q
    if prod != modulus:
        raise ParameterError(
            f"modulus {modulus} is not the product of {factors}")
    return sorted(s for s in range(modulus)
                  if all(s % q in (0, 1) for q in factors))


def sparsity_target(r: int) -> int:
    """Published minimal term count of a canonical-set decoding polynomial
    for a squarefree modulus with r prime factors.

    Advisory only: the realized interpolation-set size is whatever the
    solver certifies over the concrete field (it can be larger when the
    chosen characteristic does not admit the minimal sparse scheme).
    """
    if r < 1:
        raise ParameterError(f"r={r} must be >= 1")
    if r == 1:
        return 2
    if r <= 103:
        if r % 2 == 0:
            return 3 ** (r // 2)
        return 8 * 3 ** ((r - 3) // 2)
    # (3/4)^51 * 2^r, exact for r >= 104 since r - 102 >= 2
    return 3 ** 51 * 2 ** (r - 102)


@dataclass(frozen=True)
class DpfParams:
    """Compatible parameter tuple; immutable and freely shareable."""

    primes: tuple[int, ...]
    m: int
    p: int
    M: int
    tau: int
    field: Field
    H: tuple[FieldElement, ...]     # powers of the canonical root H[1]
    S_m: tuple[int, ...]
    S_M: tuple[int, ...]
    n_target: int
    # The integer views of H that the serving path reads, built with the
    # tuple so that threads only ever read them: H_enc[k] is H[k].enc, and
    # H_log maps each encoding in H to its log, for the membership test and
    # the walk on a field without tables.  m entries, no full-field table.
    H_enc: tuple[int, ...] = dataclasses.field(repr=False, compare=False)
    H_log: dict[int, int] = dataclasses.field(repr=False, compare=False)


def _multiplicative_order(p: int, m: int) -> int:
    order = 1
    acc = p % m
    while acc != 1:
        acc = acc * p % m
        order += 1
        if order > m:
            raise AssertionError("order search overran the modulus")
    return order


def build_params(primes, p: int, tau_hint: int = 1) -> DpfParams:
    """Derive the full parameter tuple from the prime factorization of m
    and the output characteristic p.

    tau is the least multiple of ord_m(p) that is >= tau_hint, i.e. the
    minimal valid extension degree honoring the hint.
    """
    primes = tuple(sorted(int(q) for q in primes))
    # Bound p and M before anything is enumerated or tested for
    # primality by trial division.
    if not primes:
        raise ParameterError("m needs at least one prime factor")
    if type(p) is not int:
        raise ParameterError(f"p={p!r} is not an integer")
    if p > MAX_P:
        raise ParameterError(f"p={p} exceeds supported bound {MAX_P}")
    m = math.prod(primes)
    M = m * p
    if not 0 < M <= MAX_MODULUS:
        raise ParameterError(
            f"M = m*p = {M} outside the supported range [1, {MAX_MODULUS}]")
    if len(set(primes)) != len(primes):
        raise ParameterError(f"primes {list(primes)} are not distinct")
    for q in primes:
        if not is_prime(q):
            raise ParameterError(f"{q} is not prime")
    if not is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if p in primes:
        raise ParameterError(f"p={p} must be coprime to m (it divides m)")
    if tau_hint < 1:
        raise ParameterError(f"tau_hint={tau_hint} must be >= 1")

    d = _multiplicative_order(p, m)
    tau = d * ((tau_hint + d - 1) // d)

    fld = Field(p, tau)
    H = tuple(fld.subgroup(fld.root_of_unity(m), m))
    S_m = tuple(canonical_set(m, primes))
    S_M = tuple(canonical_set(M, primes + (p,)))
    # CRT counting: two admissible residues per prime factor.
    assert len(S_m) == 2 ** len(primes)
    assert len(S_M) == 2 ** (len(primes) + 1)
    # The multiplicity-2 derivative agreement at subgroup points needs the
    # field characteristic to be at least the multiplicity; p >= 2 always.
    assert p >= MULTIPLICITY

    H_enc = tuple(b.enc for b in H)
    return DpfParams(
        primes=primes, m=m, p=p, M=M, tau=tau, field=fld, H=H, S_m=S_m,
        S_M=S_M, n_target=sparsity_target(len(primes)), H_enc=H_enc,
        H_log={c: k for k, c in enumerate(H_enc)},
    )


# ---------------------------------------------------------------------------
# Persistence: canonical JSON, the single source of truth for the CLI chain.
# ---------------------------------------------------------------------------

def canonical_json_bytes(obj) -> bytes:
    """Sorted-key, minimal-separator JSON with trailing newline."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_artifact(data: bytes, what: str) -> dict:
    """The JSON object of an artifact file; anything else is a
    ParameterError."""
    try:
        obj = json.loads(data)
    except ValueError as exc:    # bad JSON or bad UTF-8
        raise ParameterError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParameterError(f"{what} file nests too deeply") from exc
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} file is not a JSON object")
    return obj


def require_rebuilt(obj: dict, rebuilt: bytes, what: str) -> None:
    """Accept an artifact only if it is exactly `rebuilt`, the bytes its
    constructor writes for the inputs read from it.  Otherwise the
    ParameterError names the first differing or unknown field."""
    if canonical_json_bytes(obj) == rebuilt:
        return
    expected = json.loads(rebuilt)
    for name in sorted(obj.keys() | expected.keys()):
        if name not in expected:
            raise ParameterError(f"{what} file has an unknown field {name!r}")
        if name not in obj or (canonical_json_bytes(obj[name])
                               != canonical_json_bytes(expected[name])):
            raise ParameterError(
                f"{what} file field {name!r} differs from its rebuilt value")


@contextmanager
def artifact_fields(what: str):
    """Read an artifact's fields: a missing key or a value of the wrong
    JSON type or shape becomes a ParameterError."""
    try:
        yield
    except ParameterError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        raise ParameterError(f"{what} file is malformed: {exc!r}") from exc


def params_to_json(params: DpfParams) -> bytes:
    obj = {
        "primes": list(params.primes),
        "m": params.m,
        "p": params.p,
        "M": params.M,
        "tau": params.tau,
        "zeta": list(params.field.zeta),
        "gamma": params.H[1].as_string(),
        "H": [b.as_string() for b in params.H],
        "S_m": list(params.S_m),
        "S_M": list(params.S_M),
        "e": MULTIPLICITY,
        "n_target": params.n_target,
    }
    return canonical_json_bytes(obj)


def params_from_json(data: bytes) -> DpfParams:
    """Rebuild the params from the file's primes, p and tau; every other
    field must be what params_to_json writes for the rebuilt tuple."""
    obj = parse_artifact(data, "params")
    with artifact_fields("params"):
        params = build_params(obj["primes"], obj["p"], obj["tau"])
    require_rebuilt(obj, params_to_json(params), "params")
    return params
