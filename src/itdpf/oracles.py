"""Independent brute-force oracles for every algebraic identity in the scheme.

Each oracle recomputes a quantity along an arithmetic path disjoint
from the production code.  Key evaluation multiplies one monomial by one
linear form in the mask; the oracles keep two references instead.  The
vector-form share conversion (convert_share) spells out the
recovery-weighted value and the full chain-rule gradient, and the
explicit exponent-coefficient table of the blinded database polynomial
gives values, derivatives and the constant term directly.  The two
references are checked against each other, and production against the
vector form, so a corrupted recovery coefficient or family vector shows
up as a cross-path mismatch.

Security is checked as exact distribution equality under full
enumeration of the blinding space (the claim is perfect, so sampling
statistics would under-test it), plus a structural translation-bijection
argument for the additive masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

from .dpf import (PointFunction, Share, keygen, make_shares, serialize_key,
                  key_byte_length, KEY_HEADER_LEN, _pack_elements)
from .errors import FamilyViolationError, ParameterError
from .field import FieldElement
from .interpolation import InterpolationScheme
from .matching import MatchingFamily, dot_mod, trivial_family
from .params import DpfParams


@dataclass
class OracleReport:
    check: str
    cases: int = 0
    failures: list = dc_field(default_factory=list)
    skipped: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self, params_digest: str = "") -> dict:
        return {
            "check": self.check,
            "params_digest": params_digest,
            "cases": self.cases,
            "failures": self.failures,
            **({"skipped": self.skipped} if self.skipped else {}),
        }


def convert_share(params: DpfParams, family: MatchingFamily,
                  scheme: InterpolationScheme, slot: int, x: int,
                  share: Share) -> tuple[FieldElement, ...]:
    """Local share conversion for input x; uses only public data and the
    share itself.

    Entry 0 is the recovery-weighted evaluation of the database monomial
    along the blinded powers; entries 1..h are the recovery-weighted
    gradient, rescaled coordinate-wise by (share / point) so that the
    dot product with the family vector reproduces the first derivative
    by the chain rule.  Gradient factors keep the generic monomial form
    (exponent vector u - e_i reduced mod m, scalar u_i mod p) so that
    arbitrary matching families work, not just basis vectors.

    This is the reference form, O(h) field operations per nonzero u_i.
    dpf.evaluate_key computes only its inner product with the mask,
    collapsed to one monomial times one linear form.
    """
    if share.slot != slot:
        raise ParameterError("share does not belong to the requested slot")
    fld = params.field
    m, p = params.m, params.p
    u_x = family.u(x)
    h = family.h
    first = share.vector[:h]
    point = share.vector[h]

    value = fld.one
    for i in range(h):
        value = value * fld.pow(first[i], u_x[i] % m)

    a0, a1 = scheme.coeffs[slot]
    out = [a0 * value]
    rescale = a1 * point.inverse()
    for i in range(h):
        scalar = u_x[i] % p
        if scalar == 0:
            out.append(fld.zero)
            continue
        grad = fld.one
        for i2 in range(h):
            exponent = (u_x[i2] - (1 if i2 == i else 0)) % m
            grad = grad * fld.pow(first[i2], exponent)
        out.append(rescale * first[i] * (fld.const(scalar) * grad))
    return tuple(out)


def reduced_polynomial_table(params: DpfParams, family: MatchingFamily,
                             alpha: int, x: int,
                             blind: list[FieldElement]) -> dict[int, FieldElement]:
    """Explicit coefficient table of the blinded database polynomial,
    reduced mod Z^M - 1.

    For each domain point j the indicator database contributes
    [j == x] * blind^{u_j} at exponent u_j . v_alpha mod M.  Any nonzero
    coefficient landing outside the canonical set of M violates the
    matching property and raises; the support actually exercised is
    thereby certified end-to-end.
    """
    fld = params.field
    v_alpha = family.v(alpha)
    allowed = set(params.S_M)
    table: dict[int, FieldElement] = {}
    for j in range(1, family.size + 1):
        if j != x:           # indicator database: f_j(x) = [j == x]
            continue
        u_j = family.u(j)
        s = dot_mod(v_alpha, u_j, params.M)
        term = fld.one
        for i in range(family.h):
            term = term * fld.pow(blind[i], u_j[i] % params.m)
        table[s] = table.get(s, fld.zero) + term
    for s, c in table.items():
        if not c.is_zero() and s not in allowed:
            raise FamilyViolationError(
                f"table coefficient at exponent {s} outside the canonical set "
                f"(alpha={alpha}, x={x})")
    return table


def _table_eval(params: DpfParams, table: dict[int, FieldElement],
                b: FieldElement) -> FieldElement:
    fld = params.field
    total = fld.zero
    for s, c in table.items():
        total = total + c * fld.pow(b, s % params.m)
    return total


def _table_derivative(params: DpfParams, table: dict[int, FieldElement],
                      b: FieldElement) -> FieldElement:
    fld = params.field
    total = fld.zero
    for s, c in table.items():
        scalar = s % params.p
        if scalar:
            total = total + c * fld.const(scalar) * fld.pow(b, (s - 1) % params.m)
    return total


def derivative_consistency_check(params: DpfParams, family: MatchingFamily,
                                 scheme: InterpolationScheme, alpha: int,
                                 x: int, blind: list[FieldElement]) -> OracleReport:
    """Compare table-side evaluations/derivatives at every interpolation
    point against the vector-form share conversion.

    Converting with unit recovery coefficients leaves entry 0 as the
    monomial's value along the line and entries 1..h as its chain-rule
    factors, whose dot product with v_alpha is the derivative."""
    report = OracleReport("derivative_consistency")
    fld = params.field
    table = reduced_polynomial_table(params, family, alpha, x, blind)
    shares = make_shares(params, family, scheme, alpha, blind)
    unit = replace(scheme, coeffs=((fld.one, fld.one),) * scheme.n)
    v_alpha = family.v(alpha)
    for slot, b in enumerate(scheme.points):
        value, *factors = convert_share(params, family, unit, slot, x,
                                        shares[slot])
        chain = fld.zero
        for v, factor in zip(v_alpha, factors):
            chain = chain + fld.const(v % params.p) * factor

        table_value = _table_eval(params, table, b)
        table_deriv = _table_derivative(params, table, b)
        report.cases += 2
        if table_value != value:
            report.failures.append(
                {"slot": slot, "kind": "value", "alpha": alpha, "x": x})
        if table_deriv != chain:
            report.failures.append(
                {"slot": slot, "kind": "derivative", "alpha": alpha, "x": x})
    return report


def reconstruction_identity_check(params: DpfParams, family: MatchingFamily,
                                  scheme: InterpolationScheme, alpha: int,
                                  x: int, blind: list[FieldElement]) -> OracleReport:
    """Check that summed converted shares reproduce the table's constant
    term, and that unblinding and projecting yields the Kronecker delta."""
    report = OracleReport("reconstruction_identity")
    fld = params.field
    table = reduced_polynomial_table(params, family, alpha, x, blind)
    shares = make_shares(params, family, scheme, alpha, blind)
    h = family.h

    total = [fld.zero] * (h + 1)
    for slot in range(scheme.n):
        conv = convert_share(params, family, scheme, slot, x, shares[slot])
        total = [a + b for a, b in zip(total, conv)]

    v_alpha = family.v(alpha)
    selector = [fld.one] + [fld.const(v_alpha[i] % params.p) for i in range(h)]
    recovered = fld.zero
    for a, b in zip(selector, total):
        recovered = recovered + a * b

    constant = table.get(0, fld.zero)
    report.cases += 1
    if recovered != constant:
        report.failures.append(
            {"kind": "constant_term", "alpha": alpha, "x": x})

    u_alpha = family.u(alpha)
    unblind = fld.one
    for i in range(h):
        unblind = unblind * fld.pow(blind[i], (-u_alpha[i]) % params.m)
    report.cases += 1
    if (recovered * unblind).constant_term != (1 if alpha == x else 0):
        report.failures.append({"kind": "delta", "alpha": alpha, "x": x})
    return report


def enumerate_blinds(params: DpfParams, h: int):
    """All blinding vectors in subgroup^h, in mixed-radix discrete-log order."""
    m = params.m
    total = m ** h
    for code in range(total):
        vec = []
        c = code
        for _ in range(h):
            vec.append(params.H[c % m])
            c //= m
        yield tuple(vec)


def check_distribution_equality(params: DpfParams, family: MatchingFamily,
                                scheme: InterpolationScheme,
                                f0: PointFunction, f1: PointFunction,
                                slot: int, enumeration_budget: int = 10 ** 6,
                                as_bytes: bool = False) -> OracleReport:
    """Perfect-security witness for one key slot.

    (a) Enumerates every blinding vector and compares the exact multiset
    of share vectors produced for f0 vs f1 (each must be a bijective
    re-enumeration of subgroup^h).  With as_bytes=True the comparison is
    over the serialized wire bytes of the share section.
    (b) Verifies the mask map (mask1 = target - mask0) is a bijection:
    injectivity on an enumerated grid of mask0 values plus equal finite
    cardinality of domain and codomain give surjectivity.
    """
    report = OracleReport("distribution_equality")
    h = family.h
    if params.m ** h > enumeration_budget:
        report.skipped = (
            f"m^h = {params.m ** h} exceeds the enumeration budget "
            f"{enumeration_budget}")
        return report
    fld = params.field

    def share_multiset(func: PointFunction):
        out = []
        for blind in enumerate_blinds(params, h):
            share = make_shares(params, family, scheme, func.alpha,
                                list(blind))[slot]
            if as_bytes:
                out.append(_pack_share_bytes(params, share))
            else:
                out.append(tuple(e.enc for e in share.vector))
        out.sort()
        return out

    report.cases += 1
    if share_multiset(f0) != share_multiset(f1):
        report.failures.append({"kind": "share_multiset", "slot": slot})

    # Mask bijection: for a small fixed set of blinds and both functions,
    # the map mask0 -> target - mask0 must be injective on an enumerated
    # grid; injectivity plus equal finite cardinality gives bijectivity.
    grid_size = min(fld.order ** (h + 1), 512)
    for func in (f0, f1):
        u_a = family.u(func.alpha)
        v_a = family.v(func.alpha)
        for pick in range(3):
            blind = [params.H[(k * 3 + pick + 1) % params.m] for k in range(h)]
            correction = fld.one
            for i in range(h):
                correction = correction * fld.pow(blind[i], (-u_a[i]) % params.m)
            scaled = correction * fld.const(func.beta)
            target = [scaled] + [scaled * fld.const(v_a[i] % params.p)
                                 for i in range(h)]
            seen = set()
            for g in range(grid_size):
                mask0 = []
                c = g
                for _ in range(h + 1):
                    mask0.append(fld.decode(c % fld.order))
                    c //= fld.order
                mask1 = tuple((t - o).enc for t, o in zip(target, mask0))
                if mask1 in seen:
                    report.failures.append(
                        {"kind": "mask_injectivity", "alpha": func.alpha})
                    break
                seen.add(mask1)
            report.cases += 1
    return report


def _pack_share_bytes(params: DpfParams, share: Share) -> bytes:
    # Same packer the wire serializer uses, so the multiset comparison is
    # over exactly the bytes a server would receive in its key upload.
    return _pack_elements(params, share.vector)


# ---------------------------------------------------------------------------
# Key-size measurement.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeySizeAudit:
    h: int
    measured: int
    formula: int
    header: int

    @property
    def ok(self) -> bool:
        return self.measured == self.formula


def measure_key_size(params: DpfParams, family: MatchingFamily,
                     scheme: InterpolationScheme, seed: int = 0) -> KeySizeAudit:
    """Serialize a generated key and audit the closed-form byte count
    header + 2*(h+1)*tau*width."""
    import random
    rng = random.Random(seed)
    func = PointFunction(family.size, params.p, 1, 1 % params.p)
    key = keygen(params, family, scheme, func, rng)[0]
    measured = len(serialize_key(params, key))
    return KeySizeAudit(h=family.h, measured=measured,
                        formula=key_byte_length(params, family.h),
                        header=KEY_HEADER_LEN)


def key_size_sweep(params: DpfParams, scheme: InterpolationScheme,
                   h_values=(2, 4, 8, 16, 32)) -> list[KeySizeAudit]:
    """Byte counts across an h sweep; the sequence is affine in h by
    construction, which realizes the linear-in-h key-size bound."""
    audits = []
    for h in h_values:
        family = trivial_family(params.M, h)
        audits.append(measure_key_size(params, family, scheme))
    return audits
