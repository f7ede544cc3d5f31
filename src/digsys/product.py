"""Digit systems on E[x]/(P1*P2) assembled from systems on the factors.

Given digit systems with constant digit sets on the factors, the
combined digit set is {d + e*P1 : d in N1, e in N2} (and, for more
factors, d1 + d2*P1 + d3*P1*P2 + ...).  The combined system is an
ordinary digit system, so an element expands by T of the combined
system, on the single-orbit walker of :mod:`digsys.digits`, for any
number of factors.  For two factors, the coupled pair of backward
divisions on the factor coefficient streams emits the same digit
stream and is the tests' oracle for it; its states (a, b)
stand for a + b*P1 but not uniquely, so it may meet 0 or a repeated
element some steps after T of the combined system does.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import witness
from .digits import DigitSystem, validate_system
from .polyquot import Poly
from .rings import Ring


@dataclass(frozen=True)
class ProductSystem:
    factors: tuple  # ((P_i, digit values, DigitSystem), ...)
    combined: DigitSystem
    fep_propagated: str  # "yes" | "unknown" (conjunction of factor verdicts)


@dataclass(frozen=True)
class ProductExpansion:
    status: str  # "finite" | "eventually-periodic" | "unknown"
    digits: tuple
    steps: int
    preperiod: int | None = None
    period: int | None = None


def _constant_values(ring: Ring, digit_values) -> tuple:
    out = []
    for v in digit_values:
        try:
            out.append(ring.coerce(v))
        except TypeError as exc:
            raise ValueError(f"product factors need constant digit sets: {exc}") from exc
    return tuple(out)


def product_digit_set(ring: Ring, p1: Poly, n1, p2: Poly, n2) -> ProductSystem:
    """Two-factor combined system over P1*P2 with digits d + e*P1."""
    return multi_product_digit_set(ring, [(p1, n1), (p2, n2)])


def multi_product_digit_set(
    ring: Ring, factors, closure_cap: int = witness.DEFAULT_CLOSURE_CAP
) -> ProductSystem:
    """k-factor combined system with digits d1 + d2*P1 + ... + dk*P1...P(k-1).

    The finite-expansion flag is propagated only when every factor
    passes the witness decision and 0 is a digit of each factor but
    possibly the last; the factor order matters, permutations give
    different digit sets.
    """
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    built = []
    for modulus, digit_values in factors:
        values = _constant_values(ring, digit_values)
        system = validate_system(ring, modulus, values)
        built.append((modulus, values, system))

    combined_modulus = built[0][0]
    for modulus, _, _ in built[1:]:
        combined_modulus = combined_modulus * modulus

    # digits d1 + d2*P1 + d3*P1*P2 + ...; the first factor varies fastest
    prefix = Poly.make(ring, [ring.one])
    digit_polys = [Poly.make(ring, [ring.zero])]
    for modulus, values, _ in built:
        digit_polys = [
            base + prefix.scale(v) for v in values for base in digit_polys
        ]
        prefix = prefix * modulus
    combined = validate_system(ring, combined_modulus, digit_polys)

    zero_ok = not any(all(values) for _, values, _ in built[:-1])
    flag = "unknown"
    if zero_ok:
        verdicts = [
            witness.decide_fep(system, closure_cap=closure_cap)
            for _, _, system in built
        ]
        if all(v.answer == "yes" for v in verdicts):
            flag = "yes"
    return ProductSystem(tuple(built), combined, flag)


def product_expand(
    psys: ProductSystem, element: Poly, cap: int = 10**6
) -> ProductExpansion:
    """Expansion of a raw polynomial in the combined system of any number
    of factors.

    The combined digits d1 + d2*P1 + ... make an ordinary digit system on
    E[x]/(P1*...*Pk), so this is T of ``psys.combined`` on the normalised
    element, walked like ``DigitSystem.digit_sequence`` (``cap`` may be
    0).  For two factors the coupled recurrence on the factor coefficient
    streams, which splits a0 = d + k*p0 and b0 + k = e + l*p0' per digit,
    is kept as the tests' independent oracle; for more factors the tests
    evaluate the digits back.
    """
    combined = psys.combined
    if element.ring != combined.ring:
        raise ValueError("element over the wrong ring")
    seq = combined._orbit(combined.qring.normalize(element), cap)
    if seq.kind == "finite":
        return ProductExpansion("finite", seq.digits, steps=seq.steps)
    if seq.kind == "eventually-periodic":
        return ProductExpansion(
            "eventually-periodic",
            seq.digits,
            steps=seq.preperiod + seq.period,
            preperiod=seq.preperiod,
            period=seq.period,
        )
    return ProductExpansion("unknown", seq.digits, steps=cap)
