"""Where the roots of a polynomial over Z or Z[i] lie about the unit circle.

The Cayley transform z = (w - i)/(w + i) sends the open unit disk to the
upper half-plane and the unit circle, except z = 1, to the real line.
For P of degree d with P(1) != 0,

    q(w) = conj(P(1)) * sum_k p_k (w - i)^k (w + i)^(d - k)

has degree d and the real leading coefficient |P(1)|^2, and its roots
are the Cayley images of the roots of P.  Write q = A + iB with A, B over
Z.  Their gcd D holds the real roots of q, which are roots of P on
|z| = 1, and pairs w, conj(w) of roots of q, which are pairs z, 1/conj(z)
of roots of P, one of them inside the circle.  With D constant, q has no
real root and (d - Ind(B/A))/2 roots in the upper half-plane, where Ind
is the Cauchy index over the real line (Marden, *Geometry of
Polynomials*, ch. X); P then has every root outside exactly when
Ind(B/A) = d.  The number of distinct real roots of D is Ind(D'/D).

A Cauchy index is the count of sign variations at -inf less that at
+inf along a signed remainder sequence, which stays valid when each
remainder is scaled by a positive constant.  So every remainder is a
pseudo-remainder, scaled by a power of |lead| rather than of lead, and
divided by its positive content: the primitive remainder sequence of
Collins (*J. ACM* 14 (1967)), all on plain ints.  Its last member is
the gcd D up to a constant.
"""

from __future__ import annotations

from math import gcd

# Polynomials are coefficient lists, lowest degree first; a real one has
# no trailing zero, and [] is the zero polynomial.


def _times(poly: list, s: int) -> list:
    """poly * (w + s*i) on (re, im) coefficient pairs, for s = 1 or -1."""
    padded = [(0, 0), *poly, (0, 0)]
    return [(a - s * y, b + s * x) for (a, b), (x, y) in zip(padded, padded[1:])]


def _remainder(a: list, b: list) -> list:
    """-|lead(b)|^(deg a - deg b + 1) * (a mod b), divided by its
    positive content; [] when b divides a."""
    lead = b[-1]
    scale, sign, n = abs(lead), (1 if lead > 0 else -1), len(b) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = sign * a[k]
        a = [scale * x for x in a[:k]]
        for j in range(n):
            a[k - n + j] -= c * b[j]
    while a and not a[-1]:
        a.pop()
    content = gcd(*a)
    return [-x // content for x in a]


def _cauchy_index(a: list, b: list) -> tuple[int, list]:
    """Ind(b/a) over the real line, for real a != 0, and gcd(a, b) up to a
    constant factor."""
    seq = [a]
    while b:
        seq.append(b)
        a, b = b, _remainder(a, b)
    # signs at +inf and at -inf of the leading terms
    plus = [p[-1] > 0 for p in seq]
    minus = [(p[-1] > 0) != (len(p) % 2 == 0) for p in seq]

    def variations(signs: list) -> int:
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return variations(minus) - variations(plus), seq[-1]


def circle_status(coeffs: list) -> str:
    """"borderline" when a root of the polynomial with the (re, im)
    coefficient pairs ``coeffs`` (lowest degree first, degree >= 1) lies
    on |z| = 1, else "not-expanding" when one lies inside, else
    "expanding"."""
    d = len(coeffs) - 1
    sr, si = sum(re for re, _ in coeffs), sum(im for _, im in coeffs)
    if not (sr or si):
        return "borderline"
    # Horner in w - i: q <- q * (w - i) + p_k (w + i)^(d - k), k = d-1..0
    q, power = [coeffs[d]], [(1, 0)]
    for pr, pi in reversed(coeffs[:d]):
        power = _times(power, 1)
        q = [
            (a + pr * x - pi * y, b + pr * y + pi * x)
            for (a, b), (x, y) in zip(_times(q, -1), power)
        ]
    real = [a * sr + b * si for a, b in q]
    imag = [b * sr - a * si for a, b in q]
    while imag and not imag[-1]:
        imag.pop()
    index, common = _cauchy_index(real, imag)
    if len(common) > 1:
        slope = [k * c for k, c in enumerate(common)][1:]
        return "borderline" if _cauchy_index(common, slope)[0] else "not-expanding"
    return "expanding" if index == d else "not-expanding"
