"""Exact root counts about the unit circle for polynomials over Q(i).

A polynomial is split into square-free factors by Yun's algorithm, and
each factor s is mapped by the Cayley transform z = (w - i)/(w + i),
which sends the open unit disk to the upper half-plane and the unit
circle, except z = 1, to the real line:

    q(w) = sum_k s_k (w - i)^k (w + i)^(n - k).

With the leading coefficient of q made real, q = P + iQ for real
polynomials P and Q with deg Q < deg P.  Their gcd D carries the real
roots of q (roots of s on the circle) and its pairs of conjugate roots
(pairs z, 1/conj(z) of roots of s); it is the Cayley image of
gcd(s, s*), s*(z) = z^n conj(s(1/conj(z))).  Dividing it out leaves
P/D + iQ/D with no real root, whose roots in the upper half-plane are
counted by the Cauchy index of Q/P over the real line (Marden,
*Geometry of Polynomials*, ch. X); real roots are counted by Sturm
sequences.  Everything is exact in ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


class GaussRational:
    """An exact element re + im*i of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussRational:
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: GaussRational) -> GaussRational:
        return GaussRational(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __truediv__(self, other: GaussRational) -> GaussRational:
        n = other.re * other.re + other.im * other.im
        return self * GaussRational(other.re / n, -other.im / n)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conjugate(self) -> GaussRational:
        return GaussRational(self.re, -self.im)


# Polynomials are coefficient lists, lowest degree first, with no
# trailing zero; [] is the zero polynomial.


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _sub(p: list, q: list) -> list:
    zero = GaussRational()
    n = max(len(p), len(q))
    p, q = p + [zero] * (n - len(p)), q + [zero] * (n - len(q))
    return _trim([a - b for a, b in zip(p, q)])


def _mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [GaussRational()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _divmod(p: list, q: list) -> tuple[list, list]:
    rem = list(p)
    inv = GaussRational(1) / q[-1]
    quo = [GaussRational()] * max(len(p) - len(q) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(q) - 1] * inv
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] = rem[k + j] - c * b
    return _trim(quo), _trim(rem[: len(q) - 1])


def _monic(p: list) -> list:
    inv = GaussRational(1) / p[-1]
    return [c * inv for c in p]


def _gcd(p: list, q: list) -> list:
    while q:
        p, q = q, _divmod(p, q)[1]
    return _monic(p)


def _derivative(p: list) -> list:
    return _trim([c * GaussRational(k) for k, c in enumerate(p)][1:])


def squarefree_factors(f: list) -> list[tuple[list, int]]:
    """Yun's decomposition of a nonzero f: pairs (s, k) of monic,
    square-free, pairwise coprime s of degree >= 1 with f = lead(f) *
    prod s^k."""
    df = _derivative(f)
    g = _gcd(f, df)
    b, c = _divmod(f, g)[0], _divmod(df, g)[0]
    out = []
    k = 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, d)
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def _cauchy_index(p: list, q: list) -> int:
    """Cauchy index of q/p over the real line, for real p != 0: sign
    variations of the signed remainder sequence at -inf minus at +inf."""
    leads = []
    while q:
        leads.append((p[-1].re, len(p) - 1))
        p, q = q, [-c for c in _divmod(p, q)[1]]
    leads.append((p[-1].re, len(p) - 1))

    def variations(at_minus_inf: bool) -> int:
        signs = [(c > 0) != (at_minus_inf and deg % 2 == 1) for c, deg in leads]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(True) - variations(False)


def circle_counts(s: list) -> tuple[int, int, int]:
    """Roots of a square-free s inside, on and outside the unit circle."""
    degree = len(s) - 1
    on = 0
    if not sum(s, GaussRational()):  # s(1) = 0: z = 1 has no Cayley image
        s = _divmod(s, [GaussRational(-1), GaussRational(1)])[0]
        on = 1
    n = len(s) - 1
    minus, plus = [[GaussRational(1)]], [[GaussRational(1)]]
    for _ in range(n):
        minus.append(_mul(minus[-1], [GaussRational(0, -1), GaussRational(1)]))
        plus.append(_mul(plus[-1], [GaussRational(0, 1), GaussRational(1)]))
    # deg q = n, since its leading coefficient is s(1) != 0
    q = [GaussRational()] * (n + 1)
    for k, a in enumerate(s):
        for j, c in enumerate(_mul(minus[k], plus[n - k])):
            q[j] = q[j] + a * c
    rot = q[-1].conjugate()
    q = [c * rot for c in q]
    re = _trim([GaussRational(c.re) for c in q])
    im = _trim([GaussRational(c.im) for c in q])
    common = _gcd(re, im)
    real = _cauchy_index(common, _derivative(common))
    re, im = _divmod(re, common)[0], _divmod(im, common)[0]
    pairs = (len(common) - 1 - real) // 2
    upper = (len(re) - 1 - _cauchy_index(re, im)) // 2
    on += real
    return pairs + upper, on, degree - pairs - upper - on
