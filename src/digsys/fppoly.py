"""Polynomials over a prime field F_p in the variable y, packed into ints.

A polynomial over F_p is one integer with a coefficient per slot of
``_width(p)`` bytes, so sums, differences and products are integer
operations followed by one reduction of every slot mod p
(``bytes.translate`` for small p); products are Kronecker substitutions
(Harvey 2009).  Division by a fixed modulus goes through a cached
power-series inverse of the reversed modulus (von zur Gathen and
Gerhard, *Modern Computer Algebra*, 9.1): a quotient of a few one-byte
slots is one integer product reduced by one ``translate``, a longer one
over F2 and F3 is a run of those from the top, and one over F_p, p >= 5,
two products and a difference.

These kernels on packed ints (``_add``, ``_sub``, ``_mul``,
``_divider``) are the one F_p[y] arithmetic of the library: the
operators of :class:`FpPoly` and ``FpPolynomialRing.divider`` wrap them,
and ``FpPolynomialRing.dynamics`` calls them directly, or binds the
straight-line kernels of ``rings._kernel``, which call them.  The atom
of an F_p[y] value (``Ring.atoms``) is its packed int, ``FpPoly[1]``,
since p is fixed per ring, so walks and closures over F_p[y] hash,
compare and add plain ints and build no FpPoly per step.

``digsys.rings`` re-exports :class:`FpPoly`, :class:`FpPolynomialRing`
and :func:`Fp`.
"""

from __future__ import annotations

import functools
import operator

from .errors import ParseError
from .rings import (
    KERNEL_DEGREE,
    MAX_ENUMERATION,
    NEG_INF,
    Ring,
    _is_prime,
    _kernel,
    _new,
    _Scanner,
    _build,
)


class FpPoly(tuple):
    """A polynomial over F_p in y, stored as the pair ``(p, packed)``:
    little-endian byte slot i of the int ``packed``, ``_width(p)`` bytes
    wide, holds coefficient i in [0, p), and no trailing slot is zero.
    So zero is 0, equal polynomials are equal pairs and hashes do not
    depend on the hash seed; no plain tuple equals an FpPoly.
    ``FpPoly(p, coeffs)`` takes coefficients (index = degree) in [0, p);
    ``make`` reduces them first.
    """

    __slots__ = ()

    def __new__(cls, p: int, coeffs=()):
        return tuple.__new__(cls, (p, _pack(coeffs, _width(p))))

    @classmethod
    def make(cls, p: int, coeffs) -> FpPoly:
        return cls(p, [c % p for c in coeffs])

    p = property(lambda self: self[0])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return _unpack(self[1], _width(self[0]))

    @property
    def degree(self) -> int:
        return _slots(self[1], _width(self[0])) - 1

    def __bool__(self) -> bool:
        return self[1] != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, FpPoly) and self[1] == other[1] and self[0] == other[0]

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return FpPoly, (self[0], self.coeffs)

    def __add__(self, other: FpPoly) -> FpPoly:
        p, a = self
        if p != other[0]:
            raise ValueError("mixed characteristics")
        return _new(FpPoly, (p, _add(p, a, other[1])))

    def __sub__(self, other: FpPoly) -> FpPoly:
        p, a = self
        if p != other[0]:
            raise ValueError("mixed characteristics")
        return _new(FpPoly, (p, _sub(p, a, other[1])))

    def __neg__(self) -> FpPoly:
        p, a = self
        return _new(FpPoly, (p, _sub(p, 0, a)))

    def __rmul__(self, other):
        # refuse int * value, which tuple would read as repetition
        return NotImplemented

    def __mul__(self, other: FpPoly) -> FpPoly:
        p, a = self
        if p != other[0]:
            raise ValueError("mixed characteristics")
        return _new(FpPoly, (p, _mul(p, a, other[1])))

    def __str__(self) -> str:
        return _format_fp(self)

    def __repr__(self) -> str:
        return f"FpPoly({self.p}, {self.coeffs})"


# -- packed-int kernels -----------------------------------------------------


# most entries each per-prime cache (``Fp``, ``_width``, ``_plane``) keeps,
# least recently used out first, so a process that meets many
# characteristics holds a bounded number of rings and tables
SHARED_PRIMES = 256


@functools.lru_cache(maxsize=SHARED_PRIMES)
def _width(p: int) -> int:
    """Bytes per coefficient slot: the least w with 2(p-1) < 256^w, so a
    slot holds a sum of two residues, or p plus a residue, uncarried."""
    return ((2 * p - 2).bit_length() + 7) >> 3


def _kron_width(p: int, terms: int) -> int:
    """Bytes per slot that hold, uncarried, a sum of ``terms`` products
    of two residues mod p: the least k with (p-1)^2 * terms < 256^k."""
    return (((p - 1) ** 2 * terms).bit_length() + 7) >> 3


def _slots(n: int, w: int) -> int:
    return -(-n.bit_length() // (8 * w))


def _pack(coeffs, w: int) -> int:
    if w == 1:
        return int.from_bytes(bytes(coeffs), "little")
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")


def _unpack(n: int, w: int) -> tuple:
    raw = n.to_bytes(_slots(n, w) * w, "little")
    if w == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w))


def _spread(n: int, slots: int, w: int, k: int) -> int:
    """Move each w-byte slot of n into a k-byte slot."""
    raw = n.to_bytes(slots * w, "little")
    out = bytearray(slots * k)
    for j in range(w):
        out[j::k] = raw[j::w]
    return int.from_bytes(out, "little")


def _reverse(n: int, slots: int, w: int) -> int:
    """The packed y^(slots-1) * f(1/y) of the packed f of degree < slots."""
    if w == 1:
        return int.from_bytes(n.to_bytes(slots, "big"), "little")
    cs = _unpack(n, w)
    return _pack((cs + (0,) * (slots - len(cs)))[::-1], w)


@functools.lru_cache(maxsize=SHARED_PRIMES)
def _plane(p: int, j: int) -> bytes:
    """byte b -> b * 256^j mod p, for one byte plane of a wider slot."""
    return bytes(b * pow(256, j, p) % p for b in range(256))


# 0x0101...01 over _ONES_BYTES slots: n & _ONES reduces mod 2 every
# one-byte slot of an n of at most that many slots, in one C operation
_ONES_BYTES = 4096
_ONES = int.from_bytes(b"\x01" * _ONES_BYTES, "little")


def _reduce(n: int, p: int, k: int) -> int:
    """The packed polynomial whose coefficient i is the k-byte slot i of n
    mod p, for k at least ``_width(p)``."""
    if k == 1:
        if p == 2 and n.bit_length() <= 8 * _ONES_BYTES:
            return n & _ONES
        raw = n.to_bytes((n.bit_length() + 7) >> 3, "little")
        return int.from_bytes(raw.translate(_plane(p, 0)), "little")
    slots = _slots(n, k)
    raw = n.to_bytes(slots * k, "little")
    if k * (p - 1) < 256:
        # a slot is sum_j byte_j 256^j: reduce each byte plane by table,
        # then add the planes, whose sums k(p-1) still fit one byte
        n = 0
        for j in range(k):
            n += int.from_bytes(raw[j::k].translate(_plane(p, j)), "little")
        return int.from_bytes(n.to_bytes(slots, "little").translate(_plane(p, 0)), "little")
    cs = [int.from_bytes(raw[i : i + k], "little") % p for i in range(0, slots * k, k)]
    return _pack(cs, _width(p))


# In characteristic 2 every slot holds 0 or 1, so sums and differences are
# the XOR of the packed integers and need no reduction.


def _add(p: int, a: int, b: int) -> int:
    """a + b of packed polynomials over F_p."""
    if p == 2:
        return a ^ b
    return _reduce(a + b, p, _width(p))


def _sub(p: int, a: int, b: int) -> int:
    """a - b of packed polynomials over F_p."""
    if p == 2:
        return a ^ b
    # slot i < slots(b) holds p + a_i - b_i in [1, 2p - 1]: no borrows
    w = _width(p)
    ps = int.from_bytes(p.to_bytes(w, "little") * _slots(b, w), "little")
    return _reduce(a + ps - b, p, w)


def _mul(p: int, a: int, b: int) -> int:
    """a * b of packed polynomials over F_p, by Kronecker substitution:
    each coefficient of the integer product is at most
    (p-1)^2 * min(la, lb), so slots of ``_kron_width`` bytes never carry
    into each other."""
    if not a or not b:
        return 0
    w = _width(p)
    bits = 8 * w
    la, lb = -(-a.bit_length() // bits), -(-b.bit_length() // bits)
    if la == lb == 1:
        return a * b % p
    if w > 1 and min(la, lb) == 1:
        # a constant operand: one scalar product per coefficient
        c, rest = (a, b) if la == 1 else (b, a)
        return _pack([c * x % p for x in _unpack(rest, w)], w)
    k = _kron_width(p, min(la, lb))
    if k > w:
        a, b = _spread(a, la, w, k), _spread(b, lb, w, k)
    return _reduce(a * b, p, k)


# most dividers ``_divider`` keeps, least recently used out first
SHARED_DIVIDERS = 256

# _MASKS[n] keeps the low n one-byte slots, for n up to the longest inline
# quotient (254 slots, over F2)
_MASKS = tuple((1 << 8 * n) - 1 for n in range(256))


@functools.lru_cache(maxsize=SHARED_DIVIDERS)
def _divider(p: int, m: int):
    """Division by the nonzero packed m over F_p: a -> (r, q) on packed
    ints with a = r + q*m and deg r < deg m.  With rev_L(f) = y^(L-1)
    f(1/y), the quotient of a is rev_L(rev_L(a div y^deg m) * S mod y^L),
    L = deg a - deg m + 1, where S = 1/rev(m) is kept here and extended
    by Newton steps S <- S (2 - rev(m) S) that double its length as
    longer dividends arrive; the remainder is a - q*m.

    One divider per (p, m) serves the whole process, at most
    ``SHARED_DIVIDERS`` of them: a base's p0 gets the same one from every
    ``QuotRing`` and digit set over it, and -p0 (p0 itself over F2) from
    the dynamics of every system over it, so each series is extended
    once.  The series and its length are one tuple, read and replaced
    whole, so two threads that extend it at once each divide with a
    consistent pair, and either result is a valid series.

    Quotients of L one-byte slots, L (p-1)^2 <= c for the largest multiple
    c of p at most 256 - p, are inline: no product with S or m carries a
    slot, so q is reversed by byte order and reduced by one ``translate``,
    as is a + c*(1, ..., 1) - q*m (p = 2: q*m masked and XORed into a).
    S is extended to the bound L here, once, so an inline quotient of n
    slots reads its prefix ``S & _MASKS[n]``.  Over F2 and F3 (L up to
    254 and 63 slots) a longer quotient is divided in chunks of L slots
    from the top, each an inline division of the top slots whose
    remainder replaces them: no product spans the dividend.  For p >= 5 chunks of L <= 15 slots cost
    more than the two full products of the series, which it keeps."""
    w = _width(p)
    bits, dm = 8 * w, _slots(m, w) - 1
    f, two = _reverse(m, dm + 1, w), 2 % p
    series = [(pow(m >> bits * dm, -1, p), 1)]  # [(S mod y^prec, prec)]
    c = (256 - p) // p * p
    short = c // (p - 1) ** 2 if w == 1 else 0
    ones = int.from_bytes(b"\x01" * (short + dm), "little") if short else 0
    bias, table, shift = c * ones, _plane(p, 0), bits * dm

    def extend(n: int) -> int:
        """S mod y^prec for some prec >= n."""
        s, prec = series[0]
        if prec < n:
            while prec < n:
                prec *= 2
                mask = (1 << bits * prec) - 1
                fs = _mul(p, f & mask, s) & mask
                s = _mul(p, s, _sub(p, two, fs)) & mask
            series[0] = s, prec
        return s

    inline = extend(short)

    def divide(a: int) -> tuple:
        n = -(-a.bit_length() // bits) - dm  # deg a - deg m + 1
        if n <= 0:
            return a, 0
        if n <= short:
            top, mask = int.from_bytes((a >> shift).to_bytes(n, "big"), "little"), _MASKS[n]
            low = (top * (inline & mask) & mask).to_bytes(n, "little")
            q = int.from_bytes(low.translate(table), "big")
            if p == 2:
                return a ^ (q * m & ones), q
            r = (a + bias - q * m).to_bytes(short + dm, "little").translate(table)
            return int.from_bytes(r, "little"), q
        if p < 5:
            # chunks from the top: the remainder of a >> shift replaces it
            q = 0
            while n > short:
                n -= short
                at = bits * n
                r, top = divide(a >> at)
                a, q = r << at | a & (1 << at) - 1, q | top << at
            r, top = divide(a)
            return r, q | top
        mask = (1 << bits * n) - 1
        top = _reverse(a >> shift, n, w)
        q = _reverse(_mul(p, top, extend(n) & mask) & mask, n, w)
        return _sub(p, a, _mul(p, q, m)), q

    return divide


def _format_fp(a: FpPoly) -> str:
    if not a:
        return "0"
    terms = []
    for k, c in reversed(list(enumerate(a.coeffs))):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            ypart = "y" if k == 1 else f"y^{k}"
            terms.append(ypart if c == 1 else f"{c}{ypart}")
    return "+".join(terms)


_packed = operator.itemgetter(1)


class FpPolynomialRing(Ring):
    """Polynomials over the prime field F_p in the variable y."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}[y]"

    def __eq__(self, other) -> bool:
        return isinstance(other, FpPolynomialRing) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    # built once per ring: every digit system binds its dynamics with them
    @functools.cached_property
    def zero(self):
        return FpPoly(self.p)

    @functools.cached_property
    def one(self):
        return FpPoly(self.p, (1,))

    def coerce(self, x):
        if isinstance(x, FpPoly):
            if x.p != self.p:
                raise TypeError("mixed characteristics")
            return x
        if isinstance(x, int):
            return FpPoly.make(self.p, (x,))
        raise TypeError(f"cannot interpret {x!r} as a polynomial over F_{self.p}")

    def is_unit(self, a) -> bool:
        return a.degree == 0

    def euclid_value(self, a):
        return NEG_INF if not a else a.degree

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return self.p ** m.degree

    def residues(self, m) -> list:
        """ValueError when the system has more than MAX_ENUMERATION members."""
        size = self.quotient_size(m)
        if size > MAX_ENUMERATION:
            raise ValueError(
                f"the residue system mod {_format_fp(m)} has {size} members, "
                f"more than the enumeration limit {MAX_ENUMERATION}"
            )
        d = m.degree
        out = []
        for idx in range(size):
            coeffs = []
            v = idx
            for _ in range(d):
                v, c = divmod(v, self.p)
                coeffs.append(c)
            out.append(FpPoly.make(self.p, coeffs))
        return out

    def divider(self, m):
        """``_divider`` of m's packed int, on FpPoly values."""
        self.check_modulus(m)
        p, divide = self.p, _divider(self.p, m[1])

        def divide_poly(a):
            r, q = divide(a[1])
            return _new(FpPoly, (p, r)), _new(FpPoly, (p, q))

        return divide_poly

    # -- the dynamics on packed ints ---------------------------------------

    def atoms(self, values: tuple) -> tuple:
        return tuple(map(_packed, values))

    def values(self, atoms: tuple) -> tuple:
        p = self.p
        return tuple(_new(FpPoly, (p, n)) for n in atoms)

    def dynamics(self, base: tuple, digit_set, offsets: dict, reduce):
        """The kernels of ``rings._kernel`` for a constant digit set, d up
        to ``KERNEL_DEGREE`` and a carry dot product of one-byte slots,
        one shape per d for p = 2 and one for odd p; else ``_build`` on
        packed ints."""
        d = len(base) - 1
        if d > KERNEL_DEGREE or offsets or self._dot_width(base) > 1:
            return self._generic(base, digit_set, offsets, reduce)
        kind = "F2[y]" if self.p == 2 else "F_p[y]"
        return _kernel(kind, d)(self, base, digit_set, offsets, reduce)

    def _dot_width(self, base: tuple) -> int:
        """Bytes per slot of the carry dot product of the coordinates with
        the weights p_d, ..., p_1 and 1: its slots hold at most (p-1)^2 *
        sum(slots(p_i)), so the width is picked once per system."""
        p, width = self.p, _width(self.p)
        return _kron_width(p, sum(_slots(x[1], width) for x in base[1:]) + 1)

    def _generic(self, base: tuple, digit_set, offsets: dict, reduce):
        """``_build`` on packed ints.  The constant coefficient
        c = sum(q_i p_{d-i}) + r_0 is one sum of int products, reduced once,
        its slots ``_dot_width`` bytes wide, the weights spread to it.
        c is divided by -p0 (p0 itself over F2) with ``_divider`` on ints:
        the remainder r is that of p0 and the quotient q is -q0, so the new
        last coordinate carry[r] - q0 is carry[r] + q, and q itself, with
        no call, where carry[r] is 0, as for every residue of a canonical
        digit set.  The tables are keyed by ints, and atoms add with
        ``_add``, one XOR in characteristic 2; residues mod p_d, of lower
        y-degree than p_d, are closed under addition, so a sum of residue
        parts only loses its trailing zeros.  No FpPoly is built or
        compared per step."""
        p, width, d = self.p, _width(self.p), len(base) - 1
        carry = digit_set.carry
        add = operator.xor if p == 2 else functools.partial(_add, p)
        sub = operator.xor if p == 2 else functools.partial(_sub, p)
        divide = _divider(p, _sub(p, 0, base[0][1]))  # by -p0: q = -q0
        weights = self.atoms(tuple(reversed(base[1:])) + (self.one,))
        k = self._dot_width(base)

        if k == width:
            def head(v: tuple) -> tuple:
                r, q = divide(_reduce(sum(map(operator.mul, v, weights)), p, k))
                c = carry[r]
                return r, add(c, q) if c else q
        else:
            weights = tuple(_spread(x, _slots(x, width), width, k) for x in weights)

            def head(v: tuple) -> tuple:
                dot = sum(_spread(x, _slots(x, width), width, k) * y for x, y in zip(v, weights))
                r, q = divide(_reduce(dot, p, k))
                c = carry[r]
                return r, add(c, q) if c else q

        def settle(q: tuple) -> tuple:
            while len(q) > d and not q[-1]:
                q = q[:-1]
            return q

        return _build(self, base, digit_set, offsets, head, add, sub, settle)

    # -- text ----------------------------------------------------------------

    def read_term(self, sc: _Scanner):
        """``[c[*]]y[^k]`` with c < p; a '*' is taken only when a 'y'
        follows it."""
        at, c = sc.pos, sc.unsigned()
        if c is not None and c >= self.p:
            raise ParseError(f"coefficient {c} out of range for F_{self.p}", sc.text, at)
        star = sc.pos
        if c is not None and sc.peek() == "*" and sc.take() and sc.peek() != "y":
            sc.pos = star
        k = sc.power("y")
        if k is None:
            return None if c is None else FpPoly.make(self.p, (c,))
        return FpPoly.make(self.p, [0] * k + [1 if c is None else c])

    def format(self, a) -> str:
        return _format_fp(a)

    def sort_key(self, a) -> tuple:
        return (a.degree, a.coeffs)


@functools.lru_cache(maxsize=SHARED_PRIMES)
def Fp(p: int) -> FpPolynomialRing:
    return FpPolynomialRing(p)
