"""Exact arithmetic in the supported coefficient rings.

Three rings are available: the rational integers ``Z``, the Gaussian
integers ``ZI`` and the polynomial rings ``Fp(p)`` over a prime field
in the variable ``y``.  All three are Euclidean domains, so "nonzero"
and "not a zero divisor" coincide.  The values (arbitrary-precision
``int``, :class:`GaussianInt`, :class:`FpPoly`) carry their own ``+``,
``-``, ``*``, unary ``-`` and truth (nonzero), and their equality is ring
equality.  A ring supplies only what depends on it:

* ``zero``, ``one``, ``coerce``, ``is_unit`` and a Euclidean value
  function with value ``-inf`` at 0,
* complete residue systems for nonzero moduli, deterministic across
  runs (``{0}`` for a unit) and at most ``MAX_ENUMERATION`` long,
* division, through ``divider(m)`` alone,
* ``read_term``, the terms of its values in the one text grammar,
  which ``format`` prints back,
* the arithmetic of the map T of a digit system on the *atoms* of the
  values (``atoms``/``values``), ``dynamics``: the one T of ``_build``,
  or the straight-line kernels ``_kernel`` generates for the shapes of
  Z, Z[i] and F_p[y], bound once per system, calls it on flat
  coordinates.

``Ring.divider(m)`` checks a nonzero modulus once and returns
``a -> (r, q)`` with ``a = r + q*m`` and ``r`` in ``residues(m)``, so
loops that divide by one modulus (a base's p0 or leading coefficient)
skip that check, and ``Z[i]`` rounds on plain ints.  An exact quotient
is the ``q`` of a zero ``r``; dividing by a unit always gives one.

One whitespace-insensitive grammar reads every value and polynomial
(``polyquot.parse_poly``): a signed sum of terms (``_Scanner.terms``), a
term of Z an unsigned integer, of Z[i] ``digits[i]`` or ``i``, of F_p[y]
``[c[*]]y[^k]`` with c < p.  Each ``ParseError`` points at the character
it refuses.

A Gaussian integer is the pair of ints ``(re, im)``, a ``tuple``
subclass like :class:`FpPoly`: its hash is the C tuple hash, and its
operators unpack two ints and build one pair.

Each ring also has an *atom* form of its values for the dynamics: the
plain form that hashes, compares and adds in C.  Over Z it is the value
itself; over Z[i] the plain pair, whose equality is C tuple equality (a
``GaussianInt`` equals no plain tuple), so ``ZI.dynamics`` steps, looks
up and adds int pairs and calls no ``GaussianInt`` method per step; over
F_p[y] the packed int of :mod:`digsys.fppoly`, which holds ``FpPoly``,
``FpPolynomialRing`` and ``Fp``, its kernels and its dynamics, and is
re-exported here.

All values are immutable and all operations are pure, so they may be
shared freely between threads.  The one process-wide state, the
constant digit sets interned per (ring, p0, constants) with their
closure rows (``_DigitSets``) and the F_p[y] dividers, is bounded, and
what it holds never changes a result.
"""

from __future__ import annotations

import functools
import operator
import re as _re
import threading
from collections import OrderedDict
from itertools import starmap, zip_longest

from .errors import ParseError, ValidationError

NEG_INF = float("-inf")

_new = tuple.__new__

# largest exponent a literal may write; parsers build dense coefficient
# lists up to it, so larger ones are rejected before anything is allocated
MAX_EXPONENT = 10**5

# most members an enumeration may list: a residue system (|m| integers,
# N(m) Gaussian integers, p^deg m polynomials) or the windows of a
# zero-cycle proof
MAX_ENUMERATION = 2**16

# the first 13 primes; as Miller-Rabin bases they decide primality of
# every n below _MR_LIMIT (Sorenson and Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality of {n} cannot be decided exactly (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GaussianInt(tuple):
    """A Gaussian integer re + im*i, stored as the pair of ints
    ``(re, im)`` in the way :class:`FpPoly` stores its pair: equal values
    are equal pairs, the hash is ``hash((re, im))``, and no plain tuple,
    int or FpPoly equals one.  ``GaussianInt(re, im)`` takes the parts."""

    __slots__ = ()

    def __new__(cls, re: int, im: int):
        return _new(cls, (re, im))

    re = property(operator.itemgetter(0))
    im = property(operator.itemgetter(1))

    def __add__(self, other: GaussianInt) -> GaussianInt:
        a, b = self
        c, d = other
        return _new(GaussianInt, (a + c, b + d))

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        a, b = self
        c, d = other
        return _new(GaussianInt, (a - c, b - d))

    def __neg__(self) -> GaussianInt:
        a, b = self
        return _new(GaussianInt, (-a, -b))

    def __mul__(self, other: GaussianInt) -> GaussianInt:
        a, b = self
        c, d = other
        return _new(GaussianInt, (a * c - b * d, a * d + b * c))

    def __rmul__(self, other):
        # refuse int * value, which tuple would read as repetition
        return NotImplemented

    def __bool__(self) -> bool:
        return self[0] != 0 or self[1] != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussianInt) and self[0] == other[0] and self[1] == other[1]

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __reduce__(self):
        return GaussianInt, (self[0], self[1])

    def conjugate(self) -> GaussianInt:
        a, b = self
        return _new(GaussianInt, (a, -b))

    def norm(self) -> int:
        a, b = self
        return a * a + b * b

    def __str__(self) -> str:
        return _format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianInt({self[0]}, {self[1]})"


# an int pair as a GaussianInt, without the argument unpacking of __new__
_gaussian = functools.partial(_new, GaussianInt)


def _format_gaussian(a: GaussianInt) -> str:
    if a.im == 0:
        return str(a.re)
    if a.im == 1:
        ipart = "i"
    elif a.im == -1:
        ipart = "-i"
    else:
        ipart = f"{a.im}i"
    if a.re == 0:
        return ipart
    if a.im > 0:
        return f"{a.re}+{ipart}"
    return f"{a.re}{ipart}"


class _Scanner:
    """Whitespace-skipping cursor over a source string, with the pieces of
    the one grammar: sums of terms, unsigned integers and powers."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.skip()

    def skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        self.skip()
        return ch

    def end(self) -> None:
        # ``terms`` stops only at the end or at a ')'
        if self.pos < len(self.text):
            raise self.error("unmatched ')'")

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def digits(self) -> str | None:
        """The ASCII decimal digits at the cursor, taken, or None."""
        m = _re.compile(r"[0-9]+").match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        self.skip()
        return m.group()

    def unsigned(self) -> int | None:
        """The unsigned integer at the cursor, taken, or None."""
        at = self.pos
        literal = self.digits()
        if literal is None:
            return None
        # int() refuses literals beyond the interpreter's digit limit
        # (sys.get_int_max_str_digits)
        try:
            return int(literal)
        except ValueError:
            raise ParseError(
                f"integer literal of {len(literal)} characters is too long", self.text, at
            ) from None

    def sign(self) -> int:
        """1 or -1 for a '+' or '-' taken, 0 when neither is there."""
        ch = self.peek()
        if ch == "+" or ch == "-":
            self.take()
            return 1 if ch == "+" else -1
        return 0

    def power(self, names: str) -> int | None:
        """The exponent k of a variable named in ``names`` and its optional
        ``^k`` at the cursor, taken (1 without '^'), or None when no
        variable is there; exponent errors point at the '^'."""
        ch = self.peek()
        if not ch or ch not in names:
            return None
        self.take()
        if self.peek() != "^":
            return 1
        at = self.pos
        self.take()
        # the bound is checked on the literal, before int() reads it
        digits = self.digits()
        k = digits and (digits.lstrip("0") or "0")
        if not k or len(k) > len(str(MAX_EXPONENT)) or int(k) > MAX_EXPONENT:
            raise ParseError(f"expected an exponent of at most {MAX_EXPONENT}", self.text, at)
        return int(k)

    def terms(self, term, what: str):
        """The one signed-term loop: yields the ``(sign, term(self))`` pairs
        of a sum, with an optional sign before the first term and '+' or
        '-' between terms, up to the end or a ')'.  ``term`` returns None
        where no term starts, which is an error: "expected <what>"."""
        sign = self.sign() or 1
        while True:
            value = term(self)
            if value is None:
                raise self.error(f"expected {what}")
            yield sign, value
            if self.peek() in ("", ")"):
                return
            sign = self.sign()
            if not sign:
                raise self.error("expected '+' or '-'")


class DigitSet:
    """The part of a digit system fixed by its digits' constants alone.
    Digits are a complete residue system mod X exactly when their constants
    e_0 = r + q1*p0 are one mod p0, so the check, the digit of each class
    r, the carries and the closure rows depend on (ring, p0, constants),
    not on p_1, ..., p_d.  ``constants`` are ring values in digit order; in
    atoms, ``carry`` maps each r to q1 in digit order (its i-th key is the
    class of digit i), ``shifts`` holds the nonzero constants and ``rows``
    the rows ``_build`` fills, and ``position`` maps each r to the position
    of its digit, what orbit walks record per step.  Building one raises
    ValidationError listing a wrong count and each digit (digit i is
    ``name(i)``) in the class of an earlier one."""

    __slots__ = ("ring", "p0", "constants", "carry", "position", "shifts", "rows")

    def __init__(self, ring, p0, constants: tuple, name):
        self.ring, self.p0, self.constants = ring, p0, constants
        self.carry, self.rows = {}, {}
        self.shifts = ring.atoms(tuple(c for c in constants if c))
        violations = []
        if len(constants) != ring.quotient_size(p0):
            violations.append(
                f"the digit set has {len(constants)} elements but the residue ring "
                f"modulo {ring.format(p0)} has {ring.quotient_size(p0)}"
            )
        divide, atoms, first = ring.divider(p0), ring.atoms, {}
        self.position = first
        for i, c in enumerate(constants):
            key, q1 = atoms(divide(c))
            if first.setdefault(key, i) != i:
                violations.append(
                    f"digits {name(first[key])} and {name(i)} lie in the "
                    f"same residue class (constant coefficients congruent to "
                    f"{ring.format(divide(c)[0])} mod {ring.format(p0)})"
                )
            else:
                self.carry[key] = q1
        if violations:
            raise ValidationError(violations)


class _DigitSets:
    """The constant digit sets of the process, one per (ring, p0,
    constants), least recently used out first: at most ``sets`` sets and
    ``entries`` entries, a set of n digits counting n and a row of k deltas
    k + 1.  Adding either evicts sets until both bounds hold, the one being
    filled included (its systems keep it to themselves).  A stored row
    never changes, and one built twice is the same row, so closures read
    rows without a lock; storing one and counting it take the lock, so a
    residue's row is stored and counted once."""

    def __init__(self, sets: int, entries: int):
        self.sets, self.entries = sets, entries
        self._table: OrderedDict = OrderedDict()  # key -> [digit set, entries]
        self._size = 0
        self._lock = threading.Lock()

    def get(self, ring, p0, constants: tuple, name) -> DigitSet:
        """The digit set of the key; a miss builds it as ``DigitSet`` does."""
        key = (ring, p0, constants)
        with self._lock:
            slot = self._table.get(key)
            if slot is None:
                slot = self._table[key] = [DigitSet(ring, p0, constants, name), 0]
                self._add(slot, len(constants))
            else:
                self._table.move_to_end(key)
            return slot[0]

    def store(self, digit_set: DigitSet, r, row: tuple) -> None:
        """Put ``row`` at residue ``r`` of the rows of ``digit_set``, unless
        a row is there already."""
        with self._lock:
            if r in digit_set.rows:
                return  # another closure stored the same row first
            digit_set.rows[r] = row
            slot = self._table.get((digit_set.ring, digit_set.p0, digit_set.constants))
            if slot is not None and slot[0] is digit_set:  # else evicted
                self._add(slot, len(row) + 1)

    def _add(self, slot: list, size: int) -> None:
        slot[1] += size
        self._size += size
        while len(self._table) > self.sets or self._size > self.entries:
            self._size -= self._table.popitem(last=False)[1][1]

    def size(self) -> tuple:
        """(digit sets, entries) held."""
        with self._lock:
            return len(self._table), self._size

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self._size = 0


# the bound of the interned digit sets: sets, and entries in all
SHARED_DIGIT_SETS = 256
SHARED_ENTRIES = 2**16
_DIGIT_SETS = _DigitSets(SHARED_DIGIT_SETS, SHARED_ENTRIES)


def _build(ring, base: tuple, digit_set, offsets: dict, head, add, sub, settle):
    """T of a digit system on the atoms of flat coordinates
    v = (q_0, ..., q_{d-1}, r_0, r_1, ...), written once for every ring:
    ``Ring.dynamics`` binds it per system with its arithmetic on atoms.
    A base P of degree d has the coefficients p_0, ..., p_d of ``base``
    (ring values).  In atoms, ``carry`` is the ``DigitSet.carry`` of the
    system's ``digit_set``, and ``offsets`` maps the residue r of a digit
    e = e_0 + X*f_e that is not constant to the coordinates of -f_e.  The
    kernels:

    * ``head(v)`` is ``(r, carry[r] - q0)`` for the constant coefficient
      c = r + q0*p0 of v, the dot product of v with the constant
      coefficients p_d, ..., p_1 of the basis w_0, ..., w_{d-1} and 1 of
      X^0, divided by p0 as ``Ring.divider`` divides;
    * ``add`` and ``sub`` add and subtract two atoms;
    * ``settle`` takes coordinates whose residue part is a sum or a
      difference of reduced ones to their reduced form.

    This is the generic form of T, for every ring and shape.  Over Z,
    Z[i] and F_p[y] with d up to ``KERNEL_DEGREE`` the kernels of
    ``_kernel`` take states of exactly d coordinates in straight-line
    loops, and build these only for the states and rows they pass on.

    Returns ``(step, grow, run)``:

    * ``step(v)`` is ``(r, w)``: the residue class r (an atom) of the digit
      taken off and the atoms w of T(v);
    * ``grow(source)`` is, for one closure, ``expand(frontier, members,
      succ, cap)``, one breadth-first round in one loop: for each member v
      of ``frontier`` in turn it sets ``succ[v]`` to T(v), then adds T(v)
      and each distinct T(v + e) != T(v) for the nonzero digits e, in digit
      order, to ``members`` and to the list it returns unless ``members``
      holds it, and returns at once when ``members`` holds more than
      ``cap``.  ``source`` is the ``DigitSet`` when every digit is constant
      (``offsets`` empty), else those digits' coordinates in ring values;
    * ``run(v, count, checkpoint, emit)`` steps v at most ``count`` (>= 1)
      times, calls ``emit`` with the ``DigitSet.position`` of each digit
      taken off, and stops early at the state 0 or at ``checkpoint``; it
      returns ``(steps, state)``.  Single orbit walks step in segments of
      it, so the straight-line loops make no Python call per step.

    c and e_0 = r + q1*p0 share the residue r.  Since X*w_{d-1} = -p0,
    (c - e_0)/X = (q1 - q0)*w_{d-1}, which becomes the new last basis
    coordinate; r_1, r_2, ... shift down one place.  A digit that is not
    constant then takes f_e off.

    T(v + e) - T(v) = (e + e_r - e_r')/X, for the digits e_r and e_r' of
    the classes r of v and r' of v + e, depends only on r and e.  So one
    row of these deltas per residue r, built when r first appears, serves
    every member of class r, and the row is taken from T itself, on the
    state u = (0, ..., 0, r) of the constant r: the deltas T(u + e) - T(u),
    less repeats and zero, so the images are distinct.  T folds r_0 into
    the carry, so u + e needs no reduction.  For a constant e the delta
    is head(u + e) - carry[r], a change in the last basis coordinate
    only, so a shift image costs one addition; otherwise it is the
    settled coordinate difference, added to T(v) as coordinates.  The rows
    of a constant digit set depend only on p0 and its digits, so they are
    its ``DigitSet.rows``, shared by the closures of every system holding
    that interned set (``_DigitSets``); a closure of a digit set that is
    not constant keeps its own.  Canonical F_p[y] digits leave T(v) alone.
    """
    carry, position = digit_set.carry, digit_set.position
    atoms, zero, d = ring.atoms, ring.atoms((ring.zero,))[0], len(base) - 1
    nil = (zero,) * d

    def add_coords(u: tuple, v: tuple) -> tuple:
        # basis coordinates add, and the residue parts, each reduced, are
        # settled only when both are non-empty
        q = tuple(map(add, u[:d], v[:d]))
        if len(u) > d and len(v) > d:
            return settle(q + tuple(starmap(add, zip_longest(u[d:], v[d:], fillvalue=zero))))
        return q + u[d:] + v[d:]

    def step(v: tuple) -> tuple:
        r, last = head(v)
        w = v[1:d] + (last,)
        if len(v) > d + 1:
            w += v[d + 1 :]
        if offsets and r in offsets:
            w = add_coords(w, offsets[r])
        return r, w

    def run(v: tuple, count: int, checkpoint: tuple, emit) -> tuple:
        for n in range(1, count + 1):
            r, v = step(v)
            emit(position[r])
            if v == checkpoint or v == nil:
                return n, v
        return count, v

    def grow(source):
        if offsets:
            shifts, rows = [atoms(s) for s in source], {}

            def row(r) -> tuple:
                u = nil + (r,)
                own = step(u)[1]
                found = dict.fromkeys(
                    settle(tuple(starmap(sub, zip_longest(w, own, fillvalue=zero))))
                    for w in (step(add_coords(u, s))[1] for s in shifts)
                )
                found.pop(nil, None)
                rows[r] = found = tuple(found)
                return found
        else:
            shifts, rows = source.shifts, source.rows

            def row(r) -> tuple:
                own = carry[r]
                found = dict.fromkeys(sub(head(nil + (add(r, s),))[1], own) for s in shifts)
                found.pop(zero, None)
                found = tuple(found)
                _DIGIT_SETS.store(source, r, found)
                return found

        def expand(frontier: list, members: set, succ: dict, cap: int) -> list:
            room, new = cap - len(members), []
            for v in frontier:
                r, w = step(v)
                succ[v] = w
                found = rows.get(r)
                if found is None:
                    found = row(r)
                if not found:
                    found = (w,)
                elif offsets:
                    found = [w] + [add_coords(w, c) for c in found]
                else:
                    front, last, tail = w[: d - 1], w[d - 1], w[d:]
                    found = [w] + [front + (add(last, c),) + tail for c in found]
                for w in found:
                    if w not in members:
                        members.add(w)
                        new.append(w)
                        room -= 1
                        if room < 0:
                            return new
            return new

        return expand

    return step, grow, run


# the largest base degree with straight-line kernels, past which (and for
# x-digits over Z[i] and F_p[y]) ``_build`` serves: at d = 8 a generated
# round costs 0.6x the generic one per member over Z and 0.8x over Z[i]
# (x^d + ... + x + 3 and x^d + ... + x + (1+2i) at cap 400, 2 vCPUs)
KERNEL_DEGREE = 8

# The straight-line T of one shape: the ring ("Z", "Z[i]", or "F2[y]" and
# "F_p[y]" for odd p), the base degree d, the sign of p0 over Z, and over
# Z whether x-digits are folded into the carry tables.  ``bind(ring,
# base, digit_set, offsets, reduce)`` returns one system's (step, grow,
# run) with the contract of ``_build``'s.  They keep a state's d
# coordinates in locals and read the carry, and the x-parts folded into
# it, from one table per coordinate, so each step is a dot product, one
# division and d lookups at most; over F_p[y] (one-byte slots) the
# division is one call of ``_divider``.  A state of another length (a
# residue part), a member whose row is not built yet and the closures of
# x-digits, whose rows are coordinate deltas, go to the generic kernels,
# which ``ring._generic`` makes on first need.  Only d and the shape
# flags are written into the source; every value of the system is an
# argument of ``bind``.
_TEMPLATE = """\
def bind(ring, base, digit_set, offsets, reduce):
{prologue:4}
    position, generic = digit_set.position, []

    def fallback():
        if not generic:
            generic.extend(ring._generic(base, digit_set, offsets, reduce))
        return generic

    def step(v):
        if len(v) != {d}:
            return fallback()[0](v)
        {unpack} = v
{divide:8}
        return r, {image}

    def run(v, count, checkpoint, emit):
        if len(v) != {d}:
            return fallback()[2](v, count, checkpoint, emit)
        {unpack} = v
        # a checkpoint with a residue part equals no state here
        {marks} = checkpoint if len(checkpoint) == {d} else {no_marks}
        for k in range(1, count + 1):
{divide:12}
            emit(position[r])
            {flat} = {flat_image}
            if {at_mark} or {at_zero}:
                return k, {state}
        return count, {state}

    def grow(source):
        if offsets:
            return fallback()[1](source)
        rows, one = source.rows, []

        def expand(frontier, members, succ, cap):
            room, new = cap - len(members), []
            for v in frontier:
                if len(v) == {d}:
                    {unpack} = v
{divide:20}
                    deltas = rows.get(r)
                    if deltas is not None:
                        {carry_out}
                        w = succ[v] = {round_image}
                        if w not in members:
                            members.add(w)
                            new.append(w)
                            room -= 1
                            if room < 0:
                                return new
                        for {delta} in deltas:
                            w = {shift_image}
                            if w not in members:
                                members.add(w)
                                new.append(w)
                                room -= 1
                                if room < 0:
                                    return new
                        continue
                # a residue part, or a residue whose row is not built yet
                if not one:
                    one.append(fallback()[1](source))
                new += one[0]([v], members, succ, cap)
                room = cap - len(members)
                if room < 0:
                    return new
            return new

        return expand

    return step, grow, run
"""


class _Lines(list):
    """Lines of generated code; ``{lines:k}`` in a template indents them by k."""

    def __format__(self, indent: str) -> str:
        return "\n".join(" " * int(indent) + line for line in self)


def _tuple(items: list) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


@functools.cache  # bounded by the shapes: 4 * KERNEL_DEGREE over Z, KERNEL_DEGREE each other kind
def _kernel(kind: str, d: int, down: bool = True, folded: bool = False):
    """The compiled ``bind`` of one shape (see ``_TEMPLATE``), compiled on
    first use under a file name that names the shape."""
    idx = range(d)
    namespace: dict = {}
    if kind == "Z":
        # coordinate i is a_i, with weight w_i = p_{d-i}
        flat = [f"a{i}" for i in idx]
        prologue = _Lines([f"n, {_tuple([f'w{i}' for i in idx])} = abs(base[0]), base[:0:-1]"])
        if folded:
            prologue += [
                f"carry, zero = digit_set.carry, (0,) * {d}",
                "parts = {r: offsets.get(r, zero) for r in carry}",
                *(f"t{i} = {{r: o[{i}] for r, o in parts.items()}}" for i in idx[:-1]),
                "last = {r: carry[r] + o[-1] for r, o in parts.items()}",
            ]
        else:
            prologue.append("last = digit_set.carry")
        divide = _Lines([f"q, r = divmod({' + '.join(f'a{i} * w{i}' for i in idx)}, n)"])
        moved = [f"a{i + 1} + t{i}[r]" if folded else f"a{i + 1}" for i in idx[:-1]]
        last = f"last[r] {'-' if down else '+'} q"
        unpack, flat_moved = _tuple(flat), moved + [last]
        carry_out, delta, round_last, shift = f"t = {last}", "c", "t", "t + c"
    elif kind == "Z[i]":
        # coordinate i is u_i = (a_i, b_i), with weight (w_i_r, w_i_i) =
        # p_{d-i}; images hold the pairs u_i themselves, not copies
        flat = [x for i in idx for x in (f"a{i}", f"b{i}")]
        prologue = _Lines([
            "(mr, mi), n = base[0], base[0].norm()",
            "bias, n2, carry = n - 1, 2 * n, digit_set.carry",
            f"{_tuple([f'(w{i}r, w{i}i)' for i in idx])} = base[:0:-1]",
        ])
        divide = _Lines([
            "cr = " + " + ".join(f"a{i} * w{i}r - b{i} * w{i}i" for i in idx),
            "ci = " + " + ".join(f"a{i} * w{i}i + b{i} * w{i}r" for i in idx),
            "qr = (2 * (cr * mr + ci * mi) + bias) // n2",
            "qi = (2 * (ci * mr - cr * mi) + bias) // n2",
            "r = (cr - qr * mr + qi * mi, ci - qr * mi - qi * mr)",
            "kr, ki = carry[r]",
        ])
        moved = [f"u{i + 1}" for i in idx[:-1]]
        unpack = _state(kind, flat) + (f" = {_tuple(['_'] + moved)}" if moved else "")
        flat_moved, last = flat[2:] + ["kr - qr", "ki - qi"], "(kr - qr, ki - qi)"
        carry_out, delta, round_last, shift = (
            "tr, ti = kr - qr, ki - qi", "dr, di", "(tr, ti)", "(tr + dr, ti + di)"
        )
    else:
        # coordinate i is the packed a_i, with weight w_i = p_{d-i}; the dot
        # product of one-byte slots is reduced and divided by -p0 (q = -q0)
        # with ``_divider``; the kernels of ``fppoly`` are read when a
        # system binds
        from . import fppoly

        namespace["fppoly"] = fppoly
        odd = kind != "F2[y]"
        flat = [f"a{i}" for i in idx]
        prologue = _Lines([
            f"p, carry, {_tuple([f'w{i}' for i in idx])} = ring.p, digit_set.carry, "
            "ring.atoms(base[:0:-1])",
            "add, fold = fppoly._add, fppoly._reduce",
            "divide = fppoly._divider(p, fppoly._sub(p, 0, base[0][1]))",
        ])
        divide = _Lines([f"r, q = divide(fold({' + '.join(f'a{i} * w{i}' for i in idx)}, p, 1))"])
        if odd:
            divide.append("k0 = carry[r]")
        moved = [f"a{i + 1}" for i in idx[:-1]]
        last = "add(p, k0, q) if k0 else q" if odd else "carry[r] ^ q"
        unpack, flat_moved = _tuple(flat), moved + [last]
        carry_out, delta, round_last = f"t = {last}", "c", "t"
        shift = "add(p, t, c)" if odd else "t ^ c"
    marks = [f"m{j}" for j in range(len(flat))]
    source = _TEMPLATE.format(
        d=d, prologue=prologue, divide=divide, unpack=unpack, image=_tuple(moved + [last]),
        carry_out=carry_out, round_image=_tuple(moved + [round_last]), delta=delta,
        shift_image=_tuple(moved + [shift]), state=_state(kind, flat),
        marks=_state(kind, marks), no_marks=_state(kind, ["None"] * len(flat)),
        flat=", ".join(flat), flat_image=", ".join(flat_moved),
        at_mark=" and ".join(f"{a} == {m}" for a, m in reversed(list(zip(flat, marks)))),
        at_zero=" and ".join(f"not {a}" for a in reversed(flat)),
    )
    flag = {"Z": " p0>0" if down else " p0<0", "F_p[y]": " p>2"}.get(kind, "")
    shape = f"{kind} d={d}{flag}"
    exec(compile(source, f"<T kernel {shape}{' x-digits' if folded else ''}>", "exec"), namespace)
    return namespace["bind"]


def _state(kind: str, flat: list) -> str:
    """The flat names as a state: one per coordinate, a pair over Z[i]."""
    if kind != "Z[i]":
        return _tuple(flat)
    return _tuple([f"({a}, {b})" for a, b in zip(flat[::2], flat[1::2])])


class Ring:
    """Interface shared by the three coefficient rings: what depends on
    the ring.  Values add, subtract, multiply and negate with their own
    operators, and are false exactly when zero."""

    name: str

    # -- canonical values ------------------------------------------------
    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def coerce(self, x):
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def euclid_value(self, a):
        """Euclidean value function; -inf at 0."""
        raise NotImplementedError

    # -- residue systems and division ------------------------------------
    def check_modulus(self, m) -> None:
        if not m:
            raise ValueError("zero modulus: the quotient ring is infinite")

    def quotient_size(self, m) -> int:
        raise NotImplementedError

    def residues(self, m) -> list:
        """A complete duplicate-free residue system mod m, in a fixed
        order; ``[zero]`` for a unit m."""
        raise NotImplementedError

    def divider(self, m):
        """Division by the fixed modulus m, the rings' only division:
        checks m once (ValueError for m = 0) and returns a -> (r, q) with
        a = r + q*m and r the member of residues(m) congruent to a.  m
        divides a exactly when r is zero; for a unit m, r is always zero
        and q = a/m."""
        raise NotImplementedError

    # -- the dynamics of a digit system ------------------------------------
    # Orbit walks and witness closures run T on tuples of atoms, the plain
    # form of ring values that hashes, compares and adds fastest: the
    # values themselves here (Z), int pairs over Z[i] and packed ints over
    # F_p[y], whose rings override both.  ``_build`` writes T out once;
    # each ring's ``dynamics`` supplies only its arithmetic on atoms.

    def atoms(self, values: tuple) -> tuple:
        """A tuple of ring values in atom form."""
        return values

    def values(self, atoms: tuple) -> tuple:
        """The ring values of a tuple of atoms; inverse of ``atoms``."""
        return atoms

    def dynamics(self, base: tuple, digit_set, offsets: dict, reduce):
        """T of a digit system on the atoms of flat coordinates, bound once
        per system: the ``(step, grow, run)`` of ``_build`` with this
        ring's arithmetic on atoms, ``grow`` the breadth-first round of
        closures and ``run`` the segment walker of single orbits; with d
        up to ``KERNEL_DEGREE`` the generated kernels of the system's
        shape (``_kernel``), bound in one call, where the ring has one.  ``base``
        holds the coefficients p_0, ..., p_d of the base in ring values,
        ``digit_set`` is the system's ``DigitSet``, ``offsets`` is that
        of ``_build``, in atoms, and ``reduce`` takes coordinates with
        an unreduced residue part to their reduced form."""
        raise NotImplementedError

    # -- text ------------------------------------------------------------
    def parse(self, text: str):
        sc = _Scanner(text)
        value = self.read(sc)
        sc.end()
        return value

    def read(self, sc: _Scanner):
        """The signed sum of terms at the cursor, up to the end or a ')'."""
        total = self.zero
        for sign, term in sc.terms(self.read_term, f"a term of {self.name}"):
            total = total + term if sign > 0 else total - term
        return total

    def read_term(self, sc: _Scanner):
        """The unsigned term at the cursor, taken, or None."""
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def sort_key(self, a) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerRing)

    def __hash__(self) -> int:
        return hash(self.name)

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)
        raise TypeError(f"cannot interpret {x!r} as an integer")

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def euclid_value(self, a):
        return NEG_INF if a == 0 else abs(a)

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return abs(m)

    def residues(self, m) -> list:
        """ValueError when the system has more than MAX_ENUMERATION members."""
        size = self.quotient_size(m)
        if size > MAX_ENUMERATION:
            raise ValueError(
                f"the residue system mod {m} has {size} members, "
                f"more than the enumeration limit {MAX_ENUMERATION}"
            )
        return list(range(size))

    def divider(self, m):
        self.check_modulus(m)
        n = abs(m)

        # a = r + q*|m| with 0 <= r < |m|, so q changes sign with m
        if m > 0:
            def divide(a):
                q, r = divmod(a, n)
                return r, q
        else:
            def divide(a):
                q, r = divmod(a, n)
                return r, -q

        return divide

    def dynamics(self, base: tuple, digit_set, offsets: dict, reduce):
        """The kernels of ``_kernel`` for d up to ``KERNEL_DEGREE`` and
        x-digits of d basis coordinates, which fold into the carry tables;
        else ``_build`` on ints."""
        d = len(base) - 1
        if d > KERNEL_DEGREE or offsets and any(len(o) != d for o in offsets.values()):
            return self._generic(base, digit_set, offsets, reduce)
        return _kernel("Z", d, base[0] > 0, bool(offsets))(self, base, digit_set, offsets, reduce)

    def _generic(self, base: tuple, digit_set, offsets: dict, reduce):
        """``_build`` on ints: c = r + q*|p0| by ``divmod``, and q0 is q, or
        -q for p0 < 0 (hence ``signed``)."""
        n, carry = abs(base[0]), digit_set.carry
        weights = tuple(reversed(base[1:])) + (1,)
        signed = operator.sub if base[0] > 0 else operator.add

        def head(v: tuple) -> tuple:
            q, r = divmod(sum(map(operator.mul, v, weights)), n)
            return r, signed(carry[r], q)

        return _build(self, base, digit_set, offsets, head, operator.add, operator.sub, reduce)

    read_term = staticmethod(_Scanner.unsigned)

    def format(self, a) -> str:
        return str(a)

    def sort_key(self, a) -> tuple:
        return (a,)


class GaussianIntegerRing(Ring):
    name = "Z[i]"

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussianIntegerRing)

    def __hash__(self) -> int:
        return hash(self.name)

    zero = GaussianInt(0, 0)
    one = GaussianInt(1, 0)

    def coerce(self, x):
        if isinstance(x, GaussianInt):
            return x
        if isinstance(x, int):
            return GaussianInt(int(x), 0)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian integer")

    def is_unit(self, a) -> bool:
        return a.norm() == 1

    def euclid_value(self, a):
        return NEG_INF if not a else a.norm()

    def quotient_size(self, m) -> int:
        self.check_modulus(m)
        return m.norm()

    def residues(self, m) -> list:
        """ValueError when the system has more than MAX_ENUMERATION members."""
        # divider(m) leaves the z with z/m in a half-open square of side 1
        # about 0, so |re|, |im| <= (|m.re| + |m.im|)/2: a box of area at
        # most 2N, scanned in (re, im) order
        size = self.quotient_size(m)
        if size > MAX_ENUMERATION:
            raise ValueError(
                f"the residue system mod {_format_gaussian(m)} has {size} members, "
                f"more than the enumeration limit {MAX_ENUMERATION}"
            )
        divide = self.divider(m)
        b = (abs(m.re) + abs(m.im)) // 2 + 1
        span = range(-b, b + 1)
        points = (GaussianInt(x, y) for x in span for y in span)
        out = [z for z in points if not divide(z)[1]]
        if len(out) != size:
            raise AssertionError("residue enumeration is incomplete")
        return out

    def divider(self, m):
        # q is a*conj(m)/N(m) with both parts rounded to the nearest
        # integer, ties toward -infinity: floor((2x + N - 1) / 2N)
        self.check_modulus(m)
        mr, mi = m
        n = m.norm()
        bias, n2 = n - 1, 2 * n

        def divide(a):
            ar, ai = a
            qr = (2 * (ar * mr + ai * mi) + bias) // n2
            qi = (2 * (ai * mr - ar * mi) + bias) // n2
            r = _new(GaussianInt, (ar - qr * mr + qi * mi, ai - qr * mi - qi * mr))
            return r, _new(GaussianInt, (qr, qi))

        return divide

    def atoms(self, values: tuple) -> tuple:
        return tuple(map(tuple, values))

    def values(self, atoms: tuple) -> tuple:
        return tuple(map(_gaussian, atoms))

    def dynamics(self, base: tuple, digit_set, offsets: dict, reduce):
        """The kernels of ``_kernel`` for a constant digit set and d up to
        ``KERNEL_DEGREE``, else ``_build`` on int pairs."""
        if len(base) - 1 > KERNEL_DEGREE or offsets:
            return self._generic(base, digit_set, offsets, reduce)
        return _kernel("Z[i]", len(base) - 1)(self, base, digit_set, offsets, reduce)

    def _generic(self, base: tuple, digit_set, offsets: dict, reduce):
        """``_build`` on int pairs (re, im): the dot product with the basis
        constants, the division by p0 (rounded as by ``divider``), the table
        lookups and the additions all unpack ints, and no GaussianInt is
        built or compared per step."""
        (mr, mi), carry = base[0], digit_set.carry
        n = mr * mr + mi * mi
        bias, n2 = n - 1, 2 * n
        atoms, values = self.atoms, self.values
        weights = atoms(tuple(reversed(base[1:])) + (self.one,))

        def head(v: tuple) -> tuple:
            cr = ci = 0
            for (a, b), (p, q) in zip(v, weights):
                cr += a * p - b * q
                ci += a * q + b * p
            qr = (2 * (cr * mr + ci * mi) + bias) // n2
            qi = (2 * (ci * mr - cr * mi) + bias) // n2
            r = (cr - qr * mr + qi * mi, ci - qr * mi - qi * mr)
            kr, ki = carry[r]
            return r, (kr - qr, ki - qi)

        def add(u: tuple, v: tuple) -> tuple:
            return (u[0] + v[0], u[1] + v[1])

        def sub(u: tuple, v: tuple) -> tuple:
            return (u[0] - v[0], u[1] - v[1])

        return _build(
            self, base, digit_set, offsets, head, add, sub, lambda q: atoms(reduce(values(q)))
        )

    def read_term(self, sc: _Scanner):
        """``digits``, ``digits i`` or ``i``."""
        n = sc.unsigned()
        if sc.peek() != "i":
            return None if n is None else GaussianInt(n, 0)
        sc.take()
        return GaussianInt(0, 1 if n is None else n)

    def format(self, a) -> str:
        return _format_gaussian(a)

    def sort_key(self, a) -> tuple:
        return (a.re, a.im)


Z = IntegerRing()
ZI = GaussianIntegerRing()

# F_p[y] builds on the Ring interface above; re-exported for callers that
# resolve it here
from .fppoly import Fp, FpPoly, FpPolynomialRing, _divider  # noqa: E402


def _clear_shared() -> None:
    """Empty the process-wide tables, the interned digit sets with their
    closure rows and the F_p[y] dividers, so that the next systems build
    theirs afresh.  Systems already built keep the digit sets and dividers
    they hold."""
    _DIGIT_SETS.clear()
    _divider.cache_clear()


def ring_from_name(name: str) -> Ring:
    """Resolve a CLI ring name: Z, Zi, or Fp:<prime>."""
    flat = name.strip()
    if flat.lower() == "z":
        return Z
    if flat.lower() in ("zi", "z[i]"):
        return ZI
    if flat.lower().startswith("fp:"):
        return Fp(int(flat[3:]))
    raise ValueError(f"unknown ring {name!r}; expected Z, Zi or Fp:<p>")
