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
* a whitespace-insensitive text grammar with ``parse``/``format``
  round-tripping,
* the arithmetic of the map T of a digit system on the *atoms* of the
  values (``atoms``/``values``), ``dynamics``: the one T of ``_build``,
  bound once per system, calls it on flat coordinates.

``Ring.divider(m)`` checks a nonzero modulus once and returns
``a -> (r, q)`` with ``a = r + q*m`` and ``r`` in ``residues(m)``, so
loops that divide by one modulus (a base's p0 or leading coefficient)
skip that check, and ``Z[i]`` rounds on plain ints.  An exact quotient
is the ``q`` of a zero ``r``; dividing by a unit always gives one.

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


def bounded_exponent(digits: str, text: str, pos: int) -> int:
    """The value of a decimal exponent; ParseError above MAX_EXPONENT."""
    value = digits.lstrip("0") or "0"
    if len(value) > len(str(MAX_EXPONENT)) or int(value) > MAX_EXPONENT:
        raise ParseError(f"exponent above the maximum {MAX_EXPONENT}", text, pos)
    return int(value)


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
    """Whitespace-skipping cursor over a source string."""

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

    def done(self) -> bool:
        return self.pos >= len(self.text)

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def integer(self) -> int:
        at = self.pos
        m = _re.compile(r"-?\d+").match(self.text, at)
        if not m:
            raise self.error("expected an integer")
        self.pos = m.end()
        self.skip()
        return self._int(m.group(), at)

    def digits(self) -> str:
        m = _re.compile(r"\d+").match(self.text, self.pos)
        if not m:
            raise self.error("expected digits")
        self.pos = m.end()
        self.skip()
        return m.group()

    def unsigned(self) -> int:
        at = self.pos
        return self._int(self.digits(), at)

    def _int(self, literal: str, at: int) -> int:
        # int() refuses literals beyond the interpreter's digit limit
        # (sys.get_int_max_str_digits)
        try:
            return int(literal)
        except ValueError:
            raise ParseError(
                f"integer literal of {len(literal)} characters is too long", self.text, at
            ) from None

    def sign(self) -> int:
        if self.peek() == "+":
            self.take()
            return 1
        if self.peek() == "-":
            self.take()
            return -1
        return 1


def _fold(carry: dict, offsets: dict, d: int, zero) -> list | None:
    """Per basis coordinate i < d, r -> coordinate i of r's x-part offset, plus
    carry[r] on the last: the straight-line tables (None for a residue part).
    A constant digit set has no x-parts, so its last table is ``carry`` and
    the others, all 0, are None and never read."""
    if not offsets:
        return [None] * (d - 1) + [carry]
    if any(len(o) != d for o in offsets.values()):
        return None
    tables = [{r: offsets[r][i] if r in offsets else zero for r in carry} for i in range(d - 1)]
    return tables + [{r: k + offsets[r][-1] if r in offsets else k for r, k in carry.items()}]


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
    and fill rows without a lock; only the bookkeeping takes one."""

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
        """Put ``row`` at residue ``r`` of the rows of ``digit_set``."""
        if digit_set.rows.setdefault(r, row) is not row:
            return  # another closure stored the same row first
        with self._lock:
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


def _build(ring, base: tuple, digit_set, offsets: dict, head, add, sub, settle, straight=None):
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
      difference of reduced ones to their reduced form;
    * ``straight(step, grow, run)``, if given, returns a straight-line
      ``step``, ``grow`` and ``run`` over Z with d = 1, 2 and Z[i] with
      d = 1 (with d = 2 only ``grow``), which pass a state to the generic
      ones given unless it has exactly d coordinates: the carry is looked
      up in the tables into which ``_fold`` folds the x-parts, and the
      loops keep the state in locals.

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
      it, so the straight loops make no Python call per step.

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

    if straight is not None:
        step, grow, run = straight(step, grow, run)

    return step, grow, run


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
        closures and ``run`` the segment walker of single orbits.
        ``base`` holds the coefficients p_0, ..., p_d of the base in ring
        values, ``digit_set`` is the system's ``DigitSet``, ``offsets`` is
        that of ``_build``, in atoms, and ``reduce`` takes coordinates with
        an unreduced residue part to their reduced form."""
        raise NotImplementedError

    # -- text ------------------------------------------------------------
    def parse(self, text: str):
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
        """``_build`` on ints.  c = r + q*|p0| by ``divmod``, and q0 is q, or
        -q for p0 < 0 (hence ``signed``).  With d = 1, 2 a state of exactly
        d coordinates takes a straight-line step, and ``run`` a loop that
        keeps them in locals and picks the sign of q0 inline; so does the
        closure round of a constant digit set for each member."""
        d, n = len(base) - 1, abs(base[0])
        carry, position = digit_set.carry, digit_set.position
        weights = tuple(reversed(base[1:])) + (1,)
        down = base[0] > 0
        signed = operator.sub if down else operator.add

        def head(v: tuple) -> tuple:
            q, r = divmod(sum(map(operator.mul, v, weights)), n)
            return r, signed(carry[r], q)

        tables = _fold(carry, offsets, d, 0) if d <= 2 else None
        shifted = bool(offsets)  # else no first table: the x-parts are all 0

        def straight(generic, generic_grow, generic_run):
            first, last = tables[0], tables[-1]
            p1, p2 = base[1], base[-1]
            if d == 1:
                def step(v: tuple) -> tuple:
                    if len(v) != 1:
                        return generic(v)
                    q, r = divmod(v[0] * p1, n)
                    return r, (signed(last[r], q),)

                def run(v: tuple, count: int, checkpoint: tuple, emit) -> tuple:
                    if len(v) != 1:
                        return generic_run(v, count, checkpoint, emit)
                    (a,) = v
                    # a checkpoint with a residue part equals no state here
                    (c,) = checkpoint if len(checkpoint) == 1 else (None,)
                    for k in range(1, count + 1):
                        q, r = divmod(a * p1, n)
                        emit(position[r])
                        a = last[r] - q if down else last[r] + q
                        if a == c or not a:
                            return k, (a,)
                    return count, (a,)
            else:
                def step(v: tuple) -> tuple:
                    if len(v) != 2:
                        return generic(v)
                    a, b = v
                    q, r = divmod(a * p2 + b * p1, n)
                    return r, (b + first[r] if shifted else b, signed(last[r], q))

                def run(v: tuple, count: int, checkpoint: tuple, emit) -> tuple:
                    if len(v) != 2:
                        return generic_run(v, count, checkpoint, emit)
                    a, b = v
                    ca, cb = checkpoint if len(checkpoint) == 2 else (None, None)
                    for k in range(1, count + 1):
                        q, r = divmod(a * p2 + b * p1, n)
                        emit(position[r])
                        a, b = b + first[r] if shifted else b, last[r] - q if down else last[r] + q
                        if b == cb and a == ca or not b and not a:
                            return k, (a, b)
                    return count, (a, b)

            def grow(source):
                expand_one, rows = generic_grow(source), source.rows

                def expand(frontier: list, members: set, succ: dict, cap: int) -> list:
                    room, new = cap - len(members), []
                    for v in frontier:
                        if len(v) == d:
                            if d == 1:
                                front = ()
                                q, r = divmod(v[0] * p1, n)
                            else:
                                a, b = v
                                front = (b,)
                                q, r = divmod(a * p2 + b * p1, n)
                            deltas = rows.get(r)
                            if deltas is not None:
                                t = last[r] - q if down else last[r] + q
                                w = succ[v] = front + (t,)
                                if w not in members:
                                    members.add(w)
                                    new.append(w)
                                    room -= 1
                                    if room < 0:
                                        return new
                                for c in deltas:
                                    w = front + (t + c,)
                                    if w not in members:
                                        members.add(w)
                                        new.append(w)
                                        room -= 1
                                        if room < 0:
                                            return new
                                continue
                        # a residue part, or a residue whose row is not built yet
                        new += expand_one([v], members, succ, cap)
                        room = cap - len(members)
                        if room < 0:
                            return new
                    return new

                return expand

            # the rows of a digit set that is not constant are coordinate deltas
            return step, generic_grow if shifted else grow, run

        return _build(
            self, base, digit_set, offsets, head, operator.add, operator.sub, reduce,
            None if tables is None else straight,
        )

    def parse(self, text: str):
        sc = _Scanner(text)
        value = sc.integer()
        if not sc.done():
            raise sc.error("trailing characters after integer")
        return value

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
        """``_build`` on int pairs (re, im): the dot product with the basis
        constants, the division by p0 (rounded as by ``divider``), the table
        lookups and the additions all unpack ints, and no GaussianInt is
        built or compared per step.  With d = 1 and constant digits, a state
        of one coordinate takes a straight-line step, and ``run`` a loop
        that keeps its two ints in locals; with d = 1, 2 the closure round
        of a constant digit set does the same for each member."""
        d, (mr, mi) = len(base) - 1, base[0]
        carry, position = digit_set.carry, digit_set.position
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

        def straight(generic, generic_grow, generic_run):
            # the constant coefficients of w_0 and w_{d-1}: p_d and p_1
            (pr, pi), (sr, si) = weights[0], weights[d - 1]
            if d == 1:
                def step(v: tuple) -> tuple:
                    if len(v) != 1:
                        return generic(v)
                    ((a, b),) = v
                    cr, ci = a * pr - b * pi, a * pi + b * pr
                    qr = (2 * (cr * mr + ci * mi) + bias) // n2
                    qi = (2 * (ci * mr - cr * mi) + bias) // n2
                    r = (cr - qr * mr + qi * mi, ci - qr * mi - qi * mr)
                    kr, ki = carry[r]
                    return r, ((kr - qr, ki - qi),)

                def run(v: tuple, count: int, checkpoint: tuple, emit) -> tuple:
                    if len(v) != 1:
                        return generic_run(v, count, checkpoint, emit)
                    ((a, b),) = v
                    # a checkpoint with a residue part equals no state here
                    ((ca, cb),) = checkpoint if len(checkpoint) == 1 else ((None, None),)
                    for k in range(1, count + 1):
                        cr, ci = a * pr - b * pi, a * pi + b * pr
                        qr = (2 * (cr * mr + ci * mi) + bias) // n2
                        qi = (2 * (ci * mr - cr * mi) + bias) // n2
                        r = (cr - qr * mr + qi * mi, ci - qr * mi - qi * mr)
                        emit(position[r])
                        kr, ki = carry[r]
                        a, b = kr - qr, ki - qi
                        if a == ca and b == cb or not a and not b:
                            return k, ((a, b),)
                    return count, ((a, b),)
            else:
                step, run = generic, generic_run

            def grow(source):
                expand_one, rows = generic_grow(source), source.rows

                def expand(frontier: list, members: set, succ: dict, cap: int) -> list:
                    room, new = cap - len(members), []
                    for v in frontier:
                        if len(v) == d:
                            if d == 1:
                                front = ()
                                ((a, b),) = v
                                cr, ci = a * pr - b * pi, a * pi + b * pr
                            else:
                                (a, b), low = v
                                front = (low,)
                                c, e = low
                                cr = a * pr - b * pi + c * sr - e * si
                                ci = a * pi + b * pr + c * si + e * sr
                            qr = (2 * (cr * mr + ci * mi) + bias) // n2
                            qi = (2 * (ci * mr - cr * mi) + bias) // n2
                            r = (cr - qr * mr + qi * mi, ci - qr * mi - qi * mr)
                            deltas = rows.get(r)
                            if deltas is not None:
                                kr, ki = carry[r]
                                kr -= qr
                                ki -= qi
                                w = succ[v] = front + ((kr, ki),)
                                if w not in members:
                                    members.add(w)
                                    new.append(w)
                                    room -= 1
                                    if room < 0:
                                        return new
                                for dr, di in deltas:
                                    w = front + ((kr + dr, ki + di),)
                                    if w not in members:
                                        members.add(w)
                                        new.append(w)
                                        room -= 1
                                        if room < 0:
                                            return new
                                continue
                        # a residue part, or a residue whose row is not built yet
                        new += expand_one([v], members, succ, cap)
                        room = cap - len(members)
                        if room < 0:
                            return new
                    return new

                return expand

            return step, grow, run

        # x-parts over Z[i] are not folded: only constant sets go straight
        return _build(
            self, base, digit_set, offsets, head, add, sub,
            lambda q: atoms(reduce(values(q))),
            straight if d <= 2 and not offsets else None,
        )

    def parse(self, text: str):
        sc = _Scanner(text)
        total = GaussianInt(0, 0)
        first = True
        while True:
            if sc.done():
                if first:
                    raise sc.error("empty Gaussian integer")
                break
            sign = sc.sign()
            if not first and sign == 1 and sc.peek() not in "0123456789i":
                raise sc.error("expected '+' or '-'")
            if sc.peek() == "i":
                sc.take()
                total = total + GaussianInt(0, sign)
            else:
                mag = sc.unsigned() if sc.peek().isdigit() else None
                if mag is None:
                    raise sc.error("expected digits or 'i'")
                if sc.peek() == "i":
                    sc.take()
                    total = total + GaussianInt(0, sign * mag)
                else:
                    total = total + GaussianInt(sign * mag, 0)
            first = False
        return total

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
