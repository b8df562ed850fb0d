"""Sparse multivariate polynomials over exact rationals.

A :class:`RingContext` fixes an ordered variable roster.  The first
``geometric_count`` names are coordinate variables; the rest are formal
parameters.  Degree and homogeneity are always weighted so that
parameters count for zero: a monomial's degree is the sum of its exponents
over the coordinate block only.  This is what makes "homogeneous part of
degree k" meaningful for expressions whose coefficients are themselves
polynomials in the parameters.

Coefficients are exact rationals.  Floats are rejected at every entry
point; nothing in this package ever rounds.

Internal layout (read only by this module, :mod:`cmccheck.divide` and
:mod:`cmccheck.parse`):

* **Packed monomials.**  An exponent vector is one int with a bit field per
  variable, the first variable in the top field, so comparing the ints is
  the lex order.  A field is ``exponent_guard.bit_length() + 1`` bits wide:
  every in-guard exponent leaves the field's top ("guard") bit clear, and
  the sum of two in-guard exponents never carries into the next field.  So
  a product of monomials is one int addition; ``m - lead`` has a guard bit
  set exactly when some exponent of ``lead`` exceeds that of ``m`` (the
  borrow test); and an exponent above the guard is caught by adding
  ``guard bit - 1 - guard`` to each field and testing the guard bits.
  Below the variable fields, a monomial carries its geometric degree, read
  as ``m & _degree_mask``; monomials are built from ``_units`` (``1 <<
  shift``, plus 1 there for a geometric variable), so int arithmetic keeps
  it right.  Equal variable fields give equal degrees, so the lex order is
  unchanged and ``max(f._terms)`` is still the lex lead.  The degree field
  borrows only when ``deg(m) < deg(lead)``, and then some geometric field
  already borrows, so the borrow test holds.  The field is
  ``(geometric_count * exponent_guard).bit_length() + 1`` bits wide, so the
  degree of a product of two in-guard monomials never carries into the
  variable fields, which alone ``_lift`` and ``_borrow`` cover.
* **Integer coefficients.**  A polynomial holds integer numerators over one
  positive denominator, reduced so that the denominator and the numerators
  share no factor; that form is canonical, so equality compares dicts.
  ``Fraction`` is built only where a coefficient leaves through the public
  API (:meth:`Polynomial.terms`, :meth:`Polynomial.coefficient`, ...).
* **One accumulation loop.**  ``Polynomial._sum_of_products`` adds the term
  products of a whole sum of products into one dict; ``*`` (past its
  one-term shift), ``**``, ``substitute`` (past the terms that a variable
  bound to zero drops) and the package's sums of products all use it.
* **One summation loop.**  ``Polynomial._accumulate`` adds a term dict
  into numerators over a common denominator, growing it to the lcm and
  dropping what cancels; ``+`` and ``-`` (``_combine``), the constructor
  and the parser's sums all use it.
* **One term split.**  ``Polynomial._split`` groups terms by degree and
  x1-degree for the homogeneous parts and the replay's pieces.

The public API speaks exponent tuples and ``Fraction``.  It has no ``/``:
scale by a ``Fraction`` with ``*``, and divide by a polynomial with
:func:`cmccheck.divide.divide`.  Inside the package,
:mod:`cmccheck.divide` works on the packed ints with the private
``RingContext`` helpers ``_borrow`` and ``_check_packed``.
:func:`cmccheck.parse.parse_polynomial` folds a term's factors into one
packed monomial, kept carry-free with ``_check_packed`` after each product
and raised to powers by ``_term_power`` (the one-term path of ``**``), and
adds each sum's terms with ``Polynomial._accumulate`` before building it
once through ``Polynomial._from_ints``.
:func:`cmccheck.parse.to_text` renders straight from ``_terms`` and
``_den``, and alone decides the print order: lex for a context with
parameters, grevlex for one without.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_ as _or
from typing import (
    Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence, Union,
)

Rational = Union[int, Fraction]

#: Degree reported for the zero polynomial.  Comparable with ints, so
#: callers can write ``f.total_degree() <= 2`` without special-casing zero.
NEG_INF = -math.inf

#: Per-variable exponent cap.  Exponents are unbounded in principle; the
#: guard exists to turn runaway symbolic blowups into a clean error instead
#: of an out-of-memory kill.
DEFAULT_EXPONENT_GUARD = 2**16 - 1

#: Cap on a power's coefficient size in bits, bounded before the power is
#: formed by the exponent times the bit length of the base's largest
#: numerator or of its denominator.  The guard above bounds exponents only.
MAX_POWER_BITS = 2**20

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class RingError(ValueError):
    """Base class for ring usage errors."""


class ContextMismatchError(RingError):
    """Operands belong to different ring contexts."""


class UnknownVariableError(RingError):
    """A variable name is not declared in the ring context."""


class ExponentLimitError(RingError):
    """An operation produced an exponent above the context guard."""


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int or Fraction, rejecting floats outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise RingError(
        f"expected an exact rational (int or Fraction), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class RingContext:
    """Ordered variable roster with a geometric/parameter split.

    The roster fixes the print order: a context with parameters prints in
    lex (first declared variable most significant), one without in
    grevlex.  Leading terms and division always use lex.
    """

    variables: tuple[str, ...]
    geometric_count: int
    exponent_guard: int = DEFAULT_EXPONENT_GUARD

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        for name in self.variables:
            if not _NAME_RE.match(name):
                raise RingError(f"invalid variable name: {name!r}")
        if len(set(self.variables)) != len(self.variables):
            raise RingError("duplicate variable names in ring context")
        if not 0 <= self.geometric_count <= len(self.variables):
            raise RingError("geometric_count out of range")
        if self.exponent_guard < 1:
            raise RingError("exponent guard must be positive")
        # The packed layout.  These are plain attributes, not dataclass
        # fields, so they take no part in equality, hashing or repr.
        g, width = self.geometric_count, self.exponent_guard.bit_length() + 1
        # The geometric degree fills the ``low`` bits below the variable
        # fields: a geometric variable's unit adds 1 there, a parameter's 0.
        low = (g * self.exponent_guard).bit_length() + 1
        nvars = len(self.variables)
        shifts = tuple(low + width * (nvars - 1 - i) for i in range(nvars))
        ones = sum(1 << s for s in shifts)
        guard_bit = 1 << (width - 1)
        layout = {
            "_index": {name: i for i, name in enumerate(self.variables)},
            "_shifts": shifts,
            "_units": tuple((1 << s) + (i < g) for i, s in enumerate(shifts)),
            "_mask": (1 << width) - 1,
            "_degree_mask": (1 << low) - 1,
            "_ones": ones,
            "_borrow": ones * guard_bit,
            "_lift": ones * (guard_bit - 1 - self.exponent_guard),
        }
        for attr, value in layout.items():
            object.__setattr__(self, attr, value)

    @classmethod
    def geometric(cls, n: int) -> "RingContext":
        """Context with coordinate variables x1..xn and no parameters, so
        printed in grevlex."""
        if n < 1:
            raise RingError("need at least one variable")
        return cls(tuple(f"x{i}" for i in range(1, n + 1)), n)

    @classmethod
    def with_parameters(
        cls, geometric: Sequence[str], parameters: Sequence[str]
    ) -> "RingContext":
        """Context with the given coordinates, then parameters; printed in
        lex, or in grevlex if ``parameters`` is empty."""
        return cls(tuple(geometric) + tuple(parameters), len(geometric))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def geometric_variables(self) -> tuple[str, ...]:
        return self.variables[: self.geometric_count]

    @property
    def parameters(self) -> tuple[str, ...]:
        return self.variables[self.geometric_count :]

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownVariableError(
                f"variable {name!r} is not declared in this ring context"
            ) from None

    # ------------------------------------------------------------------
    # packed monomials (see the module docstring)

    def _pack(self, mono: Sequence[int]) -> int:
        """Packed form of an exponent tuple, checked for its length,
        non-negative int exponents and the guard."""
        mono = tuple(mono)
        if len(mono) != self.nvars:
            raise RingError(
                f"monomial has {len(mono)} exponents, context declares {self.nvars}"
            )
        for e in mono:
            if not isinstance(e, int) or e < 0:
                raise RingError(f"exponents must be non-negative integers: {mono}")
            if e > self.exponent_guard:
                raise ExponentLimitError(
                    f"exponent {e} exceeds guard {self.exponent_guard}"
                )
        return sum(e * u for e, u in zip(mono, self._units))

    def _unpack(self, m: int) -> tuple[int, ...]:
        mask = self._mask
        return tuple((m >> s) & mask for s in self._shifts)

    def _field(self, m: int, i: int) -> int:
        return (m >> self._shifts[i]) & self._mask

    def _check_packed(self, m: int) -> None:
        """Raise ExponentLimitError if a field of ``m`` (at most twice the
        guard, as in a sum of two in-guard monomials) exceeds the guard."""
        if (m + self._lift) & self._borrow:
            self._pack(self._unpack(m))

    def _check_all_packed(self, monos: Collection[int]) -> None:
        # Each ``m + lift`` is carry-free, so OR-ing them keeps every
        # guard bit that any one of them sets.
        if reduce(_or, map(self._lift.__add__, monos), 0) & self._borrow:
            for m in monos:
                self._check_packed(m)


def _check_power_bits(exponent: int, largest: int) -> None:
    """Refuse a power whose coefficients would pass ``MAX_POWER_BITS``,
    given the base's largest numerator or denominator."""
    bits = largest.bit_length()
    if exponent * bits > MAX_POWER_BITS:
        raise ExponentLimitError(
            f"power {exponent} of a {bits}-bit coefficient exceeds the "
            f"{MAX_POWER_BITS}-bit coefficient cap"
        )


def _term_power(
    ctx: RingContext, m: int, c: int, den: int, exponent: int
) -> tuple[int, int, int]:
    """``(c/den * m) ** exponent`` for one term in lowest terms, as
    ``(monomial, numerator, denominator)``.  The exponents are checked
    against the guard before they are scaled, so no field can carry; then
    the coefficient is checked against the cap."""
    if exponent > 1:
        # ``_check_packed``'s test at the bound ``guard // exponent``: a
        # field above it passes the guard once scaled, and ``_pack`` raises
        # the guard's error for it.
        lift = ctx._ones * (ctx._mask // 2 - ctx.exponent_guard // exponent)
        if (m + lift) & ctx._borrow:
            ctx._pack([e * exponent for e in ctx._unpack(m)])
    _check_power_bits(exponent, max(den, abs(c)))
    return m * exponent, c**exponent, den**exponent


class Polynomial:
    """Immutable sparse polynomial over a fixed :class:`RingContext`.

    Terms are stored as a dict from packed monomials to nonzero integer
    numerators, over one positive denominator (see the module docstring).
    That form is canonical, so two polynomials are equal iff their contexts,
    term dicts and denominators are; all iteration that reaches output is
    sorted, so printing and serialization are deterministic.
    """

    __slots__ = ("ctx", "_terms", "_den")

    def __init__(
        self,
        ctx: RingContext,
        terms: Union[Mapping[tuple[int, ...], Rational], Iterable] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc, den = {}, 1
        for mono, coeff in items:
            m, c = ctx._pack(mono), as_fraction(coeff)
            if not c:
                continue
            acc, den = self._accumulate(acc, den, {m: c.numerator}, c.denominator, 1)
        poly = Polynomial._from_ints(ctx, acc, den)
        self.ctx, self._terms, self._den = ctx, poly._terms, poly._den

    @classmethod
    def _from_ints(
        cls, ctx: RingContext, terms: dict[int, int], den: int = 1
    ) -> "Polynomial":
        """Wrap nonzero numerators over a nonzero ``den``, reducing to the
        canonical form (positive denominator coprime to the numerators)."""
        if den != 1:
            if den < 0:
                den = -den
                terms = {m: -c for m, c in terms.items()}
            g = math.gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {m: c // g for m, c in terms.items()}
        poly = cls.__new__(cls)
        poly.ctx = ctx
        poly._terms = terms
        poly._den = den
        return poly

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, ctx: RingContext) -> "Polynomial":
        return cls._from_ints(ctx, {})

    @classmethod
    def constant(cls, ctx: RingContext, value: Rational) -> "Polynomial":
        value = as_fraction(value)
        if not value:
            return cls.zero(ctx)
        return cls._from_ints(ctx, {0: value.numerator}, value.denominator)

    @classmethod
    def one(cls, ctx: RingContext) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx: RingContext, name: str) -> "Polynomial":
        return cls._from_ints(ctx, {ctx._units[ctx.index(name)]: 1})

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _fraction(self, c: int) -> Fraction:
        return Fraction(c) if self._den == 1 else Fraction(c, self._den)

    def coefficient(self, mono: Sequence[int]) -> Fraction:
        try:
            m = self.ctx._pack(mono)
        except ExponentLimitError:
            # No stored monomial lies above the guard.
            return Fraction(0)
        return self._fraction(self._terms.get(m, 0))

    def monomials(self) -> Iterator[tuple[int, ...]]:
        return map(self.ctx._unpack, self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        unpack, frac = self.ctx._unpack, self._fraction
        return ((unpack(m), frac(c)) for m, c in self._terms.items())

    def total_degree(self) -> Union[int, float]:
        """Geometric-weighted total degree; NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(map(self.ctx._degree_mask.__and__, self._terms))

    def degree_in(self, name: str) -> Union[int, float]:
        i = self.ctx.index(name)
        if not self._terms:
            return NEG_INF
        return max(self.ctx._field(m, i) for m in self._terms)

    def _split(self, key: Callable[[int, int], object]) -> dict:
        """The terms grouped by ``key(degree, x1-degree)`` in one pass, one
        polynomial per group, without the terms keyed ``None``; x1 is the
        first variable, in the top field."""
        ctx, terms = self.ctx, self._terms
        top = ctx._shifts[0] if ctx._shifts else 0
        split: dict = {}
        degree = ctx._degree_mask.__and__
        keys = map(key, map(degree, terms), map(top.__rrshift__, terms))
        for (m, c), g in zip(terms.items(), keys):
            if g is not None:
                split.setdefault(g, {})[m] = c
        return {g: Polynomial._from_ints(ctx, t, self._den) for g, t in split.items()}

    def homogeneous_part(self, k: int) -> "Polynomial":
        """Sum of terms of geometric-weighted degree exactly ``k``."""
        part = self._split(lambda d, e: True if d == k else None)
        return part.get(True) or Polynomial.zero(self.ctx)

    def homogeneous_parts(self) -> dict[int, "Polynomial"]:
        """The nonzero homogeneous parts keyed by degree, ascending, split
        in one pass; ``{}`` for the zero polynomial."""
        return dict(sorted(self._split(lambda d, e: d).items()))

    def high_part(self, k: int) -> "Polynomial":
        """Sum of terms of geometric-weighted degree strictly above ``k``.

        ``(a - b).high_part(k).is_zero`` is the congruence test
        "a equals b modulo terms of degree at most k".
        """
        part = self._split(lambda d, e: True if d > k else None)
        return part.get(True) or Polynomial.zero(self.ctx)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> Optional["Polynomial"]:
        if isinstance(other, Polynomial):
            if other.ctx != self.ctx:
                raise ContextMismatchError(
                    "operands belong to different ring contexts"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.ctx, other)
        if isinstance(other, float):
            # Reject loudly rather than falling back to NotImplemented.
            as_fraction(other)
        return None

    @staticmethod
    def _accumulate(acc: dict, den: int, terms: Mapping, d: int, sign: int) -> tuple:
        """Add ``sign * terms / d`` into the numerators ``acc`` over ``den``
        and drop what cancels; returns ``(acc, den)``.  ``acc`` changes in
        place unless ``den`` grows to the lcm.  ``terms`` holds no zero."""
        if den % d:
            grown = math.lcm(den, d)
            acc, den = {m: c * (grown // den) for m, c in acc.items()}, grown
        scale = sign * (den // d)
        get = acc.get
        for m, c in terms.items():
            c = get(m, 0) + c * scale
            if c:
                acc[m] = c
            else:
                del acc[m]
        return acc, den

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """``self + sign * other`` over the lcm of the two denominators."""
        args = dict(self._terms), self._den, other._terms, other._den, sign
        return Polynomial._from_ints(self.ctx, *Polynomial._accumulate(*args))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints(
            self.ctx, {m: -c for m, c in self._terms.items()}, self._den
        )

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            scale = as_fraction(other)
            if not scale:
                return Polynomial.zero(self.ctx)
            p = scale.numerator
            return Polynomial._from_ints(
                self.ctx,
                {m: c * p for m, c in self._terms.items()},
                self._den * scale.denominator,
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ta, tb = self._terms, other._terms
        if len(ta) > len(tb):
            ta, tb = tb, ta
        if len(ta) == 1:
            # A one-term operand shifts the other: distinct sums, no zeros.
            [(m1, n1)] = ta.items()
            shifted = {m1 + m: n1 * c for m, c in tb.items()}
            self.ctx._check_all_packed(shifted)
            return Polynomial._from_ints(self.ctx, shifted, self._den * other._den)
        return Polynomial._sum_of_products(self.ctx, ((self, other),))

    __rmul__ = __mul__

    @staticmethod
    def _sum_of_products(ctx: RingContext, pairs: Sequence) -> "Polynomial":
        """``sum(a * b for a, b in pairs)`` over the lcm of their denominators;
        a pair ``(p, p)`` forms each cross product once, doubled."""
        den = math.lcm(*[a._den * b._den for a, b in pairs])
        acc: dict[int, int] = {}
        get = acc.get
        for a, b in pairs:
            # A monomial product is one int addition and a coefficient
            # product one int multiplication, scaled to the common ``den``.
            scale = den // (a._den * b._den)
            ta, tb = a._terms, b._terms
            if len(ta) > len(tb):
                ta, tb = tb, ta
            inner = list(tb.items())
            if ta is tb:
                for i, (m1, n1) in enumerate(inner):
                    c1 = n1 * scale
                    acc[m1 + m1] = get(m1 + m1, 0) + c1 * n1
                    c1 += c1
                    for m2, n2 in inner[i + 1 :]:
                        m = m1 + m2
                        acc[m] = get(m, 0) + c1 * n2
            else:
                for m1, n1 in ta.items():
                    n1 *= scale
                    for m2, n2 in inner:
                        m = m1 + m2
                        acc[m] = get(m, 0) + n1 * n2
        for m in [m for m, v in acc.items() if not v]:
            del acc[m]
        ctx._check_all_packed(acc)
        return Polynomial._from_ints(ctx, acc, den)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise RingError("polynomial powers take non-negative integer exponents")
        if len(self._terms) == 1:
            [(m, c)] = self._terms.items()
            m, c, den = _term_power(self.ctx, m, c, self._den, exponent)
            return Polynomial._from_ints(self.ctx, {m: c}, den)
        _check_power_bits(exponent, max((self._den, *map(abs, self._terms.values()))))
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return Polynomial.one(self.ctx) if result is None else result

    def _derivative(self, i: int) -> "Polynomial":
        """Partial derivative in the ``i``-th variable."""
        ctx = self.ctx
        unit = ctx._units[i]
        terms = {}
        for m, c in self._terms.items():
            e = ctx._field(m, i)
            if e:
                terms[m - unit] = c * e
        return Polynomial._from_ints(ctx, terms, self._den)

    def _at(self, point: Sequence[int]) -> Rational:
        """The value at ``point``, one int per variable in context order;
        an int when the denominator is 1.  Each monomial is read one nonzero
        field at a time, as ``to_text`` reads it, and each field's power is
        formed once per call."""
        ctx, total, powers = self.ctx, 0, {}
        width, low = ctx._mask.bit_length(), ctx._degree_mask.bit_length()
        values = tuple(point)[::-1]
        for m, c in self._terms.items():
            m >>= low
            while m:
                shift = m.bit_length() - 1
                shift -= shift % width
                field = m >> shift << shift
                power = powers.get(field)
                if power is None:
                    power = powers[field] = values[shift // width] ** (field >> shift)
                c *= power
                m -= field
            total += c
        return total if self._den == 1 else Fraction(total, self._den)

    # ------------------------------------------------------------------
    # substitution

    def substitute(
        self, bindings: Mapping[str, Union["Polynomial", Rational]]
    ) -> "Polynomial":
        """Replace bound variables; unbound ones pass through unchanged.

        Values may be rationals or polynomials over this same context; a
        polynomial from another context, a sub-context included, raises
        ContextMismatchError.  Unknown variable names are an error.
        """
        ctx = self.ctx
        # A term that holds a variable bound to zero vanishes: one mask test
        # drops it.  Every other value is a polynomial, each power of it
        # formed once, and the terms' products go through one kernel call.
        zeros = 0
        polys: dict[int, Polynomial] = {}
        for name, value in bindings.items():
            i = ctx.index(name)
            if not isinstance(value, Polynomial):
                value = Polynomial.constant(ctx, value)
            if self._coerce(value):
                polys[i] = value
            else:
                zeros |= ctx._mask << ctx._shifts[i]
        kept = {m: c for m, c in self._terms.items() if not m & zeros}
        if not polys:
            return Polynomial._from_ints(ctx, kept, self._den)
        one = Polynomial.one(ctx)
        cache: dict[tuple[int, int], Polynomial] = {}
        pairs = []
        for mono, coeff in kept.items():
            factor = one
            for i, val in polys.items():
                e = ctx._field(mono, i)
                if e:
                    mono -= e * ctx._units[i]
                    piece = cache.get((i, e))
                    if piece is None:
                        piece = val**e
                        cache[(i, e)] = piece
                    factor = piece if factor is one else factor * piece
            term = Polynomial._from_ints(ctx, {mono: coeff}, self._den)
            pairs.append((term, factor))
        return Polynomial._sum_of_products(ctx, pairs)

    # ------------------------------------------------------------------
    # equality, hashing, display

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return (
                self.ctx == other.ctx
                and self._den == other._den
                and self._terms == other._terms
            )
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.ctx, other)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its Fraction value, so it must hash like it.
        if self._terms.keys() <= {0}:
            return hash(self._fraction(self._terms.get(0, 0)))
        return hash((self.ctx, self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        from .parse import to_text

        return to_text(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
