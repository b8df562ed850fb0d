"""Sparse multivariate polynomials over exact rationals.

A :class:`RingContext` fixes an ordered variable roster.  The first
``geometric_count`` names are coordinate variables; the rest are formal
parameters.  Degree, homogeneity and valuation are always weighted so that
parameters count for zero: a monomial's degree is the sum of its exponents
over the coordinate block only.  This is what makes "homogeneous part of
degree k" meaningful for expressions whose coefficients are themselves
polynomials in the parameters.

Coefficients are stored as :class:`fractions.Fraction`.  Floats are
rejected at every entry point; nothing in this package ever rounds.
Products and division clear a polynomial's coefficients to integer
numerators over one common denominator (``Polynomial._integer_terms``),
do their arithmetic on ints, and build each ``Fraction`` of the result
once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add, neg as _neg
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Rational = Union[int, Fraction]

#: Degree reported for the zero polynomial.  Comparable with ints, so
#: callers can write ``f.total_degree() <= 2`` without special-casing zero.
NEG_INF = -math.inf

#: Valuation reported for the zero polynomial (vacuous minimum).
POS_INF = math.inf

#: Per-variable exponent cap.  Exponents are unbounded in principle; the
#: guard exists to turn runaway symbolic blowups into a clean error instead
#: of an out-of-memory kill.
DEFAULT_EXPONENT_GUARD = 2**16 - 1

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


def grevlex_key(mono: tuple[int, ...]) -> tuple:
    """Ascending sort key for graded reverse lexicographic order."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def lex_key(mono: tuple[int, ...]) -> tuple:
    """Ascending sort key for lexicographic order, first variable heaviest."""
    return mono


_ORDER_KEYS = {"grevlex": grevlex_key, "lex": lex_key}

# Descending keys (each component of the ascending key negated), so that a
# min-heap pops the leading monomial first.
_DESC_KEYS = {
    "grevlex": lambda mono: (-sum(mono), mono[::-1]),
    "lex": lambda mono: tuple(map(_neg, mono)),
}


@dataclass(frozen=True)
class RingContext:
    """Ordered variable roster with a geometric/parameter split.

    ``order`` names the monomial order used for printing and as the
    division default: ``"lex"`` (first declared variable most significant)
    or ``"grevlex"``.
    """

    variables: tuple[str, ...]
    geometric_count: int
    order: str = "grevlex"
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
        if self.order not in _ORDER_KEYS:
            raise RingError(f"unknown monomial order: {self.order!r}")
        if self.exponent_guard < 1:
            raise RingError("exponent guard must be positive")
        object.__setattr__(
            self, "_index", {name: i for i, name in enumerate(self.variables)}
        )

    @classmethod
    def geometric(cls, n: int, order: str = "grevlex") -> "RingContext":
        """Context with coordinate variables x1..xn and no parameters."""
        if n < 1:
            raise RingError("need at least one variable")
        return cls(tuple(f"x{i}" for i in range(1, n + 1)), n, order)

    @classmethod
    def with_parameters(
        cls,
        geometric: Sequence[str],
        parameters: Sequence[str],
        order: str = "lex",
    ) -> "RingContext":
        return cls(tuple(geometric) + tuple(parameters), len(geometric), order)

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

    def is_parameter(self, name: str) -> bool:
        return self.index(name) >= self.geometric_count

    def monomial_key(self, order: Optional[str] = None):
        """Ascending sort key function for the context (or given) order."""
        tag = self.order if order is None else order
        try:
            return _ORDER_KEYS[tag]
        except KeyError:
            raise RingError(f"unknown monomial order: {tag!r}") from None

    def geometric_degree(self, mono: tuple[int, ...]) -> int:
        return sum(mono[: self.geometric_count])

    def check_monomial(self, mono: tuple[int, ...]) -> tuple[int, ...]:
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
        return mono


class Polynomial:
    """Immutable sparse polynomial over a fixed :class:`RingContext`.

    Terms are stored as a dict mapping exponent tuples to nonzero
    Fractions.  Two polynomials are equal iff their contexts are equal and
    their term dicts are identical; all iteration that reaches output is
    sorted, so printing and serialization are deterministic.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(
        self,
        ctx: RingContext,
        terms: Union[Mapping[tuple[int, ...], Rational], Iterable] = (),
        *,
        _clean: bool = False,
    ) -> None:
        self.ctx = ctx
        if _clean:
            self._terms = dict(terms)
            return
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in items:
            mono = ctx.check_monomial(mono)
            coeff = as_fraction(coeff)
            acc = cleaned.get(mono)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                cleaned[mono] = coeff
            else:
                cleaned.pop(mono, None)
        self._terms = cleaned

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, ctx: RingContext) -> "Polynomial":
        return cls(ctx, {}, _clean=True)

    @classmethod
    def constant(cls, ctx: RingContext, value: Rational) -> "Polynomial":
        value = as_fraction(value)
        if not value:
            return cls.zero(ctx)
        return cls(ctx, {(0,) * ctx.nvars: value}, _clean=True)

    @classmethod
    def one(cls, ctx: RingContext) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx: RingContext, name: str) -> "Polynomial":
        i = ctx.index(name)
        mono = tuple(1 if j == i else 0 for j in range(ctx.nvars))
        return cls(ctx, {mono: Fraction(1)}, _clean=True)

    @classmethod
    def monomial(
        cls, ctx: RingContext, mono: Sequence[int], coeff: Rational = 1
    ) -> "Polynomial":
        mono = ctx.check_monomial(tuple(mono))
        coeff = as_fraction(coeff)
        if not coeff:
            return cls.zero(ctx)
        return cls(ctx, {mono: coeff}, _clean=True)

    # ------------------------------------------------------------------
    # inspection

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, mono: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(mono), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.ctx.nvars, Fraction(0))

    def monomials(self) -> Iterator[tuple[int, ...]]:
        return iter(self._terms)

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(
        self, order: Optional[str] = None
    ) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms sorted descending (leading term first)."""
        key = self.ctx.monomial_key(order)
        return sorted(self._terms.items(), key=lambda kv: key(kv[0]), reverse=True)

    def leading_monomial(self, order: Optional[str] = None) -> tuple[int, ...]:
        if not self._terms:
            raise RingError("zero polynomial has no leading monomial")
        return max(self._terms, key=self.ctx.monomial_key(order))

    def max_exponent(self) -> int:
        return max((max(m) for m in self._terms), default=0)

    def total_degree(self) -> Union[int, float]:
        """Geometric-weighted total degree; NEG_INF for the zero polynomial."""
        g = self.ctx.geometric_count
        if not self._terms:
            return NEG_INF
        return max(sum(m[:g]) for m in self._terms)

    def degree_in(self, name: str) -> Union[int, float]:
        i = self.ctx.index(name)
        if not self._terms:
            return NEG_INF
        return max(m[i] for m in self._terms)

    def valuation(self, name: str) -> Union[int, float]:
        """Minimum exponent of ``name`` over all terms; POS_INF for zero."""
        i = self.ctx.index(name)
        if not self._terms:
            return POS_INF
        return min(m[i] for m in self._terms)

    def homogeneous_part(self, k: int) -> "Polynomial":
        """Sum of terms of geometric-weighted degree exactly ``k``."""
        g = self.ctx.geometric_count
        return Polynomial(
            self.ctx,
            {m: c for m, c in self._terms.items() if sum(m[:g]) == k},
            _clean=True,
        )

    def high_part(self, k: int) -> "Polynomial":
        """Sum of terms of geometric-weighted degree strictly above ``k``.

        ``(a - b).high_part(k).is_zero`` is the congruence test
        "a equals b modulo terms of degree at most k".
        """
        g = self.ctx.geometric_count
        return Polynomial(
            self.ctx,
            {m: c for m, c in self._terms.items() if sum(m[:g]) > k},
            _clean=True,
        )

    # ------------------------------------------------------------------
    # arithmetic

    def _integer_terms(self) -> tuple[list[tuple[tuple[int, ...], int]], int]:
        """Terms as integer numerators over one common denominator.

        This is the one place where coefficients are cleared to integers:
        products and :func:`cmccheck.divide.divide` both work on its output.
        """
        d = math.lcm(*(c.denominator for c in self._terms.values()))
        terms = self._terms.items()
        return [(m, c.numerator * (d // c.denominator)) for m, c in terms], d

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

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = dict(self._terms)
        for m, c in other._terms.items():
            acc = res.get(m)
            c = c if acc is None else acc + c
            if c:
                res[m] = c
            else:
                del res[m]
        return Polynomial(self.ctx, res, _clean=True)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        res = dict(self._terms)
        for m, c in other._terms.items():
            acc = res.get(m)
            c = -c if acc is None else acc - c
            if c:
                res[m] = c
            else:
                del res[m]
        return Polynomial(self.ctx, res, _clean=True)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            self.ctx, {m: -c for m, c in self._terms.items()}, _clean=True
        )

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            scale = as_fraction(other)
            if not scale:
                return Polynomial.zero(self.ctx)
            return Polynomial(
                self.ctx,
                {m: c * scale for m, c in self._terms.items()},
                _clean=True,
            )
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return Polynomial.zero(self.ctx)
        # Exponents only ever grow by addition, so one bound check up front
        # lets the hot loop skip per-term guard tests.
        guarded = self.max_exponent() + other.max_exponent() > self.ctx.exponent_guard
        # Accumulating integer numerators over one denominator, and building
        # each output Fraction once, is several times faster than Fraction
        # arithmetic term by term.
        ia, da = self._integer_terms()
        ib, db = other._integer_terms()
        if len(ia) > len(ib):
            ia, ib = ib, ia
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for m1, n1 in ia:
            for m2, n2 in ib:
                m = tuple(map(_add, m1, m2))
                prev = get(m)
                acc[m] = n1 * n2 if prev is None else prev + n1 * n2
        if guarded:
            for m in acc:
                self.ctx.check_monomial(m)
        den = da * db
        if den == 1:
            terms = {m: Fraction(v) for m, v in acc.items() if v}
        else:
            terms = {m: Fraction(v, den) for m, v in acc.items() if v}
        return Polynomial(self.ctx, terms, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise RingError("polynomial powers take non-negative integer exponents")
        result = Polynomial.one(self.ctx)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other) -> "Polynomial":
        # Scalar division only; polynomial division lives in the divide module.
        if isinstance(other, (int, Fraction)):
            scale = as_fraction(other)
            if not scale:
                raise ZeroDivisionError("division by zero scalar")
            return self * (1 / scale)
        if isinstance(other, float):
            as_fraction(other)
        return NotImplemented

    # ------------------------------------------------------------------
    # substitution and evaluation

    def substitute(
        self, bindings: Mapping[str, Union["Polynomial", Rational]]
    ) -> "Polynomial":
        """Replace bound variables; unbound ones pass through unchanged.

        Values may be rationals or polynomials over this context (or over a
        context whose variables all exist here, embedded by name).
        Unknown variable names are an error.
        """
        if not bindings:
            return self
        scalar: dict[int, Fraction] = {}
        polys: dict[int, Polynomial] = {}
        for name, value in bindings.items():
            i = self.ctx.index(name)
            if isinstance(value, Polynomial):
                polys[i] = self._embed(value)
            else:
                scalar[i] = as_fraction(value)
        scaled = self._substitute_scalars(scalar) if scalar else self
        if not polys:
            return scaled
        out = Polynomial.zero(self.ctx)
        cache: dict[tuple[int, int], Polynomial] = {}
        for mono, coeff in scaled._terms.items():
            residual = list(mono)
            factor = None
            for i, val in polys.items():
                e = mono[i]
                if e:
                    residual[i] = 0
                    piece = cache.get((i, e))
                    if piece is None:
                        piece = val**e
                        cache[(i, e)] = piece
                    factor = piece if factor is None else factor * piece
            term = Polynomial.monomial(self.ctx, tuple(residual), coeff)
            out = out + (term if factor is None else term * factor)
        return out

    def _substitute_scalars(self, scalar: Mapping[int, Fraction]) -> "Polynomial":
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in self._terms.items():
            residual = list(mono)
            for i, val in scalar.items():
                e = mono[i]
                if e:
                    residual[i] = 0
                    coeff = coeff * val**e
            if not coeff:
                continue
            m = tuple(residual)
            prev = acc.get(m)
            coeff = coeff if prev is None else prev + coeff
            if coeff:
                acc[m] = coeff
            else:
                del acc[m]
        return Polynomial(self.ctx, acc, _clean=True)

    def _embed(self, value: "Polynomial") -> "Polynomial":
        if value.ctx == self.ctx:
            return value
        try:
            positions = [self.ctx.index(name) for name in value.ctx.variables]
        except UnknownVariableError:
            raise ContextMismatchError(
                "cannot embed polynomial: its variables are not all declared here"
            ) from None
        blank = [0] * self.ctx.nvars
        terms = {}
        for mono, coeff in value._terms.items():
            m = blank[:]
            for pos, e in zip(positions, mono):
                m[pos] = e
            terms[tuple(m)] = coeff
        return Polynomial(self.ctx, terms, _clean=True)

    def evaluate(self, point: Mapping[str, Rational]) -> Fraction:
        """Evaluate at a full rational point (every used variable bound)."""
        values = {self.ctx.index(name): as_fraction(v) for name, v in point.items()}
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            v = coeff
            for i, e in enumerate(mono):
                if e:
                    if i not in values:
                        raise RingError(
                            f"no value given for variable {self.ctx.variables[i]!r}"
                        )
                    v = v * values[i] ** e
            total += v
        return total

    # ------------------------------------------------------------------
    # equality, hashing, display

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.ctx == other.ctx and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.ctx, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self._terms.items())))

    def __str__(self) -> str:
        from .parse import to_text

        return to_text(self)

    def __repr__(self) -> str:
        return f"Polynomial({self})"
