"""Generic cubics with symbolic coefficients, cube roots, quadratic forms.

After an affine change of coordinates, any real cubic whose degree-3 part
is a perfect cube can be written with first coordinate ``x := x1`` and
remaining coordinates ``y := (x2..xn)`` as::

    f = x^3 + y'Ay + k0*x^2 + (r'y)*x + k1*x + s'y

with A a symmetric matrix of parameters, r and s parameter vectors, and
scalars k0, k1.  :func:`generic_cubic` builds that normal form over a
ring context that also declares the folded curvature parameter Ht, so the
whole nonexistence argument runs inside one exact ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .calculus import dot, partial
from .ring import Polynomial, RingContext, RingError


@dataclass(frozen=True)
class GenericCubicSpec:
    """The symbolic pieces of a generic cubic: names and atom polynomials.

    ``x`` is x1 and ``y`` is (x2..xn); ``A`` is the full symmetric grid of
    matrix entries, ``r`` and ``s`` the parameter vectors, ``k0``, ``k1``
    the scalars and ``ht`` the folded curvature parameter Ht, each the
    variable polynomial of its name.  ``Ay``, ``yAy`` (y'Ay) and ``trace``
    (trace(A)) are built once from those atoms.
    """

    n: int
    matrix_names: tuple[tuple[str, ...], ...]  # full (n-1) x (n-1) symmetric grid
    r_names: tuple[str, ...]
    s_names: tuple[str, ...]
    k0_name: str
    k1_name: str
    curvature_name: str
    x: Polynomial
    y: tuple[Polynomial, ...]
    A: tuple[tuple[Polynomial, ...], ...]
    r: tuple[Polynomial, ...]
    s: tuple[Polynomial, ...]
    k0: Polynomial
    k1: Polynomial
    ht: Polynomial
    Ay: tuple[Polynomial, ...]
    yAy: Polynomial
    trace: Polynomial


def matrix_entry_name(i: int, j: int) -> str:
    # Row/column indices are 1-based; storage keeps i <= j.
    if i > j:
        i, j = j, i
    return f"a_{i}{j}"


def generic_cubic(n: int) -> tuple[Polynomial, GenericCubicSpec]:
    """Generic cubic in normal form over a fresh parameter ring.

    Returns the polynomial and its spec of names and atoms.  The context
    has geometric variables x1..xn (x := x1, y_i := x_{i+1}) followed by
    the parameters a_ij (i <= j), r_i, s_i, k0, k1 and Ht, under lex order.
    Its exponent guard is 12, the largest exponent the replay forms (x^12
    in the degree-12 defect part; no parameter passes exponent 6), so a
    packed field is 5 bits wide, not 17; at a guard of 11 the replay stops
    in its step 5.
    """
    if n < 3:
        raise RingError("generic cubic needs dimension n >= 3")
    m = n - 1
    a_names = [matrix_entry_name(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    r_names = [f"r_{i}" for i in range(1, m + 1)]
    s_names = [f"s_{i}" for i in range(1, m + 1)]
    ctx = RingContext(
        tuple(f"x{i}" for i in range(1, n + 1))
        + tuple(a_names + r_names + s_names + ["k0", "k1", "Ht"]),
        n, "lex", exponent_guard=12,
    )
    matrix_names = tuple(
        tuple(matrix_entry_name(i, j) for j in range(1, m + 1))
        for i in range(1, m + 1)
    )

    def atoms(names):
        return tuple(Polynomial.variable(ctx, name) for name in names)

    y = atoms(f"x{i}" for i in range(2, n + 1))
    a = tuple(atoms(row) for row in matrix_names)
    ay = tuple(dot(row, y) for row in a)
    spec = GenericCubicSpec(
        n=n,
        matrix_names=matrix_names,
        r_names=tuple(r_names),
        s_names=tuple(s_names),
        k0_name="k0",
        k1_name="k1",
        curvature_name="Ht",
        x=Polynomial.variable(ctx, "x1"),
        y=y,
        A=a,
        r=atoms(r_names),
        s=atoms(s_names),
        k0=Polynomial.variable(ctx, "k0"),
        k1=Polynomial.variable(ctx, "k1"),
        ht=Polynomial.variable(ctx, "Ht"),
        Ay=ay,
        yAy=dot(y, ay),
        trace=sum((a[i][i] for i in range(m)), Polynomial.zero(ctx)),
    )
    x = spec.x
    r_dot_y, s_dot_y = dot(spec.r, y), dot(spec.s, y)
    f = x**3 + spec.yAy + spec.k0 * x**2 + r_dot_y * x + spec.k1 * x + s_dot_y
    return f, spec


def _icbrt(v: int) -> int:
    """Floor of the cube root of a non-negative integer, exactly."""
    if v < 0:
        raise ValueError("negative input")
    if v == 0:
        return 0
    x = 1 << ((v.bit_length() + 2) // 3)
    while True:
        y = (2 * x + v // (x * x)) // 3
        if y >= x:
            return x
        x = y


def rational_cube_root(q: Fraction) -> Optional[Fraction]:
    """Exact cube root of a rational, or None if it is not a cube."""
    if q == 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    sign = 1
    if num < 0:
        sign, num = -1, -num
    rn = _icbrt(num)
    if rn**3 != num:
        return None
    rd = _icbrt(den)
    if rd**3 != den:
        return None
    return Fraction(sign * rn, rd)


def cube_root_cubic_form(c: Polynomial) -> Optional[Polynomial]:
    """Linear form l with l^3 = c, or None when no such form exists.

    ``c`` must be homogeneous of degree 3 in the geometric variables with
    rational coefficients (no parameters).  If ``c = l^3``, then
    ``d^2c/dx_k^2 = 6 l_k^2 l`` and ``l_k^3`` is the coefficient of
    ``x_k^3``.  So at the first ``x_k`` whose cube has a nonzero coefficient
    ``a^3``, the only candidate is ``d^2c/dx_k^2 / (6 a^2)``, and None
    follows when ``a^3`` is no rational cube; a final exact cube confirms or
    rejects the candidate.
    """
    ctx = c.ctx
    if c.is_zero:
        return Polynomial.zero(ctx)
    g = ctx.geometric_count
    for mono in c.monomials():
        if sum(mono[:g]) != 3 or any(mono[g:]):
            raise RingError(
                "cube root needs a homogeneous cubic form in the geometric variables"
            )
    for k, name in enumerate(ctx.geometric_variables):
        cube = c.coefficient(tuple(3 if j == k else 0 for j in range(ctx.nvars)))
        if cube:
            break
    else:
        return None
    a = rational_cube_root(cube)
    if a is None:
        return None
    root = partial(partial(c, name), name) * (1 / (6 * a * a))
    if root**3 == c:
        return root
    return None


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric matrix of polynomial entries."""

    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.entries)
        for row in self.entries:
            if len(row) != size:
                raise RingError("matrix entries must form a square grid")
        for i in range(size):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise RingError("matrix entries must be symmetric")


def quad_form_to_matrix(q: Polynomial, variables: Sequence[str]) -> SymMatrix:
    """Unique symmetric matrix M with q = v'Mv over the designated variables.

    Every term of ``q`` must have degree exactly 2 in the designated
    variables and involve no other geometric variable; parameters may
    appear freely in the entries.  Otherwise the call raises "not a
    quadratic form" when some term's designated degree is not 2, and
    "touches a geometric variable outside the designated set" when every
    term's is 2.

    With ``g_i = dq/dv_i``, Euler's identity makes ``sum_i v_i g_i`` the sum
    of each term times its designated degree, which is ``2q`` exactly when
    every such degree is 2.  Then ``q = v'Mv`` with ``M_ij = 1/2 dg_i/dv_j``,
    entries free of the designated variables, and ``M_ij`` holds a
    geometric variable exactly when some term of ``q`` holds one outside
    the designated set (distinct terms give distinct terms of ``M_ij``).
    """
    ctx = q.ctx
    vs = [Polynomial.variable(ctx, name) for name in variables]
    grads = [partial(q, name) for name in variables]
    if Polynomial._sum_of_products(ctx, list(zip(vs, grads))) != q * 2:
        raise RingError("not a quadratic form in the designated variables")
    # M is symmetric: form its lower triangle and mirror it.
    lower = [
        [partial(g, name) * Fraction(1, 2) for name in variables[: i + 1]]
        for i, g in enumerate(grads)
    ]
    if any(e.total_degree() > 0 for row in lower for e in row):
        raise RingError(
            "quadratic form touches a geometric variable outside the designated set"
        )
    m = len(vs)
    return SymMatrix(tuple(
        tuple(lower[max(i, j)][min(i, j)] for j in range(m)) for i in range(m)
    ))


def quad_form_from_matrix(
    matrix: SymMatrix, variables: Sequence[str], ctx: RingContext
) -> Polynomial:
    """Rebuild v'Mv; inverse of :func:`quad_form_to_matrix`."""
    if len(matrix.entries) != len(variables):
        raise RingError("variable list does not match matrix size")
    vs = [Polynomial.variable(ctx, name) for name in variables]
    return Polynomial._sum_of_products(ctx, [
        (vi._coerce(entry), vi * vj)
        for vi, row in zip(vs, matrix.entries)
        for vj, entry in zip(vs, row)
    ])
