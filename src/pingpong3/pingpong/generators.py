"""The commuting diagonal generators and their affine-chart ratios.

The rank-2 factor is generated by two diagonal matrices a, b of determinant
one.  What the exclusion argument consumes is not the entries but the chart
ratios

    alpha = (a_00 / a_22, a_11 / a_22),    beta = (b_00 / b_22, b_11 / b_22):

acting on the affine chart z = 1, a^m b^n scales the x-coordinate by
alpha_1^m beta_1^n and the y-coordinate by alpha_2^m beta_2^n.  The standard
profile-(s, s') pair is

    a = diag(u^2s, u^-s, u^-s)^P,   b = diag(u^-s', u^2s', u^-s')^P,

with P = q(q - 1), so that every ratio is a power of u whose exponent is a
positive multiple of p = q: alpha = (u^3sP, 1) and beta = (1, u^3s'P).
Raising to the q-th power makes unit parts of ratios land in 1 + um
automatically (Frobenius kills first-order terms), and the extra (q - 1)
forces residue digits to 1; both are preconditions the exclusion cases
verify rather than assume, so arbitrary diagonal pairs are accepted here.
"""

from __future__ import annotations

from ..field import Laurent
from ..linalg import Mat


def _monomial_diagonal(mat, name):
    """(exponent triple, unit-coefficient triple) of a diagonal matrix whose
    diagonal entries are exact monomials c u^k."""
    for i in range(3):
        for j in range(3):
            x = mat.rows[i][j]
            if i != j and not x.is_exact_zero:
                raise ValueError(f"{name} must be diagonal")
            if i == j and not x.is_monomial():
                raise ValueError(f"{name} must have exact monomial diagonal entries")
    diag = [mat.rows[i][i] for i in range(3)]
    return tuple(x.lead for x in diag), tuple(x.digits[0] for x in diag)


class DiagPair:
    """Two diagonal determinant-one matrices plus their chart ratios.

    Every element a^m b^n of the rank-two factor is the monomial diagonal
    diag(c_i^m d_i^n u^(m k_i + n l_i)), fixed by the exponent triples
    k, l and the unit coefficients c, d of a and b.  Those are read off
    once at construction; ``monomial`` gives them for any (m, n).  Immutable.
    """

    __slots__ = ("a", "b", "a_ratios", "b_ratios", "_factors")

    def __init__(self, a, b, a_ratios, b_ratios):
        factors = (_monomial_diagonal(a, "a"), _monomial_diagonal(b, "b"))
        for name, value in zip(self.__slots__, (a, b, a_ratios, b_ratios, factors)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("diagonal pairs are immutable")

    @property
    def q(self):
        return self.a.q

    @property
    def a_stretch(self):
        """val(alpha_1): how fast a^m separates the x-coordinate."""
        return self.a_ratios[0].val()

    @property
    def b_stretch(self):
        """val(beta_2): how fast b^n separates the y-coordinate."""
        return self.b_ratios[1].val()

    def monomial(self, m, n):
        """a^m b^n as (exponent triple, unit-coefficient triple mod q)."""
        (ka, ca), (kb, cb) = self._factors
        exps = tuple(m * k + n * l for k, l in zip(ka, kb))
        if ca == cb == (1, 1, 1):  # no modular power, nor inverse, to take
            return exps, ca
        q = self.q
        coeffs = tuple(pow(c, m, q) * pow(d, n, q) % q for c, d in zip(ca, cb))
        return exps, coeffs

    def gamma(self, m, n):
        """The element a^m b^n, built in O(1) from its exponent triple."""
        exps, coeffs = self.monomial(m, n)
        return Mat.diagonal([Laurent(self.q, e, (c,)) for e, c in zip(exps, coeffs)])

    def act(self, m, n, vec):
        """a^m b^n applied to a coordinate vector: coordinate i times its
        monomial, one ``shift`` each.  Equal, precision included, to
        ``gamma(m, n).matvec(vec)``.  A monic pair (unit coefficients all 1,
        as in the standard pairs) shifts by the exponents m k_i + n l_i alone."""
        (ka, ca), (kb, cb) = self._factors
        if ca == cb == (1, 1, 1):
            (x, y, z), (k0, k1, k2), (l0, l1, l2) = vec, ka, kb
            return x.shift(m * k0 + n * l0), y.shift(m * k1 + n * l1), z.shift(m * k2 + n * l2)
        exps, coeffs = self.monomial(m, n)
        return tuple(x.shift(e, c) for x, e, c in zip(vec, exps, coeffs))


def make_pair(a, b):
    """Package two diagonal SL_3 elements with their chart ratios.

    A determinant-one diagonal of exact entries has monomial entries (the
    units of F_q[u, 1/u] are monomials), so determinant one is read off the
    exponent and coefficient triples, and the ratios are exact monomials.
    """
    if a.q != b.q:
        raise ValueError("mixed residue fields")
    q = a.q
    ratios = []
    for mat, name in ((a, "a"), (b, "b")):
        (k0, k1, k2), (c0, c1, c2) = _monomial_diagonal(mat, name)
        if k0 + k1 + k2 != 0 or c0 * c1 * c2 % q != 1:
            raise ValueError(f"{name} must have determinant exactly 1")
        inv = pow(c2, -1, q)
        ratios.append(
            tuple(Laurent(q, k - k2, (c * inv % q,)) for k, c in ((k0, c0), (k1, c1)))
        )
    return DiagPair(a, b, *ratios)


def make_generators(q, profile=(1, 1)):
    """The standard commuting pair for the given (s, s') profile."""
    s, s_prime = profile
    if s < 1 or s_prime < 1:
        raise ValueError("profile exponents must be positive")
    p_exp = q * (q - 1)
    u = lambda e: Laurent(q, e, (1,))
    a = Mat.diagonal([u(2 * s * p_exp), u(-s * p_exp), u(-s * p_exp)])
    b = Mat.diagonal([u(-s_prime * p_exp), u(2 * s_prime * p_exp), u(-s_prime * p_exp)])
    return make_pair(a, b)
