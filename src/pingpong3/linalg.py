"""3x3 matrices over F_q((u)): products, adjugate inverses, norms, Cartan data.

Every matrix is 3x3 (the group is SL3), and every minor is written out in
closed form.  Everything is exactness-preserving where mathematically
possible, and valuation-based:

* the operator norm for the sup-norm on k^3 equals the largest entry
  absolute value, so ``lognorm`` returns the integer e with ||A|| = q^e;
* the Cartan projection is computed from determinantal divisors
  (d_k = min valuation over all k x k minors), which equals the Smith
  normal form elementary divisors over the valuation ring but needs no
  division, hence stays exact on exact input and is trivially
  deterministic.  mu(A) is the negated elementary-divisor valuations in
  non-increasing order; for SL3 it sums to zero, mu[0] = lognorm(A) and
  -mu[2] = lognorm(A^-1).

The characteristic polynomial det(X*I - A) is written out from the
entries, the 2x2 principal minors and det(A) -- division-free.  Its
groupings are fixed: regrouping a sum of products changes the precision
an inexact result is known to.
"""

from __future__ import annotations

from functools import wraps

from .errors import InsufficientPrecision, LaurentSyntaxError, SingularOrUndecidable
from .field import INF, Laurent, laurent_to_str, parse_laurent

# row/column pairs of the 2x2 minors, in lex order
_PAIRS = ((0, 1), (0, 2), (1, 2))


# -- small vector helpers (tuples of Laurent) ------------------------------

def vec_dot(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def vec_cross(a, b):
    """Cross product in k^3 (dual vector of the plane spanned by a, b)."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def vec_min_val(a):
    """Minimum valuation over coordinates; None when undecidable."""
    best = INF
    floors = INF
    for x in a:
        v = x.val()
        if v is None:
            floors = min(floors, x.known_to)
        else:
            best = min(best, v)
    return None if floors < best else best


def _derived(method):
    """Keep what ``method`` derives from a matrix in the slot ``_<name>``;
    a Mat is immutable, so it never goes stale.  A raise is not kept."""
    slot = "_" + method.__name__

    @wraps(method)
    def once(self):
        if not hasattr(self, slot):
            object.__setattr__(self, slot, method(self))
        return getattr(self, slot)

    return once


class Mat:
    """A 3x3 matrix over F_q((u)).  Immutable, structural equality."""

    __slots__ = ("q", "rows", "_det", "_second_compound", "_adjugate", "_inverse")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError(f"3x3 matrix required, got rows {[len(r) for r in rows]}")
        q = rows[0][0].q
        if any(x.q != q for r in rows for x in r):
            raise ValueError("mixed residue fields in matrix")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __reduce__(self):
        return Mat, (self.rows,)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(q):
        one = Laurent(q, 0, (1,))
        return Mat.diagonal((one, one, one))

    @staticmethod
    def diagonal(entries):
        entries = tuple(entries)
        zero = Laurent(entries[0].q, 0, ())
        return Mat([[x if i == j else zero for j in range(3)] for i, x in enumerate(entries)])

    @staticmethod
    def from_columns(cols):
        return Mat(list(zip(*cols)))

    @staticmethod
    def elementary(q, i, j, f):
        """I + f * E_ij (i != j); determinant 1."""
        if i == j:
            raise ValueError("elementary matrix needs i != j")
        rows = [list(r) for r in Mat.identity(q).rows]
        rows[i][j] = f
        return Mat(rows)

    # -- basics ------------------------------------------------------------

    @property
    def exact(self):
        return all(x.exact for r in self.rows for x in r)

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return Mat(list(zip(*self.rows)))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def equal_mod(self, other, n):
        """Tri-state entrywise agreement modulo u^n."""
        verdict = True
        for r1, r2 in zip(self.rows, other.rows):
            for x, y in zip(r1, r2):
                t = x.equal_mod(y, n)
                if t is False:
                    return False
                if t is None:
                    verdict = None
        return verdict

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Mat):
            cols = other.transpose().rows
            return Mat([[vec_dot(r, c) for c in cols] for r in self.rows])
        return NotImplemented

    def matvec(self, vec):
        return tuple(vec_dot(r, vec) for r in self.rows)

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat([[x + y for x, y in zip(*rs)] for rs in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat([[x - y for x, y in zip(*rs)] for rs in zip(self.rows, other.rows)])

    def scale_elem(self, c):
        """Multiply every entry by the Laurent scalar c."""
        return Mat([[x * c for x in r] for r in self.rows])

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result, base = None, self  # no identity factor, no square past the top bit
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Mat.identity(self.q) if result is None else result

    @_derived
    def det(self):
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    @_derived
    def adjugate(self):
        """adj(A) with A*adj(A) = det(A)*I; exact when A is exact."""
        m = self.second_compound().rows
        return Mat([[m[2 - j][2 - i].scale((-1) ** (i + j)) for j in range(3)] for i in range(3)])

    @_derived
    def inverse(self):
        """A^-1, exact: the adjugate when det = 1, else the adjugate over a
        monomial det; any other det is refused."""
        d = self.det()
        if not d.is_monomial():
            raise SingularOrUndecidable(f"determinant {d} is not an exact monomial")
        adj = self.adjugate()
        if d == Laurent(self.q, 0, (1,)):
            return adj
        return adj.scale_elem(d.inv(0))

    @_derived
    def second_compound(self):
        """Matrix of 2x2 minors, rows/cols indexed by pairs (lex order).

        Realizes the action on the second exterior power; its lognorm bounds
        how much A can expand 2-dimensional volume, which is what the ball
        image-radius certificates consume.
        """
        r = self.rows
        return Mat([[r[i][j] * r[k][l] - r[i][l] * r[k][j] for j, l in _PAIRS] for i, k in _PAIRS])

    # -- norms and Cartan data -------------------------------------------------

    def lognorm(self):
        """Integer e with ||A|| = q^e for the sup-norm operator norm.

        Equals -min entry valuation.  Raises InsufficientPrecision when an
        undecided entry could lower the minimum.
        """
        best = vec_min_val([x for r in self.rows for x in r])
        if best is None:
            raise InsufficientPrecision("an entry's valuation is undecided")
        if best is INF:
            raise ValueError("lognorm of the zero matrix")
        return -best

    def min_val(self):
        """Minimum entry valuation (int), or INF for zero; undecidable raises."""
        try:
            return -self.lognorm()
        except ValueError:
            return INF

    def cartan_projection(self):
        """mu(A): negated elementary-divisor valuations, non-increasing.

        Computed from determinantal divisors: d_k = min valuation over all
        k x k minors -- the entries, the second compound's entries and
        det(A); the elementary divisors have valuations e_k = d_k - d_{k-1}
        (non-decreasing), and mu = (-e_1, -e_2, -e_3).
        """
        d = [0]
        for k, minors in enumerate(
            (self.rows, self.second_compound().rows, ((self.det(),),)), start=1
        ):
            best = vec_min_val([x for r in minors for x in r])
            if best is None:
                raise InsufficientPrecision(
                    f"a {k}x{k} minor's valuation is undecided"
                )
            if best is INF:
                raise ValueError("matrix is singular (a determinantal divisor vanishes)")
            d.append(best)
        return tuple(d[k - 1] - d[k] for k in range(1, 4))

    def char_poly(self):
        """Monic characteristic polynomial det(X*I - A) as a Poly."""
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return Poly((
            -self.det(),
            a * (e + i) + (e * i - f * h) - b * d - c * g,
            -(a + e + i),
            Laurent(self.q, 0, (1,)),
        ))

    # -- text form ----------------------------------------------------------------

    def to_text(self):
        return "; ".join(", ".join(laurent_to_str(x) for x in r) for r in self.rows)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Mat({self.to_text()!r})"


def parse_matrix(text, q):
    """Row-major element strings: entries comma-separated, rows by ';'."""
    rows = [[parse_laurent(cell, q) for cell in part.split(",")] for part in text.split(";")]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise LaurentSyntaxError(f"expected a 3x3 matrix, got rows {[len(r) for r in rows]}")
    return Mat(rows)


class Poly:
    """Polynomial over k, coefficient-indexed by degree.  Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def q(self):
        return self.coeffs[0].q

    def __call__(self, x):
        if isinstance(x, Mat):
            acc = Mat.identity(x.q).scale_elem(self.coeffs[-1])
            for c in reversed(self.coeffs[:-1]):
                acc = acc * x + Mat.identity(x.q).scale_elem(c)
            return acc
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self):
        q = self.q
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            out.append(c.scale(i % q))
        return Poly(out or (Laurent(q, 0, ()),))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(" + ", ".join(laurent_to_str(c) for c in self.coeffs) + ")"


def random_lattice_element(q, rng, n_factors=4, max_deg=2):
    """Seeded random element of SL3(F_q[t]) as a product of elementaries.

    Entries of the elementary offsets are polynomials in t = u^-1 of degree
    <= max_deg, i.e. Laurent digits at exponents -max_deg..0.  Products of
    such matrices exhaust a large chunk of the lattice and always have
    det = 1 exactly.
    """
    acc = Mat.identity(q)
    for _ in range(n_factors):
        i = rng.randrange(3)
        j = rng.randrange(2)
        if j >= i:
            j += 1
        digits = [rng.randrange(q) for _ in range(max_deg + 1)]
        if not any(digits):
            digits[rng.randrange(max_deg + 1)] = 1 + rng.randrange(q - 1)
        f = Laurent(q, -max_deg, digits)
        acc = acc * Mat.elementary(q, i, j, f)
    return acc
