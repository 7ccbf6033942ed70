"""Matrices over F_q((u)): products, adjugate inverses, norms, Cartan data.

Everything is dimension-generic (default 3), exactness-preserving where
mathematically possible, and valuation-based:

* the operator norm for the sup-norm on k^n equals the largest entry
  absolute value, so ``lognorm`` returns the integer e with ||A|| = q^e;
* the Cartan projection is computed from determinantal divisors
  (d_k = min valuation over all k x k minors), which equals the Smith
  normal form elementary divisors over the valuation ring but needs no
  division, hence stays exact on exact input and is trivially
  deterministic.  mu(A) is the negated elementary-divisor valuations in
  non-increasing order; for SL_n it sums to zero, mu[0] = lognorm(A) and
  -mu[-1] = lognorm(A^-1).

Characteristic polynomials are computed by cofactor expansion of
det(X*I - A) over polynomials with Laurent coefficients -- division-free,
fine for the small dimensions used here.
"""

from __future__ import annotations

import itertools

from .errors import InsufficientPrecision, LaurentSyntaxError, SingularOrUndecidable
from .field import INF, Laurent, laurent_to_str, parse_laurent

# Precision used for general (non-unit-determinant) inverses when the input
# is exact; inexact inputs use their own capacity.
DEFAULT_INV_PRECISION = 24


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
    if floors < best:
        return None
    return best


class Mat:
    """A square matrix over F_q((u)).  Immutable, structural equality."""

    __slots__ = ("q", "n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("square matrix required")
        q = rows[0][0].q
        for r in rows:
            for x in r:
                if x.q != q:
                    raise ValueError("mixed residue fields in matrix")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(q, n=3):
        one = Laurent(q, 0, (1,))
        zero = Laurent(q, 0, ())
        return Mat([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries):
        entries = tuple(entries)
        q = entries[0].q
        zero = Laurent(q, 0, ())
        n = len(entries)
        return Mat([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols):
        return Mat(list(zip(*cols)))

    @staticmethod
    def elementary(q, i, j, f, n=3):
        """I + f * E_ij (i != j); determinant 1."""
        if i == j:
            raise ValueError("elementary matrix needs i != j")
        rows = [list(r) for r in Mat.identity(q, n).rows]
        rows[i][j] = f
        return Mat(rows)

    # -- basics ------------------------------------------------------------

    @property
    def exact(self):
        return all(x.exact for r in self.rows for x in r)

    def entry(self, i, j):
        return self.rows[i][j]

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
            if other.n != self.n:
                raise ValueError("dimension mismatch")
            cols = other.transpose().rows
            return Mat([[vec_dot(r, c) for c in cols] for r in self.rows])
        return NotImplemented

    def matvec(self, vec):
        return tuple(vec_dot(r, vec) for r in self.rows)

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat(
            [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return Mat(
            [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def scale_elem(self, c):
        """Multiply every entry by the Laurent scalar c."""
        return Mat([[x * c for x in r] for r in self.rows])

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = Mat.identity(self.q, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _minor(self, drop_i, drop_j):
        return Mat(
            [
                [x for j, x in enumerate(r) if j != drop_j]
                for i, r in enumerate(self.rows)
                if i != drop_i
            ]
        )

    def det(self):
        if self.n == 1:
            return self.rows[0][0]
        if self.n == 2:
            (a, b), (c, d) = self.rows
            return a * d - b * c
        acc = None
        for j, x in enumerate(self.rows[0]):
            term = x * self._minor(0, j).det()
            if j % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc

    def adjugate(self):
        """adj(A) with A*adj(A) = det(A)*I; exact when A is exact."""
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                c = self._minor(j, i).det()
                if (i + j) % 2:
                    c = -c
                row.append(c)
            rows.append(row)
        return Mat(rows)

    def inverse(self, precision=None):
        """A^-1: the pure adjugate when det = 1, else adjugate / det.

        Stays exact when det is a monomial (in particular det = 1);
        otherwise the entries carry finite precision.
        """
        d = self.det()
        if not d.digits:
            raise SingularOrUndecidable(
                "determinant has no known nonzero digit"
            )
        adj = self.adjugate()
        one = Laurent(self.q, 0, (1,))
        if d == one:
            return adj
        if d.is_monomial():
            return adj.scale_elem(d.inv(0))
        if precision is None:
            precision = (
                d.known_to - 2 * d.lead if not d.exact else DEFAULT_INV_PRECISION
            )
        return adj.scale_elem(d.inv(precision))

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def second_compound(self):
        """Matrix of 2x2 minors, rows/cols indexed by pairs (lex order).

        Realizes the action on the second exterior power; its lognorm bounds
        how much A can expand 2-dimensional volume, which is what the ball
        image-radius certificates consume.
        """
        pairs = list(itertools.combinations(range(self.n), 2))
        rows = []
        for (i1, i2) in pairs:
            row = []
            for (j1, j2) in pairs:
                m = self.rows[i1][j1] * self.rows[i2][j2] - self.rows[i1][j2] * self.rows[i2][j1]
                row.append(m)
            rows.append(row)
        return Mat(rows)

    # -- norms and Cartan data -------------------------------------------------

    def lognorm(self):
        """Integer e with ||A|| = q^e for the sup-norm operator norm.

        Equals -min entry valuation.  Raises InsufficientPrecision when an
        undecided entry could lower the minimum.
        """
        best = INF
        floor = INF
        for r in self.rows:
            for x in r:
                v = x.val()
                if v is None:
                    floor = min(floor, x.known_to)
                else:
                    best = min(best, v)
        if floor < best:
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
        k x k minors; the elementary divisors have valuations
        e_k = d_k - d_{k-1} (non-decreasing), and mu = (-e_1, ..., -e_n).
        """
        d = [0]
        idx = range(self.n)
        for k in range(1, self.n + 1):
            best = INF
            floor = INF
            for rows_k in itertools.combinations(idx, k):
                for cols_k in itertools.combinations(idx, k):
                    sub = Mat(
                        [[self.rows[i][j] for j in cols_k] for i in rows_k]
                    ) if k > 1 else None
                    m = sub.det() if k > 1 else self.rows[rows_k[0]][cols_k[0]]
                    v = m.val()
                    if v is None:
                        floor = min(floor, m.known_to)
                    else:
                        best = min(best, v)
            if floor < best:
                raise InsufficientPrecision(
                    f"a {k}x{k} minor's valuation is undecided"
                )
            if best is INF:
                raise ValueError("matrix is singular (a determinantal divisor vanishes)")
            d.append(best)
        return tuple(-(d[k] - d[k - 1]) for k in range(1, self.n + 1))

    def char_poly(self):
        """Monic characteristic polynomial det(X*I - A) as a Poly."""
        n = self.n
        q = self.q
        zero = Laurent(q, 0, ())
        one = Laurent(q, 0, (1,))
        # entries of X*I - A as degree<=1 polynomials (coefficient lists)
        entries = [
            [(-self.rows[i][j], one if i == j else zero) for j in range(n)]
            for i in range(n)
        ]

        def pmul(p1, p2):
            out = [zero] * (len(p1) + len(p2) - 1)
            for a, ca in enumerate(p1):
                for b, cb in enumerate(p2):
                    out[a + b] = out[a + b] + ca * cb
            return out

        def pdet(mat_):
            if len(mat_) == 1:
                return list(mat_[0][0])
            acc = None
            for j, p in enumerate(mat_[0]):
                sub = [[row[jj] for jj in range(len(row)) if jj != j] for row in mat_[1:]]
                term = pmul(p, pdet(sub))
                if j % 2:
                    term = [-c for c in term]
                if acc is None:
                    acc = term
                else:
                    acc = [
                        (acc[i] if i < len(acc) else zero)
                        + (term[i] if i < len(term) else zero)
                        for i in range(max(len(acc), len(term)))
                    ]
            return acc

        coeffs = pdet(entries)
        coeffs += [zero] * (n + 1 - len(coeffs))
        return Poly(tuple(coeffs))

    # -- text form ----------------------------------------------------------------

    def to_text(self):
        return "; ".join(", ".join(laurent_to_str(x) for x in r) for r in self.rows)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Mat({self.to_text()!r})"


def parse_matrix(text, q):
    """Row-major element strings: entries comma-separated, rows by ';'."""
    rows = []
    for part in text.split(";"):
        row = [parse_laurent(cell, q) for cell in part.split(",")]
        rows.append(row)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise LaurentSyntaxError(f"expected a square matrix, got rows {[len(r) for r in rows]}")
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

    def is_monic(self):
        top = self.coeffs[-1]
        return top.exact and top.lead == 0 and top.digits == (1,)

    def __call__(self, x):
        if isinstance(x, Mat):
            acc = Mat.identity(x.q, x.n).scale_elem(self.coeffs[-1])
            for c in reversed(self.coeffs[:-1]):
                acc = acc * x + Mat.identity(x.q, x.n).scale_elem(c)
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


def random_lattice_element(q, rng, n_factors=4, max_deg=2, dim=3):
    """Seeded random element of SL_dim(F_q[t]) as a product of elementaries.

    Entries of the elementary offsets are polynomials in t = u^-1 of degree
    <= max_deg, i.e. Laurent digits at exponents -max_deg..0.  Products of
    such matrices exhaust a large chunk of the lattice and always have
    det = 1 exactly.
    """
    acc = Mat.identity(q, dim)
    for _ in range(n_factors):
        i = rng.randrange(dim)
        j = rng.randrange(dim - 1)
        if j >= i:
            j += 1
        digits = [rng.randrange(q) for _ in range(max_deg + 1)]
        if not any(digits):
            digits[rng.randrange(max_deg + 1)] = 1 + rng.randrange(q - 1)
        f = Laurent(q, -max_deg, digits)
        acc = acc * Mat.elementary(q, i, j, f, n=dim)
    return acc
