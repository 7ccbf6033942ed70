"""Valuations of polynomial roots and eigenvector flags.

The Newton polygon of p(X) = sum c_j X^j is the lower convex hull of the
points (j, val(c_j)).  Each hull segment of horizontal length L and slope s
accounts for exactly L roots of valuation -s (in an algebraic closure).  We
only ever consume the "regular" case: every segment has length 1 and the
root valuations are distinct integers, so all roots are simple, live in the
base field, and can be lifted by Newton iteration from their residue digit
(the residual equation of a length-1 segment is linear over F_q).

``eigen_flags`` packages that for a 3x3 matrix: the three eigenvalue
valuations in increasing order, eigenvectors scaled to minimum valuation 0,
and the change-of-basis matrix whose columns they are.  The eigenvector for
a simple eigenvalue lam is computed as a cross product of two rows of
(A - lam*I), which is division-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InsufficientPrecision,
    NotSimpleSegment,
    SingularOrUndecidable,
)
from .field import INF, Laurent
from .linalg import Mat, Poly, vec_cross, vec_min_val


@dataclass(frozen=True)
class Segment:
    """One edge of the lower hull."""

    j_start: int
    j_end: int
    hull_slope: Fraction

    @property
    def length(self):
        return self.j_end - self.j_start

    @property
    def root_valuation(self):
        return -self.hull_slope


class NewtonPolygon:
    """Lower hull of (j, val(c_j)); knows the root valuations it certifies."""

    def __init__(self, poly):
        pts = []
        for j, c in enumerate(poly.coeffs):
            v = c.val()
            if v is None:
                raise InsufficientPrecision(
                    f"coefficient of X^{j} has undecided valuation"
                )
            if v is not INF:
                pts.append((j, v))
        if not pts:
            raise ValueError("zero polynomial has no Newton polygon")
        if pts[0][0] != 0:
            raise ValueError("constant coefficient vanishes (zero is a root)")
        if pts[-1][0] != poly.degree:
            raise ValueError("leading coefficient vanishes")
        self.points = tuple(pts)
        self.vertices = tuple(_lower_hull(pts))
        segs = []
        for (j0, v0), (j1, v1) in zip(self.vertices, self.vertices[1:]):
            segs.append(Segment(j0, j1, Fraction(v1 - v0, j1 - j0)))
        self.segments = tuple(segs)

    @property
    def slopes(self):
        """Root valuations with multiplicity, non-increasing (hull order)."""
        out = []
        for s in self.segments:
            out.extend([s.root_valuation] * s.length)
        return tuple(out)

    def is_regular(self):
        """All segments length 1 with distinct integer slopes."""
        if any(s.length != 1 for s in self.segments):
            return False
        vals = [s.root_valuation for s in self.segments]
        if any(v.denominator != 1 for v in vals):
            return False
        return len(set(vals)) == len(vals)

    def segment_at(self, root_val):
        for s in self.segments:
            if s.root_valuation == root_val:
                return s
        return None


def _lower_hull(points):
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            px, py = p
            if (x2 - x1) * (py - y1) <= (px - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hensel_lift_root(poly, root_val, precision):
    """The unique root of the given valuation, known modulo u^precision.

    Requires the Newton polygon to have a length-1 integer-slope segment at
    ``root_val`` (so the root is simple and lives in F_q((u))); otherwise
    NotSimpleSegment.  Returns an exact element whenever an iterate is
    verified to be an exact root.
    """
    q = poly.q
    np_ = NewtonPolygon(poly)
    seg = np_.segment_at(Fraction(root_val))
    if seg is None or seg.length != 1 or seg.hull_slope.denominator != 1:
        raise NotSimpleSegment(
            f"no simple integer-valuation root at valuation {root_val}"
        )
    j = seg.j_start
    a_low = poly.coeffs[j].digits[0]
    a_high = poly.coeffs[j + 1].digits[0]
    # residual equation of a length-1 segment: a_high * c + a_low = 0 in F_q
    c = (-a_low * pow(a_high, q - 2, q)) % q
    lam = Laurent(q, int(root_val), (c,))

    dpoly = poly.derivative()
    for _ in range(64):
        exact_cand = Laurent(q, lam.lead, lam.digits)
        if poly(exact_cand).is_exact_zero:
            return exact_cand
        deriv = dpoly(lam)
        dv = deriv.val()
        if dv is None or dv is INF:
            raise SingularOrUndecidable(
                "derivative valuation undecided at the root"
            )
        working = precision + 2 * abs(dv) + 4 * abs(int(root_val)) + 12
        err = poly(lam)
        settled = lam.exact or lam.known_to >= precision
        if err.val_lower_bound() - dv >= precision and settled:
            cand = lam.truncate(precision)
            probe = Laurent(q, cand.lead, cand.digits)
            if poly(probe).is_exact_zero:
                return probe
            return cand
        # ask the inverse for just enough digits that the correction term
        # err/deriv is known modulo u^working, within deriv's capacity
        want = working + dv - err.val_lower_bound()
        if not deriv.exact:
            want = min(want, deriv.known_to - dv)
        lam = (lam - err * deriv.inv(max(want, dv + 1))).truncate(working)
    raise InsufficientPrecision("root lift did not converge")


@dataclass(frozen=True)
class EigenSystem:
    """Simple-spectrum data for a 3x3 matrix, ordered by eigenvalue valuation.

    ``valuations`` is strictly increasing, so ``vectors[0]`` spans the
    attracting fixed direction (largest eigenvalue norm) and ``vectors[2]``
    the repelling one.  Vectors are scaled to minimum coordinate valuation 0.
    """

    matrix: Mat
    eigenvalues: tuple
    vectors: tuple

    @property
    def valuations(self):
        return tuple(x.val() for x in self.eigenvalues)

    @property
    def basis(self):
        """Change-of-basis matrix P with the eigenvectors as columns."""
        return Mat.from_columns(self.vectors)

    def attracting_line_dual(self):
        """Covector cutting out the span of the two dominant directions."""
        return vec_cross(self.vectors[0], self.vectors[1])

    def repelling_line_dual(self):
        """Covector cutting out the span of the two contracted directions."""
        return vec_cross(self.vectors[1], self.vectors[2])


def is_regular(mat):
    """True when the char poly's Newton polygon certifies 3 simple roots
    of distinct integer valuations."""
    try:
        return NewtonPolygon(mat.char_poly()).is_regular()
    except ValueError:
        return False


def eigen_flags(mat, precision=None):
    """EigenSystem of a regular 3x3 matrix.

    ``precision`` bounds the digits carried by lifted eigenvalues; exact
    roots (detected during lifting) stay exact.  Defaults to twice the
    valuation spread of the spectrum plus a margin.
    """
    poly = mat.char_poly()
    np_ = NewtonPolygon(poly)
    if not np_.is_regular():
        raise NotSimpleSegment(
            f"spectrum is not regular: root valuations {np_.slopes}"
        )
    wvals = sorted(int(v) for v in np_.slopes)
    if precision is None:
        precision = 2 * (wvals[-1] - wvals[0]) + 16
    lams = tuple(hensel_lift_root(poly, w, precision) for w in wvals)
    vectors = []
    for lam in lams:
        m = mat - Mat.identity(mat.q).scale_elem(lam)
        best = None
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cand = vec_cross(m.rows[i], m.rows[j])
            v = vec_min_val(cand)
            if v is None or v is INF:
                continue
            if best is None or v < best[0]:
                best = (v, cand)
        if best is None:
            raise InsufficientPrecision(
                "no decidable nonzero row cross product for an eigenvector"
            )
        v, cand = best
        vectors.append(tuple(x.shift(-v) for x in cand))
    return EigenSystem(mat, lams, tuple(vectors))
