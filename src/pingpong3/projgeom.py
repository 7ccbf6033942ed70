"""The projective plane over F_q((u)) at residue-ball resolution.

Points carry homogeneous coordinates over the valuation ring normalized so
the minimum coordinate valuation is 0; the projective distance
d([v],[w]) = ||v ^ w|| / (||v|| ||w||) is then q^(-e) with
e = min-valuation of the cross product.  Closed balls of radius q^(-M)
("level-M balls") partition the plane into q^(2(M-1)) (q^2 + q + 1) cells,
enumerated chart by chart: [X:Y:1] with X, Y integral, then [X:1:Z] with
Z in uO, then [1:Y:Z] with Y, Z in uO.  The same chart priority (last
coordinate first) picks the canonical representative of a point's ball.

Membership predicates are tri-state (True / False / None = undecidable at
the carried precision) and are raw-coordinate tests, never divisions:

* ``in_unit_window(y)``: the level-2 ball around [1:1:1], i.e. all pairwise
  coordinate differences have valuation >= 2 + min-valuation;
* ``in_slope_u_cone(x, y)``: the line joining x to y has slope congruent
  to u modulo u^2 (plus y = x itself).  With n = x cross y this reads
  val(n_0 + u n_1) >= val(n_1) + 2.  Both valuations are first read from
  the terms x_i y_j, each of valuation val(x_i) + val(y_j) (a lower bound
  when a factor has no known nonzero digit): a sum whose least term is
  unique and known has that term's valuation.  A sum is formed only where
  its least terms tie; n_2 only when neither n_0 nor n_1 is known nonzero,
  to tell y = x (True) from undecided (None).

Slope-cone membership with apex x is constant on a level-M ball B whenever
d(x, B) = q^(-e) with e <= M - 2: perturbing y within B moves the slope by
at most q^(e-M), which cannot cross the width-u^2 cone condition.  For
e > M - 2 membership genuinely mixes (already on level-2 balls adjacent to
the apex), which is why verification levels are required to be >= 3
downstream and why ball classifications must track distance to the apexes.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import (
    AllCoordinatesVanish,
    InsufficientLevel,
    InsufficientPrecision,
)
from .field import INF, Laurent
from .linalg import vec_cross, vec_min_val

# pivot preference: z, then y, then x -- matches the chart enumeration order
_PIVOT_ORDER = (2, 1, 0)


def _pivot_index(coords, vm):
    for i in _PIVOT_ORDER:
        if coords[i].val() == vm:
            return i
    raise InsufficientPrecision("no coordinate achieves the minimum valuation decidably")


class ProjPoint:
    """A point of P^2(k), normalized to integral coordinates of min val 0."""

    __slots__ = ("q", "coords", "pivot")

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("projective plane points need 3 coordinates")
        q = coords[0].q
        vm = vec_min_val(coords)
        if vm is None:
            raise InsufficientPrecision("minimum coordinate valuation undecided")
        if vm is INF:
            raise AllCoordinatesVanish("all homogeneous coordinates vanish")
        pivot = _pivot_index(coords, vm)
        # exact rescaling by the inverse of the pivot's leading monomial
        c = coords[pivot].digits[0]
        cinv = pow(c, -1, q)
        coords = tuple(x.shift(-vm).scale(cinv) for x in coords)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "pivot", pivot)

    def __setattr__(self, name, value):
        raise AttributeError("points are immutable")

    def canonical_digits(self, depth):
        """Digit tuples (length ``depth``) of coordinates divided by the pivot.

        This is the canonical representative of the point's level-``depth``
        ball: the pivot coordinate becomes exactly 1.
        """
        p = self.coords[self.pivot]
        pinv = p.inv(0) if p.is_monomial() else p.inv(depth)
        out = []
        for i, x in enumerate(self.coords):
            if i == self.pivot:
                out.append((1,) + (0,) * (depth - 1))
                continue
            y = x * pinv
            digs = []
            for e in range(depth):
                d = y.digit_at(e)
                if d is None:
                    raise InsufficientPrecision(
                        f"coordinate digit at u^{e} unknown at level {depth}"
                    )
                digs.append(d)
            out.append(tuple(digs))
        return tuple(out)

    def equal(self, other):
        """Tri-state projective equality (vanishing of the cross product)."""
        n = vec_cross(self.coords, other.coords)
        verdict = True
        for x in n:
            if x.known_nonzero():
                return False
            if not x.is_exact_zero:
                verdict = None
        return verdict

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.equal(other) is True

    def __hash__(self):
        raise TypeError("points are not hashable; use ball_of_point for keys")

    def dist_exponent(self, other):
        """e with d(self, other) = q^(-e); INF when equal, None if undecided."""
        return vec_min_val(vec_cross(self.coords, other.coords))

    def __repr__(self):
        inner = " : ".join(str(x) for x in self.coords)
        return f"[{inner}]"


class ProjLine:
    """A line of P^2(k) by dual coordinates, normalized like a point."""

    __slots__ = ("q", "dual")

    def __init__(self, dual):
        pt = ProjPoint(dual)
        object.__setattr__(self, "q", pt.q)
        object.__setattr__(self, "dual", pt.coords)

    def __setattr__(self, name, value):
        raise AttributeError("lines are immutable")

    def __repr__(self):
        inner = " : ".join(str(x) for x in self.dual)
        return f"Line[{inner}]"


# -- membership predicates (tri-state, division-free) -------------------------


def in_unit_window(coords):
    """Level-2 ball around [1:1:1]: pairwise diffs of valuation >= vm + 2.
    vm is the least valuation, ``vec_min_val``'s when one is undecided."""
    vals = coords[0].val(), coords[1].val(), coords[2].val()
    vm = min(vals) if None not in vals else vec_min_val(coords)
    if vm is None:
        return None
    if vm is INF:
        raise AllCoordinatesVanish("zero vector has no projective class")
    threshold = vm + 2
    verdict = True
    for i in range(3):
        for j in range(i + 1, 3):
            vi, vj = vals[i], vals[j]
            if vi is not None and vj is not None and vi != vj and min(vi, vj) < threshold:
                return False  # the lower leading digit survives the difference
            d = coords[i] - coords[j]
            if d.val_lower_bound() >= threshold:
                continue
            v = d.val()
            if v is not None and v < threshold:
                return False
            verdict = None
    return verdict


def _slope_congruent_to_u(n0, n1):
    """Tri-state for the slope -n0/n1 in u(1 + um), i.e. val(n0 + u n1) >= val(n1) + 2."""
    vden = n1.val()
    if vden is None:
        return None
    comb = n0 + n1.shift(1)
    threshold = INF if vden is INF else vden + 2
    if comb.val_lower_bound() >= threshold:
        return True
    cv = comb.val()
    if cv is not None and cv < threshold:
        return False
    return None


def _sum_val(*terms):
    """Valuation of a sum from its terms' (bound, known) pairs: the least
    bound when exactly one term reaches it and that term's valuation is
    known, else None (a tie, or an undecided term at the least bound)."""
    low = min(terms)[0]
    at = [known for bound, known in terms if bound == low]
    return low if at == [True] else None


def in_slope_u_cone(x_coords, y_coords):
    """Is y on a line through x of slope congruent to u (or y = x itself)?

    With n = x cross y the test is val(c) >= val(n_1) + 2 for
    c = n_0 + u n_1.  The terms of n_1 are x_2 y_0 and x_0 y_2; those of c
    are x_1 y_2, x_2 y_1 and u times n_1's.  A term has valuation
    val(x_i) + val(y_j) when both factors have a known nonzero digit, else
    only that lower bound.  When one term of a sum lies strictly below
    every other term's bound and its valuation is known, the formed sum
    has that valuation: at that exponent every other term is known and
    zero, so the sum's first known digit is that term's.  Where the least
    terms tie, only the tied sum is formed and read as one term: n_1 when
    its two terms tie, and n_0 when its two terms tie and val(c) is still
    unread.  A val(c) read this way is at most val(n_1) + 1, the valuation
    of u n_1's least term, so the verdict is False.  When n_1 is undecided
    or zero, or c's least term is still tied or undecided, the sums not yet
    formed are formed and all three read as before.  So every verdict is
    the one the formed sums give.
    """
    (x0, x1, x2), (y0, y1, y2) = x_coords, y_coords
    # each coordinate's valuation bound, and whether it is the valuation
    a0, h0 = (x0.lead, True) if x0.digits else (x0.known_to, False)
    a1, h1 = (x1.lead, True) if x1.digits else (x1.known_to, False)
    a2, h2 = (x2.lead, True) if x2.digits else (x2.known_to, False)
    b0, k0 = (y0.lead, True) if y0.digits else (y0.known_to, False)
    b1, k1 = (y1.lead, True) if y1.digits else (y1.known_to, False)
    b2, k2 = (y2.lead, True) if y2.digits else (y2.known_to, False)
    s, t = (a2 + b0, h2 and k0), (a0 + b2, h0 and k2)
    n0 = n1 = None  # the sums formed here, handed on if the call falls through
    if s[0] == t[0]:
        n1 = x2 * y0 - x0 * y2
        vden = n1.val()
        n1_terms = ((vden, True),)
    else:
        vden = _sum_val(s, t)
        n1_terms = s, t
    if vden not in (None, INF):
        un1_terms = [(bound + 1, known) for bound, known in n1_terms]
        c, d = (a1 + b2, h1 and k2), (a2 + b1, h2 and k1)
        cv = _sum_val(c, d, *un1_terms)
        if cv is None and c[0] == d[0]:
            n0 = x1 * y2 - x2 * y1
            cv = _sum_val((n0.val_lower_bound(), n0.known_nonzero()), *un1_terms)
        if cv is not None:
            return False
    return _cone_from_sums(x_coords, y_coords, n0, n1)


def _cone_from_sums(x_coords, y_coords, n0=None, n1=None):
    """``in_slope_u_cone`` with n_0, n_1 and c formed; n_0 and n_1 only
    where they are not given."""
    (x0, x1, x2), (y0, y1, y2) = x_coords, y_coords
    n0 = x1 * y2 - x2 * y1 if n0 is None else n0
    n1 = x2 * y0 - x0 * y2 if n1 is None else n1
    if not (n0.known_nonzero() or n1.known_nonzero()):
        n2 = x0 * y1 - x1 * y0
        if not n2.known_nonzero():
            return True if n0.is_exact_zero and n1.is_exact_zero and n2.is_exact_zero else None
    # slope of the joining line is -n_0 / n_1
    return _slope_congruent_to_u(n0, n1)


def line_has_slope_u(line):
    """Does the line (dual coords) have affine slope congruent to u?"""
    return _slope_congruent_to_u(line.dual[0], line.dual[1])


# -- residue balls -------------------------------------------------------------


class ResidueBall(NamedTuple("ResidueBall", [("q", int), ("level", int), ("rep", tuple)])):
    """A level-M ball, keyed by its canonical representative's digits.

    ``rep`` holds three digit tuples of length ``level`` (coefficients of
    u^0 .. u^(level-1)); exactly one coordinate is the pivot (1, 0, ..., 0),
    the ones after it in the order z, y, x vanish at u^0.
    """

    __slots__ = ()

    def __new__(cls, q, level, rep):
        if level < 1:
            raise InsufficientLevel("balls need level >= 1")
        if len(rep) != 3 or any(len(d) != level for d in rep):
            raise ValueError("rep must hold 3 digit tuples of length = level")
        return super().__new__(cls, q, level, rep)

    @property
    def stratum(self):
        """Pivot coordinate index (2, 1 or 0)."""
        one = (1,) + (0,) * (self.level - 1)
        for i in _PIVOT_ORDER:
            if self.rep[i][0] == 0:
                continue  # constrained to uO, pivot comes later in priority
            if self.rep[i] == one:
                return i
            break
        raise ValueError("rep is not canonical")

    def vector(self):
        """The canonical representative as an exact integral vector."""
        return tuple(Laurent(self.q, 0, d) for d in self.rep)

    def point(self):
        return ProjPoint(self.vector())

    def text(self):
        groups = ("".join(str(d) for d in digs) for digs in self.rep)
        return f"{self.level}:" + "/".join(groups)

    def __str__(self):
        return self.text()


def ball_of_point(point, level):
    return ResidueBall(point.q, level, point.canonical_digits(level))


def ball_count(q, level):
    """Number of level-M balls: q^(2(M-1)) (q^2 + q + 1)."""
    return q ** (2 * (level - 1)) * (q * q + q + 1)


def window_ball_count(q, level):
    """Number of level-M balls inside the unit window: q^(2(M-2))."""
    return q ** (2 * (level - 2))


def enumerate_balls(q, level):
    """All level-M balls, deterministically: chart z, then y, then x;
    within a chart, lexicographic in the digit tuples."""
    one = (1,) + (0,) * (level - 1)
    free = list(itertools.product(range(q), repeat=level))
    sub = [d for d in free if d[0] == 0]  # coordinates constrained to uO
    for xd in free:
        for yd in free:
            yield ResidueBall(q, level, (xd, yd, one))
    for xd in free:
        for zd in sub:
            yield ResidueBall(q, level, (xd, one, zd))
    for yd in sub:
        for zd in sub:
            yield ResidueBall(q, level, (one, yd, zd))


def image_ball(mat, ball):
    """A ball containing the image of ``ball`` under ``mat``.

    Uses the crude Lipschitz exponent mu_1 - mu_3 (norm of the matrix times
    norm of its inverse), so the result lives at level
    M' = M - (mu_1 - mu_3); InsufficientLevel when that drops below 1.
    Downstream verification sharpens this per ball.
    """
    mu = mat.cartan_projection()
    new_level = ball.level - (mu[0] - mu[-1])
    if new_level < 1:
        raise InsufficientLevel(
            f"level {ball.level} ball maps only into a level {new_level} set"
        )
    center = ProjPoint(mat.matvec(ball.vector()))
    return ball_of_point(center, new_level)
