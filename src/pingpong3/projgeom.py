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
* ``in_slope_u_cone(x, y)``: the line jointing x to y has slope congruent
  to u modulo u^2 (plus y = x itself).  With n = x cross y this reads
  val(n_0 + u n_1) >= val(n_1) + 2.

Slope-cone membership with apex x is constant on a level-M ball B whenever
d(x, B) = q^(-e) with e <= M - 2: perturbing y within B moves the slope by
at most q^(e-M), which cannot cross the width-u^2 cone condition.  For
e > M - 2 membership genuinely mixes (already on level-2 balls adjacent to
the apex), which is why verification levels are required to be >= 3
downstream and why ball classifications must track distance to the apexes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    AllCoordinatesVanish,
    EqualPoints,
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

    @staticmethod
    def through(p1, p2):
        n = vec_cross(p1.coords, p2.coords)
        try:
            return ProjLine(n)
        except AllCoordinatesVanish:
            raise EqualPoints("no unique line through equal points") from None

    def __repr__(self):
        inner = " : ".join(str(x) for x in self.dual)
        return f"Line[{inner}]"


# -- membership predicates (tri-state, division-free) -------------------------


def in_unit_window(coords):
    """Level-2 ball around [1:1:1]: pairwise diffs of valuation >= vm + 2."""
    vm = vec_min_val(coords)
    if vm is None:
        return None
    if vm is INF:
        raise AllCoordinatesVanish("zero vector has no projective class")
    threshold = vm + 2
    verdict = True
    for i in range(3):
        for j in range(i + 1, 3):
            d = coords[i] - coords[j]
            if d.val_lower_bound() >= threshold:
                continue
            v = d.val()
            if v is not None and v < threshold:
                return False
            verdict = None
    return verdict


def _slope_congruent_to_u(num, den):
    """Tri-state for num/den in u(1 + um), i.e. val(num - u den) >= val(den) + 2."""
    vden = den.val()
    if vden is None:
        return None
    comb = num - den.shift(1)
    threshold = INF if vden is INF else vden + 2
    if comb.val_lower_bound() >= threshold:
        return True
    cv = comb.val()
    if cv is not None and cv < threshold:
        return False
    return None


def in_slope_u_cone(x_coords, y_coords):
    """Is y on a line through x of slope congruent to u (or y = x itself)?"""
    n = vec_cross(x_coords, y_coords)
    if all(c.is_exact_zero for c in n):
        return True
    if not any(c.known_nonzero() for c in n):
        return None
    # slope of the joining line is -n_0 / n_1
    return _slope_congruent_to_u(-n[0], n[1])


def line_has_slope_u(line):
    """Does the line (dual coords) have affine slope congruent to u?"""
    a, b = line.dual[0], line.dual[1]
    return _slope_congruent_to_u(-a, b)


# -- residue balls -------------------------------------------------------------


@dataclass(frozen=True)
class ResidueBall:
    """A level-M ball, keyed by its canonical representative's digits.

    ``rep`` holds three digit tuples of length ``level`` (coefficients of
    u^0 .. u^(level-1)); exactly one coordinate is the pivot (1, 0, ..., 0),
    the ones after it in the order z, y, x vanish at u^0.
    """

    q: int
    level: int
    rep: tuple

    def __post_init__(self):
        if self.level < 1:
            raise InsufficientLevel("balls need level >= 1")
        if len(self.rep) != 3 or any(len(d) != self.level for d in self.rep):
            raise ValueError("rep must hold 3 digit tuples of length = level")

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
