"""Projective points, residue balls, window/cone membership."""

import random

import pytest

from pingpong3 import projgeom
from pingpong3.errors import (
    AllCoordinatesVanish,
    InsufficientLevel,
    InsufficientPrecision,
)
from pingpong3.field import INF, Field, Laurent
from pingpong3.linalg import Mat, vec_cross, vec_dot
from pingpong3.projgeom import (
    ProjLine,
    ProjPoint,
    ResidueBall,
    ball_count,
    ball_of_point,
    enumerate_balls,
    image_ball,
    in_slope_u_cone,
    in_unit_window,
    line_has_slope_u,
)

from oracles import slope_u_cone_eager, unit_window_eager

F2 = Field(2)
F3 = Field(3)


def pt(field, *texts):
    return ProjPoint(tuple(field.parse(t) for t in texts))


def perturbed(field, coords, level, rng):
    """A random point of the same level ball (tails of valuation >= level)."""
    out = []
    for x in coords:
        tail_digits = [rng.randrange(field.q) for _ in range(3)]
        out.append(x + field.from_int_poly(tail_digits, lead=level))
    return out


# -- points and normalization -------------------------------------------------


def test_point_normalization():
    p = ProjPoint((F2.u(2), F2.u(3), F2.u(4)))
    assert [str(c) for c in p.coords] == ["1", "u", "u^2"]
    assert p.pivot == 0
    # pivot priority: z before y before x
    assert pt(F2, "u", "1 + u", "u^2").pivot == 1
    assert pt(F2, "1", "1", "1").pivot == 2
    p3 = ProjPoint((F3.monomial(2, 2), F3.zero(), F3.zero()))
    assert [str(c) for c in p3.coords] == ["1", "0", "0"]


def test_point_rejects_zero_and_undecided():
    with pytest.raises(AllCoordinatesVanish):
        ProjPoint((F2.zero(), F2.zero(), F2.zero()))
    with pytest.raises(InsufficientPrecision):
        ProjPoint((F2.unknown(2), F2.unknown(3), F2.zero()))


def test_point_equality_is_projective():
    a = pt(F2, "1", "1 + u", "u^2")
    b = ProjPoint(tuple(x.shift(5) for x in a.coords))
    assert a == b
    assert a.equal(pt(F2, "1", "1", "u^2")) is False
    fuzzy = ProjPoint((F2.one() + F2.unknown(4), F2.one(), F2.one()))
    assert fuzzy.equal(pt(F2, "1", "1", "1")) is None


def test_dist_exponent():
    x = pt(F2, "1", "1", "1")
    assert x.dist_exponent(pt(F2, "1 + u", "1", "1")) == 1
    assert x.dist_exponent(pt(F2, "1 + u^3", "1 + u^3", "1 + u^3")) is INF
    assert x.dist_exponent(pt(F2, "u", "1", "u")) == 0
    y = pt(F2, "1 + u^2", "1", "1")
    assert x.dist_exponent(y) == y.dist_exponent(x) == 2


# -- lines ---------------------------------------------------------------------


def test_line_through_points():
    a = pt(F2, "1", "1", "1")
    b = pt(F2, "1", "u", "0")
    line = ProjLine(vec_cross(a.coords, b.coords))
    assert vec_dot(line.dual, a.coords).is_exact_zero
    assert vec_dot(line.dual, b.coords).is_exact_zero
    assert line_has_slope_u(line) is True


# -- window and cone membership -------------------------------------------------


def test_unit_window_membership():
    assert in_unit_window(pt(F2, "1", "1", "1").coords) is True
    assert in_unit_window(pt(F2, "1 + u^2", "1 + u^3", "1").coords) is True
    assert in_unit_window(pt(F2, "1 + u", "1", "1").coords) is False
    assert in_unit_window(pt(F2, "1", "u", "0").coords) is False
    # invariance under scaling of the raw coordinates
    y = tuple(x.shift(-4) for x in pt(F2, "1 + u^2", "1", "1").coords)
    assert in_unit_window(y) is True
    # abstract tails: decidable exactly when the bound is strong enough
    lam = F2.unknown(2)
    assert in_unit_window((F2.one() + lam, F2.one(), F2.one())) is True
    assert in_unit_window((F2.one() + F2.unknown(1), F2.one(), F2.one())) is None


def test_slope_cone_membership():
    x = pt(F2, "1", "1", "1").coords
    assert in_slope_u_cone(x, pt(F2, "1 + u", "1 + u^2", "1").coords) is True
    assert in_slope_u_cone(x, pt(F2, "1 + u", "1", "1").coords) is False
    assert in_slope_u_cone(x, x) is True
    # vertical line (slope infinity)
    assert in_slope_u_cone(x, pt(F2, "1", "1 + u^2", "1").coords) is False
    # direction [1 : u : 0] is the slope-u point at infinity
    assert in_slope_u_cone(x, pt(F2, "1", "u", "0").coords) is True
    # undecidable when the slope is only known to O(u)
    fuzzy = (F2.parse("1 + u"), F2.one() + F2.unknown(1).shift(1), F2.one())
    assert in_slope_u_cone(x, fuzzy) is None


def _cone_pairs(field, rng):
    """Point pairs that reach every branch of the slope-cone test."""
    q = field.q

    def elem(lo=-2, hi=2):
        digits = [rng.randrange(q) for _ in range(rng.randint(1, 6))]
        return field.from_int_poly(digits, lead=rng.randint(lo, hi))

    def point():
        return (elem(), elem(), elem())

    def truncated(p):
        return tuple(c.truncate(rng.randint(-1, 6)) if rng.random() < 0.5 else c for c in p)

    pairs = []
    for _ in range(60):
        x, y = point(), point()
        # y on the line through [x0 : x1 : 1] of slope u + u^2 r
        a, b, t, r = elem(), elem(), elem(), elem(0, 3)
        ax = (a, b, field.one())
        cone = (a + t, b + t * (field.u() + field.u(2) * r), field.one())
        pairs += [(x, y), (x, x), (ax, cone), (truncated(x), y), (x, truncated(y))]
        pairs += [(truncated(ax), cone), (ax, truncated(cone))]
        # both points at infinity: n_0 = n_1 = 0 exactly, n_2 decided or not
        ix, iy = (x[0], x[1], field.zero()), (y[0], y[1], field.zero())
        pairs += [(ix, iy), (truncated(ix), iy), (ix, truncated(iy))]
    return pairs


@pytest.mark.parametrize("q", [2, 3, 5])
def test_slope_cone_reads_n2_lazily_like_the_eager_oracle(q):
    field = Field(q)
    seen = {True: 0, False: 0, None: 0, "n2 read": 0, "n2 undecided": 0}
    for x, y in _cone_pairs(field, random.Random(40 + q)):
        verdict = in_slope_u_cone(x, y)
        assert verdict is slope_u_cone_eager(x, y), (x, y)
        seen[verdict] += 1
        n = vec_cross(x, y)
        if not (n[0].known_nonzero() or n[1].known_nonzero()):
            seen["n2 read"] += 1
            if n[0].is_exact_zero and n[1].is_exact_zero and n[2].val() is None:
                seen["n2 undecided"] += 1
    assert min(seen.values()) > 0, seen
    one = field.one()
    x = (one, one, one)
    assert in_slope_u_cone(x, x) is True
    infinity = (field.u(-1), one, field.zero()), (one, field.u(3), field.zero())
    n = vec_cross(*infinity)
    assert n[0].is_exact_zero and n[1].is_exact_zero and n[2].known_nonzero()
    assert in_slope_u_cone(*infinity) is slope_u_cone_eager(*infinity) is True
    fuzzy = (field.parse("1 + u"), one + field.unknown(1).shift(1), one)
    assert in_slope_u_cone(x, fuzzy) is slope_u_cone_eager(x, fuzzy) is None


def _tie_pairs(field, rng):
    """Point pairs of coordinate valuations in {-1, 0, 1}, so that terms of
    n_0 and n_1 often tie; some coordinates truncated or wholly unknown."""
    q = field.q

    def coord():
        lead = rng.randint(-1, 1)
        if rng.random() < 0.1:
            return field.unknown(lead)
        digits = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(rng.randint(0, 4))]
        x = field.from_int_poly(digits, lead=lead)
        return x.truncate(lead + rng.randint(1, 3)) if rng.random() < 0.3 else x

    return [(tuple(coord() for _ in range(3)), tuple(coord() for _ in range(3))) for _ in range(150)]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_slope_cone_from_term_valuations_agrees_with_the_eager_oracle(q, monkeypatch):
    # the branch a call took: which sums it formed (n_0 and n_1 each show
    # as their first product), or that it fell through to all three sums,
    # and the Laurent sums (``_combine`` calls) formed before and after
    products, sums, fell = [], [], []
    mul, combine, sums_cone = Laurent.__mul__, Laurent._combine, projgeom._cone_from_sums
    monkeypatch.setattr(Laurent, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    monkeypatch.setattr(Laurent, "_combine", lambda *a: sums.append(1) or combine(*a))
    fall = lambda *a: fell.append(len(sums)) or sums_cone(*a)  # noqa: E731
    monkeypatch.setattr(projgeom, "_cone_from_sums", fall)
    field = Field(q)
    rng = random.Random(80 + q)
    seen, handed_on = set(), 0
    for x, y in _tie_pairs(field, rng) + _cone_pairs(field, rng):
        products.clear()
        sums.clear()
        fell.clear()
        verdict, n_sums = in_slope_u_cone(x, y), len(sums)
        times = {
            name: sum(f is a and g is b for f, g in products)
            for name, (a, b) in (("n0", (x[1], y[2])), ("n1", (x[2], y[0])), ("n2", (x[0], y[1])))
        }
        formed = [name for name in ("n0", "n1") if times[name]]
        branch = "all three sums" if fell else "+".join(formed) or "no sum"
        assert verdict is slope_u_cone_eager(x, y), (x, y, branch)
        # no sum is formed twice: a fall-through forms n_0, n_1, at most
        # n_2 and c, and each once, whatever it formed before
        assert max(times.values()) <= 1, (x, y, branch)
        if branch == "all three sums":
            assert n_sums <= 3 + times["n2"], (x, y)
            handed_on += fell[0] > 0
        else:
            assert verdict is False and n_sums == len(formed), (x, y, branch)
        seen.add((branch, all(c.exact for c in x + y)))
    for branch in ("no sum", "n0", "n1", "all three sums"):
        assert (branch, False) in seen, (branch, seen)
    # fall-throughs that had formed n_0 or n_1 before, and handed it on
    assert handed_on > 0
    # the least bound of c belongs to x_2 y_1, whose valuation is undecided
    x = tuple(field.parse(t) for t in ("u + u^2", "u + u^2", "1"))
    y = tuple(field.parse(t) for t in ("1 + u + u^2", "O(1)", "1"))
    assert in_slope_u_cone(x, y) is slope_u_cone_eager(x, y) is None


@pytest.mark.parametrize("q", [2, 3, 5])
def test_unit_window_agrees_with_the_eager_oracle(q):
    field = Field(q)
    seen = {True: 0, False: 0, None: 0}
    rng = random.Random(60 + q)
    points = [p for pair in _cone_pairs(field, rng) for p in pair]
    # points of the window itself, some of them truncated
    for _ in range(60):
        tails = [field.from_int_poly([rng.randrange(q) for _ in range(3)], lead=2) for _ in range(3)]
        scale = rng.randint(-3, 3)
        p = tuple((field.one() + t).shift(scale) for t in tails)
        points += [p, tuple(c.truncate(rng.randint(-3, 6)) for c in p)]
    for p in points:
        if all(c.is_exact_zero for c in p):
            continue
        verdict = in_unit_window(p)
        assert verdict is unit_window_eager(p), p
        seen[verdict] += 1
    assert min(seen.values()) > 0, seen


def test_cone_membership_not_constant_on_level2_balls():
    # y and y' share a level-2 ball yet differ on cone membership: this is
    # why verification levels must be >= 3
    x = pt(F2, "1", "1", "1")
    y = pt(F2, "1 + u", "1 + u^2", "1")
    y2 = pt(F2, "1 + u", "1", "1")
    assert ball_of_point(y, 2) == ball_of_point(y2, 2)
    assert in_slope_u_cone(x.coords, y.coords) is True
    assert in_slope_u_cone(x.coords, y2.coords) is False


def test_cone_membership_constant_on_distant_level3_balls():
    # constancy holds exactly on balls with distance exponent <= M - 2
    # from the apex; for M = 3 that means distance >= q^-1
    rng = random.Random(73)
    x = pt(F2, "1", "1", "1")
    for ball in enumerate_balls(2, 3):
        rep = ball.vector()
        e = x.dist_exponent(ball.point())
        if e > 1:
            continue
        base = in_slope_u_cone(x.coords, rep)
        assert base is not None
        for _ in range(4):
            y = perturbed(F2, rep, 3, rng)
            assert in_slope_u_cone(x.coords, y) is base


def test_cone_membership_mixes_on_level3_balls_adjacent_to_apex():
    # the ball of [1 + u^2 : 1 : 1] is at distance q^-2 from the apex and
    # contains points on both sides of the cone
    x = pt(F2, "1", "1", "1")
    rep = pt(F2, "1 + u^2", "1", "1")
    assert x.dist_exponent(rep) == 2
    inside = pt(F2, "1 + u^2 + u^3", "1 + u^3", "1")
    assert ball_of_point(inside, 3) == ball_of_point(rep, 3)
    assert in_slope_u_cone(x.coords, rep.coords) is False
    assert in_slope_u_cone(x.coords, inside.coords) is True


# -- balls ----------------------------------------------------------------------


def test_ball_counts():
    for q, level, want in ((2, 1, 7), (2, 2, 28), (2, 3, 112), (3, 1, 13), (3, 2, 117)):
        balls = list(enumerate_balls(q, level))
        assert len(balls) == want == ball_count(q, level)
        assert len(set(balls)) == want
    assert ball_count(2, 10) == 1835008
    assert ball_count(3, 6) == 767637


def test_balls_partition_the_plane():
    rng = random.Random(79)
    for q in (2, 3):
        field = Field(q)
        balls = list(enumerate_balls(q, 2))
        # canonical representatives map back to their own ball...
        for b in balls:
            assert ball_of_point(b.point(), 2) == b
        # ...repelling representatives of distinct balls are >= q^-2 apart
        reps = [b.point() for b in balls]
        for _ in range(150):
            i, j = rng.randrange(len(reps)), rng.randrange(len(reps))
            d = reps[i].dist_exponent(reps[j])
            if i == j:
                assert d is INF
            else:
                assert d < 2
        # ...and nearby points land in the same ball
        for _ in range(40):
            b = balls[rng.randrange(len(balls))]
            y = ProjPoint(perturbed(field, b.vector(), 2, rng))
            assert ball_of_point(y, 2) == b


def test_ball_text_roundtrip():
    p = pt(F2, "u", "1 + u", "u^2")
    ball = ball_of_point(p, 2)
    assert ball.stratum == 1
    assert ball.text() == "2:01/10/00"
    assert ball.point() == ProjPoint((F2.u(1), F2.one(), F2.zero()))


def test_ball_of_point_requires_precision():
    fuzzy = ProjPoint((F2.one() + F2.unknown(2), F2.one(), F2.one()))
    assert ball_of_point(fuzzy, 2) == ball_of_point(pt(F2, "1", "1", "1"), 2)
    with pytest.raises(InsufficientPrecision):
        ball_of_point(fuzzy, 3)


def test_image_ball():
    g = Mat.diagonal([F2.u(2), F2.one(), F2.u(-2)])
    src = ball_of_point(pt(F2, "1", "1", "1"), 6)
    img = image_ball(g, src)
    assert img.level == 2
    assert img == ball_of_point(pt(F2, "u^4", "u^2", "1"), 2)
    rng = random.Random(83)
    for _ in range(10):
        y = ProjPoint(perturbed(F2, src.vector(), 6, rng))
        gy = ProjPoint(g.matvec(y.coords))
        assert ball_of_point(gy, 2) == img
    with pytest.raises(InsufficientLevel):
        image_ball(g ** 3, src)


def test_residue_balls_refuse_a_level_below_one_and_a_malformed_rep():
    with pytest.raises(InsufficientLevel):
        ResidueBall(2, 0, ((), (), ()))
    for rep in [((1, 0), (0, 0)), ((1, 0), (0, 0), (0,)), ((1,), (0,), (0,))]:
        with pytest.raises(ValueError, match="rep must hold"):
            ResidueBall(2, 2, rep)
    assert len({ResidueBall(2, 2, ((0, 1), (1, 0), (1, 0))) for _ in range(2)}) == 1


def test_image_ball_isometry_for_integral_unimodular():
    # SL_3(O) preserves levels: mu = (0,0,0)
    rng = random.Random(89)
    m = Mat.identity(2)
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        m = m * Mat.elementary(2, i, j, Laurent(2, rng.randrange(0, 3), (1,)))
    assert m.cartan_projection() == (0, 0, 0)
    src = ball_of_point(pt(F2, "1 + u", "u", "1"), 4)
    assert image_ball(m, src).level == 4
