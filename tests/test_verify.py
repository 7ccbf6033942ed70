"""Exhaustive sweep verifier: bulk digit engine vs scalar predicates."""

import random

import numpy as np
import pytest

from pingpong3.errors import InsufficientLevel
from pingpong3.field import Field, Laurent
from pingpong3.linalg import Mat
from pingpong3.pingpong.generators import DiagPair, make_generators
from pingpong3.pingpong.regular import (
    contraction_power,
    find_regular,
    make_proximal,
)
from pingpong3.pingpong.verify import (
    CHUNK,
    PingPongReport,
    _ball_chunks,
    _ConeTest,
    _decode,
    _digit_dtype,
    _shift_add,
    _support,
    _taps,
    verify_pingpong,
)
from pingpong3.projgeom import (
    ball_count,
    enumerate_balls,
    in_slope_u_cone,
    in_unit_window,
)
from pingpong3.spectral import eigen_flags

PAIR2 = make_generators(2)


def test_synthetic_sweep_level_five():
    g = make_proximal(2) ** 5
    report = verify_pingpong(PAIR2, g, level=5, gamma_bound=2)
    assert report.passed
    assert report.domain_balls == 1408
    assert report.window_balls == 64
    assert report.gamma_elements == 24
    assert report.checked_images == 1408 * 2 + 64 * 24
    assert report.min_growth_margin >= 0
    assert report.min_cert_slack >= 0
    assert report.min_image_level >= 3
    assert "PASS" in report.summary()
    d = report.as_dict()
    assert d["passed"] is True and d["violations"] == {}


def test_ball_chunks_mirror_scalar_enumeration():
    for q, level in ((2, 3), (3, 3)):
        bulk = []
        for _, reps in _ball_chunks(q, level, chunk=100):
            for r in range(reps.shape[0]):
                groups = ("".join(str(int(d)) for d in reps[r, c]) for c in range(3))
                bulk.append(f"{level}:" + "/".join(groups))
        scalar = [ball.text() for ball in enumerate_balls(q, level)]
        assert bulk == scalar


BULK_QS = (2, 3, 5, 13, 31)


def test_digit_dtype_holds_every_digit_product():
    assert [_digit_dtype(q) for q in (2, 3, 11)] == [np.int8] * 3
    assert [_digit_dtype(q) for q in (13, 31, 181)] == [np.int16] * 3
    assert _digit_dtype(191) == np.int32
    for q in (2, 11, 13, 181, 191):
        assert (q - 1) ** 2 <= np.iinfo(_digit_dtype(q)).max


def _sample_reps(q, level, count, seed):
    """Every level-M ball representative when there are at most ``count``,
    else about ``count`` random ones spread over the three strata, decoded
    the way the sweep decodes them."""
    if ball_count(q, level) <= count:
        return np.concatenate([reps for _, reps in _ball_chunks(q, level, CHUNK)])
    rng = random.Random(seed)
    k = count // 3
    free, sub = q**level, q ** (level - 1)

    def draw(total, width):
        return _decode(q, np.array([rng.randrange(total) for _ in range(k)]), width)

    x = draw(free, level)
    reps = np.zeros((3 * k, 3, level), dtype=x.dtype)
    z_pivot, y_pivot, x_pivot = reps[:k], reps[k : 2 * k], reps[2 * k :]
    z_pivot[:, 0] = x
    z_pivot[:, 1] = draw(free, level)
    z_pivot[:, 2, 0] = 1
    y_pivot[:, 0] = draw(free, level)
    y_pivot[:, 1, 0] = 1
    y_pivot[:, 2, 1:] = draw(sub, level - 1)
    x_pivot[:, 0, 0] = 1
    x_pivot[:, 1, 1:] = draw(sub, level - 1)
    x_pivot[:, 2, 1:] = draw(sub, level - 1)
    return reps


def _vector(q, rep):
    """The exact representative vector of one digit-array row."""
    return tuple(Laurent(q, 0, [int(d) for d in rep[c]]) for c in range(3))


@pytest.mark.parametrize("q", BULK_QS)
def test_cone_test_agrees_with_scalar_predicate(q):
    level = 4
    eig = eigen_flags(make_proximal(q), precision=40)
    reps = _sample_reps(q, level, 1500, seed=q)
    ys = [_vector(q, rep) for rep in reps]
    in_u = np.array([in_unit_window(y) is True for y in ys])
    for apex in (eig.vectors[0], eig.vectors[2]):
        cone = _ConeTest(q, apex, depth=level + 8)
        verdict, _, _ = cone.verdicts(reps, ignore=in_u)
        for y, u, got in zip(ys, in_u, verdict):
            if not u:  # window balls may be undecidable in bulk; they are
                # excluded from the domain on other grounds
                assert in_slope_u_cone(apex, y) is bool(got)


def _bulk_rows(q, mat, reps, start, stop):
    """``_shift_add`` of each row of ``mat``'s digits in [start, stop)."""
    level = reps.shape[2]
    out = np.zeros((reps.shape[0], 3, stop - start + level - 1), dtype=np.int32)
    for i in range(3):
        taps = [_taps(mat.rows[i][j], start, stop) for j in range(3)]
        _shift_add(q, taps, reps, start, out[:, i])
    return out


@pytest.mark.parametrize("q", BULK_QS)
def test_image_shift_adds_agree_with_scalar_products(q):
    """The sweep's images under g and g^-1, digit for digit."""
    level = 4
    g = make_proximal(q) ** 2
    reps = _sample_reps(q, level, 300, seed=q + 1)
    for mat in (g, g.inverse()):
        lo, hi = _support(mat)
        bulk = _bulk_rows(q, mat, reps, lo, hi)
        for rep, rows in zip(reps, bulk):
            image = mat.matvec(_vector(q, rep))
            for i in range(3):
                scalar = [image[i].digit_at(lo + c) for c in range(rows.shape[1])]
                assert scalar == list(rows[i])


@pytest.mark.parametrize("q", BULK_QS)
def test_eigencoordinate_shift_adds_agree_with_scalar_products(q):
    """adj(basis) . y from truncated taps: exact on every column the sweep
    reads, i.e. below the tap horizon."""
    level = 4
    basis = eigen_flags(make_proximal(q), precision=40).basis
    adj = basis.adjugate()
    start, stop = adj.min_val(), adj.min_val() + 2 * level
    reps = _sample_reps(q, level, 300, seed=q + 2)
    bulk = _bulk_rows(q, adj, reps, start, stop)
    for rep, rows in zip(reps, bulk):
        coords = adj.matvec(_vector(q, rep))
        for i in range(3):
            scalar = [coords[i].digit_at(e) for e in range(start, stop)]
            assert None not in scalar
            assert scalar == list(rows[i][: stop - start])


def test_sweep_counts_match_scalar_recount():
    h = make_proximal(2)
    g = h * h
    report = verify_pingpong(PAIR2, g, level=4, gamma_bound=1)
    assert report.passed

    eig = eigen_flags(g, precision=32)
    ap, am = eig.vectors[0], eig.vectors[2]
    domain = window = 0
    for ball in enumerate_balls(2, 4):
        y = ball.vector()
        if in_unit_window(y) is True:
            window += 1
            continue
        if in_slope_u_cone(ap, y) is True or in_slope_u_cone(am, y) is True:
            continue
        domain += 1
        # the inclusion itself, through plain matrix-vector arithmetic
        assert in_unit_window(g.matvec(y)) is True
    assert report.domain_balls == domain
    assert report.window_balls == window


def test_epsilon_budget_violations_match_scalar_losses():
    g = make_proximal(2) ** 2
    report = verify_pingpong(PAIR2, g, level=4, gamma_bound=1, epsilon_exponent=0)
    assert not report.passed
    assert set(report.violation_counts) == {"epsilon"}

    eig = eigen_flags(g, precision=32)
    ap, am = eig.vectors[0], eig.vectors[2]
    losses = 0
    for ball in enumerate_balls(2, 4):
        y = ball.vector()
        if in_unit_window(y) is True:
            continue
        if in_slope_u_cone(ap, y) is True or in_slope_u_cone(am, y) is True:
            continue
        for mat in (g, g.inverse()):
            vm = min(x.val() for x in mat.matvec(y))
            if vm + mat.lognorm() > 0:
                losses += 1
    assert report.violation_counts["epsilon"] == losses


def test_identity_is_reported_not_proximal():
    report = verify_pingpong(PAIR2, Mat.identity(2), level=4, gamma_bound=1)
    assert not report.passed
    assert report.violation_counts == {"not-proximal": 1}
    assert report.examples[0].element == "g"


def test_unconjugated_diagonal_has_flags_out_of_position():
    f = Field(2)
    diag = Mat.diagonal([f.u(-2), f.one(), f.u(2)])
    report = verify_pingpong(PAIR2, diag, level=4, gamma_bound=1)
    assert not report.passed
    assert report.violation_counts == {"flags-out-of-position": 2}


def test_sweep_level_below_three_is_rejected():
    g = make_proximal(2) ** 2
    with pytest.raises(InsufficientLevel):
        verify_pingpong(PAIR2, g, level=2, gamma_bound=1)


def test_trivial_pair_fails_the_gamma_sweep():
    # if the rank-two factor does not move the window, every window ball
    # survives in place and the sweep must say so
    f = Field(2)
    ident = Mat.identity(2)
    one = f.one()
    lazy = DiagPair(ident, ident, (one, one), (one, one))
    g = make_proximal(2) ** 2
    report = verify_pingpong(lazy, g, level=4, gamma_bound=1)
    assert not report.passed
    assert report.violation_counts["gamma-window"] == 16 * 8


def test_report_violation_examples_are_capped():
    report = PingPongReport(2, 4, 1)
    for i in range(50):
        report.add_violation("kind", "g", f"4:ball{i}")
    assert report.total_violations == 50
    assert len(report.examples) == report.MAX_EXAMPLES


# -- diagonal toy model: the contraction power against a direct sweep --------


def _toy_domain_and_images(q, level, n):
    """Exhaustive check of the diagonal model at one power.

    h = diag(u^-2, 1, u^2) on level-M balls whose representative keeps the
    dominant coordinate within one digit of the minimum; returns how many
    images miss the level-2 ball around e1 (both affine coordinates in
    u^2 O).
    """
    f = Field(q)
    h = Mat.diagonal([f.u(-2), f.one(), f.u(2)])
    misses = 0
    for ball in enumerate_balls(q, level):
        y = ball.vector()
        vm = min(x.val() for x in y)
        v1 = y[0].val()
        if v1 > vm + 1:
            continue
        img = h.matvec(y)
        for _ in range(n - 1):
            img = h.matvec(img)
        iv = img[0].val()
        if (img[1].val() - iv) < 2 or (img[2].val() - iv) < 2:
            misses += 1
    return misses


def test_toy_contraction_power_is_two_and_tight():
    f = Field(2)
    h = Mat.diagonal([f.u(-2), f.one(), f.u(2)])
    eig = eigen_flags(h, precision=24)
    data = contraction_power(eig, margin_exponent=1)
    assert data.n0 == 2
    # the bound is tight: one power misses, two suffice, everywhere
    assert _toy_domain_and_images(2, 6, 1) > 0
    assert _toy_domain_and_images(2, 6, 2) == 0


def test_feasible_level_of_synthetic_candidates():
    for q in (2, 3):
        cand = find_regular(q)
        assert cand.strategy == "synthetic"
        assert cand.contraction.n0 == 2
        assert cand.feasible_level == 3
        g = cand.h ** cand.contraction.n0
        report = verify_pingpong(
            make_generators(q), g, level=cand.feasible_level, gamma_bound=1
        )
        assert report.passed
