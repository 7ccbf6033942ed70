"""Producing a regular proximal element whose flags sit in position.

The free-product argument needs one more ingredient beyond the diagonal
pair: a regular element h whose attracting/repelling fixed points x+ / x-
both lie in the unit window U and whose invariant lines L+ / L- both have
affine slope congruent to u.  Then the slope exclusion keeps images of U
away from the two cones V(x+), V(x-) around those lines, while a large
enough power of h contracts everything outside the cones back into U.

Two ways to get such an h:

* ``synthetic``: conjugate diag(u^-e, 1, u^e) by a hand-picked basis whose
  columns are eigenvectors in position.  Deterministic, works for every q,
  and the resulting matrix is exact with determinant one.
* ``lattice``: seeded random products of elementary matrices over F_q[t]
  (entries are polynomials in t = 1/u), filtered for regularity and for
  flags landing in position.  This exhibits witnesses inside the integral
  subgroup rather than just the field points.

  Plain rejection is hopeless here, for a provable reason: if both fixed
  points of h lie in the window then v+ - v- has valuation >= 2 after
  normalization, and h(v+ - v-) = lambda+ (v+ - v-) + (lambda+ - lambda-) v-
  forces vm(h) <= w1 - 2 by the ultrametric equality.  Both flags in
  position therefore need lognorm(h) >= |w1| + 2 and lognorm(h^-1) >=
  w3 + 2 -- low-degree draws essentially never qualify (measured around
  2e-7 per draw).  The sampler instead transports flags: it hunts for a
  contractor g whose attracting flag alone is in position (a few-per-
  thousand event), then proposes conjugates g^n m g^-n of further random
  draws m.  Those conjugates have eigenvectors g^n (eigenvectors of m),
  which powers of g pull into the window, so small n already lands all
  four conditions.  Every proposal counts against the budget and the
  exact filter is unchanged; only the proposal distribution is shaped.

``contraction_power`` turns an eigensystem into the exponent N0 such that
h^N (N >= N0) maps the cone complement into U.  The bound is ultrametric
bookkeeping: a point y outside the cones has its attracting coordinate
<c_1, y> bounded below by the margin (valuation <= margin_exponent +
row floor), each application of h shifts the coordinate gaps by the
eigenvalue-valuation gaps, and the basis distortion eats a constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil

import numpy as np

from ..errors import (
    InsufficientPrecision,
    NotSimpleSegment,
    SearchExhausted,
    SingularOrUndecidable,
)
from ..field import Field, Laurent
from ..linalg import Mat, random_lattice_element, vec_min_val
from ..projgeom import ProjLine, in_unit_window, line_has_slope_u
from ..spectral import eigen_flags, is_regular

LATTICE_BUDGET = 100_000
# a lattice candidate's feasible sweep level may be at most this
LATTICE_MAX_LEVEL = 12
# minimum_feasible_level gives up above this level
LEVEL_CAP = 64


@dataclass(frozen=True)
class ContractionData:
    """The power N0 and the quantities that produced it."""

    n0: int
    n_plus: int
    n_minus: int
    margin_exponent: int
    gap_plus: int
    gap_minus: int
    row_floor_plus: int
    row_floor_minus: int
    adj_floor: int


@dataclass(frozen=True)
class ProximalCandidate:
    """A positioned regular element, its eigensystem and contraction data."""

    h: Mat
    eigen: object
    contraction: ContractionData
    strategy: str
    trials: int
    feasible_level: int


def synthetic_basis(q):
    """Eigenvector basis with flags in position, determinant exactly u^2.

    Columns: v1 = (1, 1, 1) so x+ = [1:1:1] is the window center;
    v2 = (1, u, 0) so both invariant lines get affine slope exactly u;
    v3 = (1, 1+u^2, 1) so x- sits in the window but in a different
    level-2 ball than x+.
    """
    f = Field(q)
    one, u = f.one(), f.u()
    v1 = (one, one, one)
    v2 = (one, u, f.zero())
    v3 = (one, one + u * u, one)
    return Mat.from_columns([v1, v2, v3])


def proximal_from_basis(basis, spread=2):
    """basis . diag(u^-spread, 1, u^spread) . basis^-1, exact."""
    f = Field(basis.q)
    d = Mat.diagonal([f.u(-spread), f.one(), f.u(spread)])
    return basis * d * basis.inverse()


def make_proximal(q, spread=2):
    """The synthetic regular element for residue field F_q."""
    return proximal_from_basis(synthetic_basis(q), spread)


def contraction_power(eigen, margin_exponent=2):
    """Smallest certified N0 with h^N (cone complement) inside U for N >= N0.

    margin_exponent is the valuation depth of the separating margin: 2 for
    the slope-cone pipeline (window level), 1 for the diagonal toy model
    where the excluded sets are coordinate-plane neighborhoods.
    """
    w1, w2, w3 = eigen.valuations
    adj = eigen.basis.adjugate()
    r_plus = vec_min_val(adj.rows[0])
    r_minus = vec_min_val(adj.rows[2])
    adj_floor = adj.min_val()
    gap_plus = w2 - w1
    gap_minus = w3 - w2
    n_plus = ceil((2 + margin_exponent + r_plus - adj_floor) / gap_plus)
    n_minus = ceil((2 + margin_exponent + r_minus - adj_floor) / gap_minus)
    n0 = max(1, n_plus, n_minus)
    return ContractionData(
        n0,
        n_plus,
        n_minus,
        margin_exponent,
        gap_plus,
        gap_minus,
        r_plus,
        r_minus,
        adj_floor,
    )


def refined_image_level(level, vm_image, lognorm_g, lognorm_compound):
    """Level of a ball certified to contain G(ball) around the image center.

    For y' = y + delta in a level-M ball, d(Gy, Gy') is at most
    q^-(M - lognorm(L^2 G) - vm(Gy) - vm(Gy')), and vm(Gy') is at least
    min(vm(Gy), M - lognorm(G)).  ``vm_image`` may be an array, one value
    per ball.
    """
    return level - lognorm_compound - vm_image - np.minimum(vm_image, level - lognorm_g)


def minimum_feasible_level(eigen, contraction):
    """Smallest sweep level the analytic bounds allow, or None above LEVEL_CAP.

    Uses the margin-based upper bound on vm(g^{+-1} y) over the cone
    complement to ask when every image ball can still be certified inside
    the level-2 window, and when the margin itself transfers from a ball
    representative to the whole ball.
    """
    w = eigen.valuations
    basis = eigen.basis
    lognorm_p = basis.lognorm()
    c = contraction
    n0 = c.n0
    g = eigen.matrix ** n0
    vm_hi = {
        1: lognorm_p + 2 + c.row_floor_plus - c.adj_floor + n0 * w[0],
        -1: lognorm_p + 2 + c.row_floor_minus - c.adj_floor - n0 * w[2],
    }
    guard = 3 + max(c.row_floor_plus, c.row_floor_minus) - c.adj_floor
    worst = 3
    for sign in (1, -1):
        mat = g if sign == 1 else g ** -1
        lognorm_g = mat.lognorm()
        lognorm_compound = mat.second_compound().lognorm()
        level = None
        for m in range(max(3, guard), LEVEL_CAP + 1):
            if refined_image_level(m, vm_hi[sign], lognorm_g, lognorm_compound) >= 2:
                level = m
                break
        if level is None:
            return None
        worst = max(worst, level)
    return worst


def _flags_in_position(eigen):
    if in_unit_window(eigen.vectors[0]) is not True:
        return False
    if in_unit_window(eigen.vectors[2]) is not True:
        return False
    for dual in (eigen.attracting_line_dual(), eigen.repelling_line_dual()):
        if line_has_slope_u(ProjLine(dual)) is not True:
            return False
    return True


def find_regular(
    q,
    strategy="synthetic",
    seed=None,
    budget=LATTICE_BUDGET,
):
    """Produce a positioned proximal candidate.

    ``synthetic`` ignores seed/budget and always succeeds; ``lattice``
    requires a seed and draws random elementary products until one is
    regular with flags in position and a feasible sweep level, raising
    SearchExhausted when the budget runs out.
    """
    if strategy == "synthetic":
        h = make_proximal(q)
        eigen = eigen_flags(h)
        if not _flags_in_position(eigen):
            raise AssertionError("synthetic basis no longer positions the flags")
        contraction = contraction_power(eigen)
        level = minimum_feasible_level(eigen, contraction)
        return ProximalCandidate(h, eigen, contraction, "synthetic", 1, level)

    if strategy != "lattice":
        raise ValueError(f"unknown strategy {strategy!r}")
    if seed is None:
        raise ValueError("lattice search needs an explicit seed")

    rng = random.Random(seed)
    spread_guess = 2 * LATTICE_MAX_LEVEL + 16
    trials = 0
    while trials < budget:
        # stage 1: a contractor g with its attracting flag already in
        # position; the screen is a cheap heuristic (low precision, never
        # revalidated) -- soundness rests entirely on the filter below
        trials += 1
        g = random_lattice_element(q, rng, n_factors=rng.randint(5, 8), max_deg=2)
        if not is_regular(g):
            continue
        try:
            eg = eigen_flags(g, precision=12)
        except (NotSimpleSegment, InsufficientPrecision, SingularOrUndecidable):
            continue
        if in_unit_window(eg.vectors[0]) is not True:
            continue
        if line_has_slope_u(ProjLine(eg.attracting_line_dual())) is not True:
            continue

        # stage 2: transport the flags of fresh draws with powers of g
        g_inv = g.inverse()
        for _ in range(4):
            if trials >= budget:
                break
            m = random_lattice_element(q, rng, n_factors=rng.randint(3, 5), max_deg=2)
            if not is_regular(m):
                continue
            gn, gn_inv = g, g_inv
            for n in range(1, 7):
                if n > 1:
                    gn, gn_inv = gn * g, gn_inv * g_inv
                if trials >= budget:
                    break
                trials += 1
                h = gn * m * gn_inv
                if not is_regular(h):
                    continue
                try:
                    eigen = eigen_flags(h, precision=spread_guess)
                except (NotSimpleSegment, InsufficientPrecision, SingularOrUndecidable):
                    continue
                if not _flags_in_position(eigen):
                    continue
                contraction = contraction_power(eigen)
                level = minimum_feasible_level(eigen, contraction)
                if level is None or level > LATTICE_MAX_LEVEL:
                    continue
                return ProximalCandidate(h, eigen, contraction, "lattice", trials, level)
    raise SearchExhausted(budget, f"no positioned regular element in {budget} draws")
