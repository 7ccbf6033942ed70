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
``proximal_candidate`` raises h to N0 once, and every later stage reads
g = h^N0 from the candidate.
"""

from __future__ import annotations

import random
from math import ceil
from typing import NamedTuple

from ..errors import (
    InsufficientPrecision,
    NotSimpleSegment,
    SearchExhausted,
    SingularOrUndecidable,
)
from ..field import Field, Laurent
from ..linalg import Mat, random_lattice_element
from ..projgeom import ProjLine, in_unit_window, line_has_slope_u
from ..spectral import eigen_flags, is_regular

LATTICE_BUDGET = 100_000
# a lattice candidate's feasible sweep level may be at most this
LATTICE_MAX_LEVEL = 12
# minimum_feasible_level gives up above this level
LEVEL_CAP = 64
# every candidate's eigenvalues are lifted to this many digits, enough for
# the flags and contraction data at any level a lattice candidate may have
EIGEN_PRECISION = 2 * LATTICE_MAX_LEVEL + 16


class ContractionData(NamedTuple):
    """The power N0, the powers each flag needs and the margin they are
    taken at; the eigen data they come from stay on the EigenSystem."""

    n0: int
    n_plus: int
    n_minus: int
    margin_exponent: int


class ProximalCandidate(NamedTuple):
    """A positioned regular element, its eigensystem, contraction data and
    the cyclic generator g = h^n0."""

    h: Mat
    eigen: object
    contraction: ContractionData
    g: Mat
    strategy: str
    trials: int
    feasible_level: int

    @property
    def g_eigen(self):
        """g's eigensystem from h's, whose eigenvectors g = h^n0 shares, when
        h's eigen data are exact; None otherwise: a sweep lifts g's own."""
        return self.eigen.power(self.contraction.n0, self.g)


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
    r_plus, r_minus = eigen.row_floors
    adj_floor = eigen.adjugate.min_val()
    n_plus = ceil((2 + margin_exponent + r_plus - adj_floor) / (w2 - w1))
    n_minus = ceil((2 + margin_exponent + r_minus - adj_floor) / (w3 - w2))
    return ContractionData(max(1, n_plus, n_minus), n_plus, n_minus, margin_exponent)


def image_norms(g):
    """(mat, lognorm, lognorm of the second compound) of g and of g^-1:
    the norms that bound the image balls of both ping-pong moves.  The 2x2
    minors of g^-1 are entries of g over det g (Jacobi), so its compound
    lognorm is lognorm(g) + val(det g) and no compound of g^-1 is formed."""
    norm, inverse = g.lognorm(), g.inverse()
    return [
        (g, norm, g.second_compound().lognorm()),
        (inverse, inverse.lognorm(), norm + g.det().val()),
    ]


def refined_image_level(level, vm_image, lognorm_g, lognorm_compound):
    """Level of a ball certified to contain G(ball) around the image center.

    For y' = y + delta in a level-M ball, d(Gy, Gy') is at most
    q^-(M - lognorm(L^2 G) - vm(Gy) - vm(Gy')), and vm(Gy') is at least
    min(vm(Gy), M - lognorm(G)).  ``vm_image`` may be an int array, one
    value per ball: the min is written as (a + b - |a - b|) // 2, which
    ints and int arrays read alike.
    """
    cap = level - lognorm_g
    least = (vm_image + cap - abs(vm_image - cap)) // 2
    return level - lognorm_compound - vm_image - least


def minimum_feasible_level(eigen, contraction, g):
    """Smallest sweep level the analytic bounds allow, or None above LEVEL_CAP.

    Uses the margin-based upper bound on vm(g^{+-1} y) over the cone
    complement, g = h^n0, to ask when every image ball can still be
    certified inside the level-2 window, and when the margin itself
    transfers from a ball representative to the whole ball.
    """
    w = eigen.valuations
    lognorm_p = eigen.basis.lognorm()
    r_plus, r_minus = eigen.row_floors
    adj_floor = eigen.adjugate.min_val()
    n0 = contraction.n0
    vm_hi = (
        lognorm_p + 2 + r_plus - adj_floor + n0 * w[0],
        lognorm_p + 2 + r_minus - adj_floor - n0 * w[2],
    )
    guard = 3 + max(r_plus, r_minus) - adj_floor
    worst = 3
    for vm, (_, norm, compound) in zip(vm_hi, image_norms(g)):
        levels = range(max(3, guard), LEVEL_CAP + 1)
        level = next((m for m in levels if refined_image_level(m, vm, norm, compound) >= 2), None)
        if level is None:
            return None
        worst = max(worst, level)
    return worst


def proximal_candidate(h, eigen, strategy, trials=0):
    """h as a candidate: its contraction data at the pipeline's margin,
    g = h^n0 and its feasible sweep level, from ``eigen`` = eigen_flags(h,
    precision=EIGEN_PRECISION); ``trials`` counts the search's draws (0: no
    search)."""
    contraction = contraction_power(eigen)
    g = h ** contraction.n0
    level = minimum_feasible_level(eigen, contraction, g)
    return ProximalCandidate(h, eigen, contraction, g, strategy, trials, level)


def _slope_u(dual):
    """Whether the line with these dual coordinates has slope u; a line
    whose coordinates cannot be decided counts as not."""
    try:
        line = ProjLine(dual)
    except InsufficientPrecision:
        return False
    return line_has_slope_u(line) is True


def _flags_in_position(eigen):
    if in_unit_window(eigen.vectors[0]) is not True:
        return False
    if in_unit_window(eigen.vectors[2]) is not True:
        return False
    return _slope_u(eigen.attracting_line_dual()) and _slope_u(eigen.repelling_line_dual())


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
        eigen = eigen_flags(h, precision=EIGEN_PRECISION)
        if not _flags_in_position(eigen):
            raise AssertionError("synthetic basis no longer positions the flags")
        return proximal_candidate(h, eigen, "synthetic", 1)

    if strategy != "lattice":
        raise ValueError(f"unknown strategy {strategy!r}")
    if seed is None:
        raise ValueError("lattice search needs an explicit seed")

    rng = random.Random(seed)
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
        if not _slope_u(eg.attracting_line_dual()):
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
                    eigen = eigen_flags(h, precision=EIGEN_PRECISION)
                except (NotSimpleSegment, InsufficientPrecision, SingularOrUndecidable):
                    continue
                if not _flags_in_position(eigen):
                    continue
                candidate = proximal_candidate(h, eigen, "lattice", trials)
                level = candidate.feasible_level
                if level is not None and level <= LATTICE_MAX_LEVEL:
                    return candidate
    raise SearchExhausted(budget, f"no positioned regular element in {budget} draws")
