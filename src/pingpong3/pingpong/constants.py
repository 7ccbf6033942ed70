"""Quasi-isometry constants for the combined group, in exponent form.

Norms here are q-powers, so every estimate is an integer (or rational)
statement about valuations; "exponent" always means log_q of the norm.
The three inputs are the diagonal pair (stretches 3A', 3B'), the proximal
element h (eigenvalue valuations w1 < w2 < w3 and its eigenbasis), and the
contraction threshold N0.

What gets computed:

* theta_exponent = 0: a normalized window representative has all three
  coordinates of valuation 0, so ||gamma v|| = ||gamma|| ||v|| exactly for
  diagonal gamma -- the rank-2 factor loses nothing.
* theta_prime_exponent: the worst loss for powers of h on cone complements.
  In eigencoordinates c = P^-1 v the dominant coordinate is bounded by the
  transversality margin (valuation <= 2 + row floor of adj P - val det P),
  and transporting through P costs the basis distortion; summing gives

      theta' = (2 + r - val det) + lognorm(P) + 2 lognorm(P^-1).

* epsilon_exponent = max(theta, theta'): the single epsilon of the norm
  condition ||gamma v|| >= q^-eps ||gamma|| ||v||.
* alpha1: growth rate of the rank-2 factor.  The Cartan spread of a^m b^n
  is S(m, n) = 3 max(|A'm - B'n|, A'|m|, B'|n|) >= alpha1 (|m| + |n|) with
  alpha1 = 3A'B'/(A' + B') and no additive loss.
* R_prime, alpha2: the cyclic factor is generated by g = h^R' with R' large
  enough that each syllable's spread pays for the epsilon losses of its two
  junctions and still grows linearly: R' = max(N0, ceil(2(4 eps + c + 2K_P)
  / E)) with E = N0 (w3 - w1) and K_P the basis distortion; then S(g^r) >=
  alpha2 |r| with alpha2 = E/2.
* word bound: every reduced alternating word w satisfies
  S(w) >= alpha |w| - c_total with alpha = min(alpha1, alpha2) and
  c_total = 4 epsilon + 2c; the Cartan-norm form divides both by 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import NamedTuple


class Constants(NamedTuple):
    """All exponents and rates; rationals stay exact Fractions."""

    q: int
    a_unit: int  # A': one third of the a-stretch
    b_unit: int
    theta_exponent: int
    theta_prime_exponent: int
    epsilon_exponent: int
    basis_distortion: int  # K_P = lognorm(P) + lognorm(P^-1)
    spread_quantum: int  # E = N0 (w3 - w1), spread gained per threshold power
    r_prime: int
    alpha1: Fraction
    alpha2: Fraction
    alpha: Fraction
    c_additive: int
    c_total: int

    def as_dict(self):
        out = self._asdict()
        rates = {name: str(out.pop(name)) for name in ("alpha1", "alpha2", "alpha")}
        return {**out, **rates}


def _stretch_units(pair):
    a_stretch, b_stretch = int(pair.a_stretch), int(pair.b_stretch)
    if a_stretch % 3 or b_stretch % 3:
        raise ValueError(
            "stretches of a determinant-one diagonal pair must be "
            f"multiples of 3, got {a_stretch}, {b_stretch}"
        )
    return a_stretch // 3, b_stretch // 3


def theta_prime_exponent(eigen):
    """theta' = (2 + r - val det P) + lognorm(P) + 2 lognorm(P^-1): the
    worst norm-loss exponent of powers of h on cone complements, with r the
    larger row floor of adj P at the attracting and repelling rows."""
    basis = eigen.basis
    val_det = basis.det().val()
    if val_det is None:
        raise ValueError("eigenbasis determinant valuation undecided")
    r = max(eigen.row_floors)
    return (2 + r - val_det) + basis.lognorm() + 2 * (val_det - eigen.adjugate.min_val())


def qi_constants(pair, candidate):
    """Assemble the Constants for a pair plus a positioned candidate.

    ``candidate`` is a ProximalCandidate (its eigen system and contraction
    data carry everything the h-side estimates need).
    """
    a_unit, b_unit = _stretch_units(pair)
    eigen = candidate.eigen
    contraction = candidate.contraction

    theta_prime = theta_prime_exponent(eigen)
    basis = eigen.basis  # K_P = lognorm(P) + lognorm(adj P / det P)
    distortion = basis.lognorm() + basis.det().val() - eigen.adjugate.min_val()

    theta = 0
    epsilon = max(theta, theta_prime)

    w = eigen.valuations
    spread_quantum = contraction.n0 * (w[2] - w[0])
    c_additive = 0
    r_prime = max(
        contraction.n0,
        ceil(Fraction(2 * (4 * epsilon + c_additive + 2 * distortion), spread_quantum)),
        1,
    )

    alpha1 = Fraction(3 * a_unit * b_unit, a_unit + b_unit)
    alpha2 = Fraction(spread_quantum, 2)
    alpha = min(alpha1, alpha2)
    c_total = 4 * epsilon + 2 * c_additive

    return Constants(
        q=pair.q,
        a_unit=a_unit,
        b_unit=b_unit,
        theta_exponent=theta,
        theta_prime_exponent=theta_prime,
        epsilon_exponent=epsilon,
        basis_distortion=distortion,
        spread_quantum=spread_quantum,
        r_prime=r_prime,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha=alpha,
        c_additive=c_additive,
        c_total=c_total,
    )
