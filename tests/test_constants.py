"""Embedding constants: frozen values and their Cartan-spread oracle."""

import random

import pytest

from pingpong3.field import Field
from pingpong3.pingpong.constants import qi_constants
from pingpong3.pingpong.generators import make_generators
from pingpong3.pingpong.regular import find_regular


@pytest.fixture(scope="module", params=[2, 3])
def pipeline(request):
    q = request.param
    pair = make_generators(q)
    cand = find_regular(q)
    return pair, cand, qi_constants(pair, cand)


def test_frozen_values(pipeline):
    pair, _, const = pipeline
    expected = {
        2: {
            "q": 2,
            "a_unit": 2,
            "b_unit": 2,
            "theta_exponent": 0,
            "theta_prime_exponent": 4,
            "epsilon_exponent": 4,
            "basis_distortion": 2,
            "spread_quantum": 8,
            "r_prime": 5,
            "c_additive": 0,
            "c_total": 16,
            "alpha1": "3",
            "alpha2": "4",
            "alpha": "3",
        },
        3: {
            "q": 3,
            "a_unit": 6,
            "b_unit": 6,
            "theta_exponent": 0,
            "theta_prime_exponent": 4,
            "epsilon_exponent": 4,
            "basis_distortion": 2,
            "spread_quantum": 8,
            "r_prime": 5,
            "c_additive": 0,
            "c_total": 16,
            "alpha1": "9",
            "alpha2": "4",
            "alpha": "4",
        },
    }
    assert const.as_dict() == expected[pair.q]


def test_syllable_spread_is_the_exact_cartan_spread(pipeline):
    """3 max(|A'm - B'n|, A'|m|, B'|n|) against the minor-based oracle."""
    pair, _, const = pipeline
    for m in range(-4, 5):
        for n in range(-4, 5):
            if (m, n) == (0, 0):
                continue
            mu = pair.gamma(m, n).cartan_projection()
            a, b = const.a_unit, const.b_unit
            assert mu[0] - mu[2] == 3 * max(abs(a * m - b * n), a * abs(m), b * abs(n))


def test_spread_shape_on_the_positive_quadrant():
    """For m, n >= 0 the q = 2 spread is 6 max(m, n): linear on each ray,
    tight against alpha1 (|m| + |n|) exactly on the diagonal m = n."""
    pair = make_generators(2)
    const = qi_constants(pair, find_regular(2))
    for m in range(5):
        for n in range(5):
            if (m, n) == (0, 0):
                continue
            mu = pair.gamma(m, n).cartan_projection()
            spread = mu[0] - mu[2]
            assert spread == 6 * max(m, n)
            assert spread >= const.alpha1 * (m + n)
            if m == n:
                assert spread == const.alpha1 * (m + n)


def test_window_points_have_flat_coordinates(pipeline):
    """theta-exponent 0: normalized window representatives have all three
    coordinate valuations 0, so gamma loses no norm on them."""
    pair, _, const = pipeline
    assert const.theta_exponent == 0
    f = Field(pair.q)
    rng = random.Random(17)
    gammas = [pair.gamma(1, 0), pair.gamma(0, -1), pair.gamma(2, 3), pair.gamma(-1, 1)]
    for _ in range(1000):
        tail = lambda: f.from_int_poly(
            [rng.randrange(pair.q) for _ in range(10)], lead=2
        )
        y = (f.one() + tail(), f.one() + tail(), f.one())
        assert all(c.val() == 0 for c in y)
        gamma = gammas[rng.randrange(len(gammas))]
        image = gamma.matvec(y)
        assert -min(c.val() for c in image) == gamma.lognorm()


def test_cyclic_factor_pays_its_own_bound(pipeline):
    """log_q ||g^(r R')|| + log_q ||g^(-r R')|| >= -4 epsilon + alpha2 |r R'|
    for 1 <= r <= 10, with g the powered contractor."""
    pair, cand, const = pipeline
    q = pair.q
    g = cand.h ** cand.contraction.n0
    step = g**const.r_prime
    step_inv = g.adjugate() ** const.r_prime
    acc, acc_inv = step, step_inv
    for r in range(1, 11):
        spread = acc.lognorm() + acc_inv.lognorm()
        assert spread >= -4 * const.epsilon_exponent + const.alpha2 * r * const.r_prime
        acc = acc * step
        acc_inv = acc_inv * step_inv


def test_rejects_stretches_not_divisible_by_three():
    f = Field(2)
    from pingpong3.linalg import Mat
    from pingpong3.pingpong.generators import make_pair

    a = Mat.diagonal([f.u(4), f.u(-2), f.u(-2)])
    skew = Mat.diagonal([f.u(-1), f.u(2), f.u(-1)])
    pair = make_pair(a, skew)  # b-stretch 3 is fine, but paired ratios differ
    cand = find_regular(2)
    # stretch 3 units: b_unit = 1; constants still assemble
    const = qi_constants(pair, cand)
    assert const.b_unit == 1
    bad = make_pair(Mat.diagonal([f.u(1), f.u(0), f.u(-1)]), a)
    with pytest.raises(ValueError):
        qi_constants(bad, cand)
