"""Generator pairs, the sigma sign-case exclusion, proximal elements."""

import hashlib
import json
import random
from math import gcd

import numpy as np
import pytest

from pingpong3.errors import ExclusionFailed, SearchExhausted
from pingpong3.field import Field, Laurent
from pingpong3.linalg import Mat, random_lattice_element, vec_cross, vec_min_val
from pingpong3.pingpong.generators import DiagPair, make_generators, make_pair
from pingpong3.pingpong.regular import (
    contraction_power,
    find_regular,
    image_norms,
    make_proximal,
    minimum_feasible_level,
    proximal_from_basis,
    refined_image_level,
    synthetic_basis,
)
from pingpong3.pingpong import sigma
from pingpong3.pingpong.sigma import SIGN_CASES, monte_carlo_check, sigma_exclusion
from pingpong3.projgeom import in_slope_u_cone, in_unit_window
from pingpong3.spectral import eigen_flags

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


# -- generators ----------------------------------------------------------------


def test_standard_pair_q2():
    pair = make_generators(2)
    assert pair.a.to_text() == "u^4, 0, 0; 0, u^-2, 0; 0, 0, u^-2"
    assert pair.b.to_text() == "u^-2, 0, 0; 0, u^4, 0; 0, 0, u^-2"
    assert pair.a_stretch == 6 and pair.b_stretch == 6
    # the middle ratios are exactly 1
    assert str(pair.a_ratios[1]) == "1"
    assert str(pair.b_ratios[0]) == "1"


def test_standard_pair_profiles():
    for q, profile in [(2, (1, 1)), (2, (2, 3)), (3, (1, 1)), (3, (1, 2))]:
        pair = make_generators(q, profile)
        p_exp = q * (q - 1)
        assert pair.a_stretch == 3 * profile[0] * p_exp
        assert pair.b_stretch == 3 * profile[1] * p_exp
        assert gcd(pair.a_stretch, pair.b_stretch) >= 2
        one = Field(q).one()
        assert pair.a.det() == one and pair.b.det() == one
        # a and b commute (diagonal)
        assert pair.a * pair.b == pair.b * pair.a


def test_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        make_generators(2, (0, 1))
    not_diag = Mat.elementary(2, 0, 1, F2.u())
    with pytest.raises(ValueError):
        make_pair(not_diag, make_generators(2).b)
    bad_det = Mat.diagonal([F2.u(1), F2.one(), F2.one()])
    with pytest.raises(ValueError):
        make_pair(bad_det, make_generators(2).b)
    one = F2.one()
    for bad in (not_diag, Mat.diagonal([F2.parse("1 + u"), one, one])):
        with pytest.raises(ValueError):
            DiagPair(bad, bad, (one, one), (one, one))


def test_gamma_powers_are_exact_diagonals():
    pair = make_generators(2)
    g = pair.gamma(2, -1)
    vals = [g.rows[i][i].val() for i in range(3)]
    # entry valuations 2m*A' - n*B', -m*A' + 2n*B', -m*A' - n*B' with A'=B'=2
    assert vals == [2 * 2 * 2 + 1 * 2, -2 * 2 - 2 * 2, -2 * 2 + 1 * 2]
    assert all(g.rows[i][i].is_monomial() for i in range(3))


# diag(2u^2, 2u^-1, u^-1) and a cyclic shuffle of it: unit coefficients 2
NON_MONIC_Q3 = make_pair(
    Mat.diagonal([F3.monomial(2, 2), F3.monomial(2, -1), F3.u(-1)]),
    Mat.diagonal([F3.u(-1), F3.monomial(2, 2), F3.monomial(2, -1)]),
)


# diag(2u^2, 3u^-1, u^-1) and a cyclic shuffle of it: 2 and 3 are each
# other's inverses mod 5
NON_MONIC_Q5 = make_pair(
    Mat.diagonal([F5.monomial(2, 2), F5.monomial(3, -1), F5.u(-1)]),
    Mat.diagonal([F5.u(-1), F5.monomial(2, 2), F5.monomial(3, -1)]),
)


@pytest.mark.parametrize(
    "pair",
    [make_generators(q) for q in (2, 3, 5, 7)]
    + [make_generators(2, (2, 3)), NON_MONIC_Q3, NON_MONIC_Q5],
    ids=["q2", "q3", "q5", "q7", "q2-profile-2-3", "q3-non-monic", "q5-non-monic"],
)
def test_gamma_from_exponent_triples_matches_mat_powers(pair):
    for m in range(-5, 6):
        for n in range(-5, 6):
            assert pair.gamma(m, n) == (pair.a**m) * (pair.b**n)


def test_act_is_the_matrix_action_precision_included():
    # monic pairs take act's exponent path, the non-monic ones ``monomial``'s
    pairs = [make_generators(q) for q in (2, 3, 5)] + [NON_MONIC_Q3, NON_MONIC_Q5]
    for pair in pairs:
        q, f = pair.q, Field(pair.q)
        vectors = [
            (f.one(), f.from_int_poly([1, 0, 1, q - 1]), f.one()),
            (Laurent(q, 2, [1, q - 1], 6), f.unknown(3), f.zero()),
        ]
        for vec in vectors:
            for m, n in ((1, 0), (-2, 3), (0, -1), (4, 4)):
                assert pair.act(m, n, vec) == pair.gamma(m, n).matvec(vec)


# -- sigma exclusion -----------------------------------------------------------


def test_sigma_all_cases_excluded_q2_q3():
    for q in (2, 3):
        report = sigma_exclusion(make_generators(q))
        assert len(report.cases) == 8
        names = [c.case for c in report.cases]
        assert names == ["(+,0)", "(-,0)", "(0,+)", "(0,-)", "(+,+)", "(+,-)", "(-,+)", "(-,-)"]
        for c in report.cases:
            assert "1 outside" in c.reason or "never 1" in c.reason


def test_sigma_case_shapes_q2():
    report = sigma_exclusion(make_generators(2))
    by_name = {c.case: c for c in report.cases}
    # (+,0): numerator can vanish, denominator is a unit with lead q-1
    c = by_name["(+,0)"]
    assert c.num.may_vanish and c.num.lo == 2
    assert (c.den.lo, c.den.hi, c.den.lead) == (0, 0, 1)
    # (-,-): both sides unbounded below, gcd argument
    c = by_name["(-,-)"]
    assert c.num.multiple_of == 6 and c.den.multiple_of == 6
    assert "gcd" in c.reason
    # mixed case (+,-): valuation at most -B
    c = by_name["(+,-)"]
    assert c.sigma.startswith("val(sigma) in [-inf, -6]")
    # every case carries a window-separation witness
    assert all("val(" in c.window_witness for c in report.cases)


def test_sigma_digest_is_stable():
    r1 = sigma_exclusion(make_generators(2))
    r2 = sigma_exclusion(make_generators(2))
    assert r1.digest == r2.digest
    r3 = sigma_exclusion(make_generators(3))
    assert r1.digest != r3.digest


def test_sigma_negative_control_diag_u_1_uinv():
    # alpha_2 = u is not a unit: the first case consuming alpha must fail.
    for q in (2, 3):
        f = Field(q)
        bad = Mat.diagonal([f.u(1), f.one(), f.u(-1)])
        pair = make_pair(bad, make_generators(q).b)
        with pytest.raises(ExclusionFailed) as err:
            sigma_exclusion(pair)
        assert err.value.case == "(+,0)"


def test_sigma_negative_control_gcd_one():
    # A determinant-one diagonal pair that passes the absorption checks has
    # both stretches divisible by 3 (unit middle ratio forces entry
    # valuations into the (2r, -r, -r) shape), so make_pair can never reach
    # the gcd guard of the (-,-) case.  Drive it with hand-built ratios:
    # stretches 4 and 9 realize val(sigma) = 9 - 2*4 = 1.
    f = Field(3)
    base = make_generators(3)
    bad = DiagPair(base.a, base.b, (f.u(4), f.one()), (f.one(), f.u(9)))
    assert (bad.a_stretch, bad.b_stretch) == (4, 9)
    with pytest.raises(ExclusionFailed) as err:
        sigma_exclusion(bad)
    assert err.value.case == "(-,-)"
    assert "gcd" in str(err.value)
    # gcd 2 is already enough: 4 and 6 pass, with the congruence as reason
    ok = DiagPair(base.a, base.b, (f.u(4), f.one()), (f.one(), f.u(6)))
    report = sigma_exclusion(ok)
    assert "gcd = 2" in report.cases[-1].reason


def test_sigma_monte_carlo():
    rng = random.Random(20240811)
    for q in (2, 3):
        counts = monte_carlo_check(make_generators(q), rng, trials_per_case=125)
        assert all(hits == 0 for (_, hits) in counts.values())
        assert len(counts) == 8


# the generator state after 20 samples per sign case from random.Random(1):
# every sample draws the same random calls in the same order, so a change
# to the sample stream moves the next draw even when no case has a hit
NEXT_DRAW_AFTER_MONTE_CARLO = {2: 0.34600492283971984, 3: 0.8203289491801209}


@pytest.mark.parametrize("q", [2, 3])
def test_monte_carlo_sample_stream_is_pinned(q):
    rng = random.Random(1)
    monte_carlo_check(make_generators(q), rng, trials_per_case=20)
    assert rng.random() == NEXT_DRAW_AFTER_MONTE_CARLO[q]


# sha256 of the JSON list of (str(base), str(image)) pairs that the slope-cone
# predicate sees in the first 1,000 samples (125 per sign case) from
# random.Random(1), recorded while every window digit was one rng.randrange(q)
CONE_SAMPLE_DIGESTS = {
    2: "9a986ee29a86894a9787a535141e921d6e746ed4a140c0bcf0d8ded781024134",
    3: "49615f647942b93f116707ddfaeeb879077430b8d1511b64859ef588346d2824",
    5: "f76cafba03ec8573248067fab13f198ee18e410795a171844d4ea6bde9648898",
    7: "640e5d701114b408675a1c31a507740e75fb3fe9a82823b6db04937b54b408df",
}


@pytest.mark.parametrize("q", sorted(CONE_SAMPLE_DIGESTS))
def test_monte_carlo_sample_values_are_pinned(q, monkeypatch):
    seen = []

    def recording(base, image):
        seen.append((str(base), str(image)))
        return in_slope_u_cone(base, image)

    monkeypatch.setattr(sigma, "in_slope_u_cone", recording)
    monte_carlo_check(make_generators(q), random.Random(1), trials_per_case=125)
    assert len(seen) == 1000
    assert hashlib.sha256(json.dumps(seen).encode()).hexdigest() == CONE_SAMPLE_DIGESTS[q]


# Laurent sums the slope-cone predicate forms per Monte-Carlo sample: none
# where one term of n_1 and of c is strictly least, n_0 or n_1 alone where
# its two terms tie (n = 0 ties n_0's terms, m = 0 ties n_1's; at m < 0,
# n = 0 the tie lies above a term of u n_1)
SUMS_PER_CONE_CALL = {
    "(+,+)": 0, "(+,-)": 0, "(-,+)": 0, "(-,-)": 0, "(-,0)": 0,
    "(+,0)": 1, "(0,+)": 1, "(0,-)": 1,
}


@pytest.mark.parametrize("q", [2, 3])
def test_slope_cone_forms_a_sum_only_where_its_least_terms_tie(q, monkeypatch):
    sums, per_call = [0], []
    combine, cone = Laurent._combine, sigma.in_slope_u_cone

    def counted(self, other, c):
        sums[0] += 1
        return combine(self, other, c)

    def recording(base, image):
        before = sums[0]
        verdict = cone(base, image)
        per_call.append(sums[0] - before)
        return verdict

    monkeypatch.setattr(Laurent, "_combine", counted)
    monkeypatch.setattr(sigma, "in_slope_u_cone", recording)
    trials = 200
    monte_carlo_check(make_generators(q), random.Random(1), trials_per_case=trials)
    # no sample is a hit, so each one reaches the cone, case by case
    assert len(per_call) == trials * len(SIGN_CASES)
    for k, signs in enumerate(SIGN_CASES):
        calls = per_call[k * trials : (k + 1) * trials]
        assert set(calls) == {SUMS_PER_CONE_CALL[sigma._case_name(signs)]}, signs


# Laurent sums the window predicate forms per Monte-Carlo sample: none, in
# every sign case.  A nontrivial a^m b^n gives its image unequal coordinate
# valuations, and the least of them lies below vm + 2, so the valuations
# alone say False; a window point, whose valuations tie, forms all three.
SUMS_PER_WINDOW_CALL = 0


@pytest.mark.parametrize("q", [2, 3])
def test_unit_window_forms_no_sum_when_valuations_decide(q, monkeypatch):
    sums, per_call = [0], []
    combine, window = Laurent._combine, sigma.in_unit_window

    def counted(self, other, c):
        sums[0] += 1
        return combine(self, other, c)

    def recording(coords):
        before = sums[0]
        verdict = window(coords)
        per_call.append(sums[0] - before)
        return verdict

    monkeypatch.setattr(Laurent, "_combine", counted)
    monkeypatch.setattr(sigma, "in_unit_window", recording)
    trials = 200
    monte_carlo_check(make_generators(q), random.Random(1), trials_per_case=trials)
    assert len(per_call) == trials * len(SIGN_CASES)
    assert set(per_call) == {SUMS_PER_WINDOW_CALL}
    assert recording(sigma._window_points(q, random.Random(2))[1]) is True
    assert per_call[-1] == 3


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 8, 9, np.int64(5)])
def test_exponent_draws_replay_randint(bound, monkeypatch):
    # m and n come from getrandbits with the values and stream position of
    # rng.randint(1, bound), a numpy integer bound included
    seen, act = [], DiagPair.act
    monkeypatch.setattr(DiagPair, "act", lambda *args: seen.append(args[1:]) or act(*args))
    rng, twin = random.Random(5), random.Random(5)
    monte_carlo_check(make_generators(3), rng, trials_per_case=6, exponent_bound=bound)
    want = []
    for m_sign, n_sign in SIGN_CASES:
        for _ in range(6):
            m = m_sign * twin.randint(1, bound)
            n = n_sign * twin.randint(1, bound)
            want.append((m, n, sigma._window_points(3, twin)[1]))
    assert seen == want
    assert all(type(m) is int and type(n) is int for m, n, _ in seen)
    assert rng.random() == twin.random()


# q = 257 draws 9 bits, wider than a byte: single draws only
@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 31, 257])
def test_window_points_draw_what_randrange_draws(q):
    f = Field(q)
    for seed in (0, 1, 2):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(5):
            base, y = sigma._window_points(q, rng)
            want = [
                f.one() + f.from_int_poly([twin.randrange(q) for _ in range(12)], lead=2)
                for _ in range(4)
            ]
            assert [base[0], base[1], y[0], y[1]] == want
            assert base[2] == y[2] == f.one()
        assert rng.random() == twin.random()


def test_a_getrandbits_block_is_the_next_words_first_lowest():
    # the premise of _window_points' block: getrandbits(32 * k) is the next
    # k 32-bit words, the first in the low word, and a draw of b <= 32 bits
    # is the top b bits of its word
    for k in (1, 2, 48):
        rng, word_twin, bits_twin = random.Random(k), random.Random(k), random.Random(k)
        block = rng.getrandbits(32 * k)
        words = [block >> 32 * i & 0xFFFFFFFF for i in range(k)]
        assert words == [word_twin.getrandbits(32) for _ in range(k)]
        bits = [1 + i % 8 for i in range(k)]
        assert [w >> 32 - b for w, b in zip(words, bits)] == [bits_twin.getrandbits(b) for b in bits]
        assert rng.random() == word_twin.random() == bits_twin.random()


@pytest.mark.parametrize(
    "bad",
    [
        dict(trials_per_case=-3),
        dict(trials_per_case=0),
        dict(trials_per_case=2.0),
        dict(trials_per_case=True),
        dict(exponent_bound=0),
        dict(exponent_bound="5"),
    ],
)
def test_monte_carlo_refuses_counts_below_one_before_drawing(bad):
    rng, twin = random.Random(3), random.Random(3)
    with pytest.raises(ValueError):
        monte_carlo_check(make_generators(2), rng, **bad)
    assert rng.random() == twin.random()


# -- proximal element ----------------------------------------------------------

# the q=2 synthetic element, frozen from the hand construction
H_Q2_TEXT = (
    "u^-3 + 1 + u, u^-4 + 1, u^-4 + u^-3 + u^-2 + u; "
    "u^-3 + u^3, u^-4 + 1 + u^2, u^-4 + u^-3 + u^-2 + 1 + u^2 + u^3; "
    "u^-3 + u, u^-4 + 1, u^-4 + u^-3 + u^-2 + 1 + u"
)


def test_synthetic_h_frozen_q2():
    h = make_proximal(2)
    assert h.to_text() == H_Q2_TEXT
    assert str(h.det()) == "1"
    assert h.cartan_projection() == (4, 0, -4)


def test_synthetic_basis_determinant():
    for q in (2, 3):
        basis = synthetic_basis(q)
        assert str(basis.det()) == "u^2"
        h = make_proximal(q)
        assert str(h.det()) == "1"
        assert h.cartan_projection() == (4, 0, -4)


def test_eigensystem_of_synthetic_h():
    for q in (2, 3):
        cand = find_regular(q)
        eig = cand.eigen
        assert eig.valuations == (-2, 0, 2)
        # eigenvalues are exact monomials u^-2, 1, u^2
        assert [str(v) for v in eig.eigenvalues] == ["u^-2", "1", "u^2"]
        # attracting point is the window center, repelling is 1+u^2 off it;
        # cross products carry a common unit factor, so compare exactly as
        # multiples of (1, 1, 1) and (1, 1 + u^2, 1)
        v0 = eig.vectors[0]
        assert v0[0] == v0[1] and v0[1] == v0[2]
        v2 = eig.vectors[2]
        off = Field(q).one() + Field(q).u(2)
        assert v2[0] == v2[2]
        assert v2[1] == v2[0] * off
        assert in_unit_window(v0) is True
        assert in_unit_window(v2) is True


def test_contraction_power_synthetic():
    for q in (2, 3):
        cand = find_regular(q)
        c = cand.contraction
        assert (c.n_plus, c.n_minus, c.n0) == (2, 2, 2)
        w1, w2, w3 = cand.eigen.valuations
        assert (w2 - w1, w3 - w2) == (2, 2)
        assert (*cand.eigen.row_floors, cand.eigen.adjugate.min_val()) == (0, 0, 0)
        assert c.margin_exponent == 2
        assert cand.g == cand.h * cand.h


def test_contraction_power_diagonal_model():
    # the toy model: diag(u^-2, 1, u^2), coordinate-plane margins (depth 1)
    d = Mat.diagonal([F2.u(-2), F2.one(), F2.u(2)])
    c = contraction_power(eigen_flags(d), margin_exponent=1)
    assert c.n0 == 2
    # with the cone-pipeline margin the same gaps need N0 = 2 as well
    assert contraction_power(eigen_flags(d), margin_exponent=2).n0 == 2
    # a slower spread forces a higher power
    d6 = Mat.diagonal([F2.u(-1), F2.one(), F2.u(1)])
    assert contraction_power(eigen_flags(d6), margin_exponent=2).n0 == 4


def test_wider_spread_lowers_n0():
    h = make_proximal(2, spread=4)
    eig = eigen_flags(h)
    assert eig.valuations == (-4, 0, 4)
    assert contraction_power(eig).n0 == 1


def test_minimum_feasible_level_synthetic():
    cand = find_regular(2)
    assert cand.feasible_level is not None
    assert 3 <= cand.feasible_level <= 12


@pytest.mark.parametrize("q", [2, 3, 5])
def test_image_norms_equal_the_compound_lognorms(q):
    # lognorm(L^2 g^-1) = lognorm(g) + val(det g), on the synthetic g, the
    # synthetic basis (det u^2) and random lattice elements
    rng = random.Random(q)
    mats = [find_regular(q).g, synthetic_basis(q)]
    mats += [random_lattice_element(q, rng) for _ in range(50)]
    for g in mats:
        want = [(m, m.lognorm(), m.second_compound().lognorm()) for m in (g, g.inverse())]
        assert image_norms(g) == want


@pytest.mark.parametrize("level, lognorm_g, compound", [(10, 3, 5), (4, -2, 0), (2, 7, -3)])
def test_refined_image_level_reads_ints_and_int_arrays_alike(level, lognorm_g, compound):
    # vm_image above, at and below level - lognorm_g, negatives included:
    # the feasible level passes ints, the sweep int64 arrays
    cap = level - lognorm_g
    vms = [*range(cap - 6, cap + 7), -20, -1, 0]
    want = [level - compound - vm - min(vm, cap) for vm in vms]
    got = [refined_image_level(level, vm, lognorm_g, compound) for vm in vms]
    assert got == want and all(type(v) is int for v in got)
    got = refined_image_level(level, np.array(vms, dtype=np.int64), lognorm_g, compound)
    assert got.dtype == np.int64 and got.tolist() == want


def test_find_regular_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        find_regular(2, strategy="guess")
    with pytest.raises(ValueError):
        find_regular(2, strategy="lattice")  # missing seed


def test_find_regular_lattice_q2():
    cand = find_regular(2, strategy="lattice", seed=11, budget=100_000)
    assert cand.strategy == "lattice"
    assert cand.trials <= 100_000
    h = cand.h
    # a genuine lattice element: entries are polynomials in t = 1/u
    assert str(h.det()) == "1"
    assert all(c.exact for row in h.rows for c in row)
    assert all(
        c.is_exact_zero or c.lead + len(c.digits) - 1 <= 0
        for row in h.rows
        for c in row
    )
    eig = cand.eigen
    assert in_unit_window(eig.vectors[0]) is True
    assert in_unit_window(eig.vectors[2]) is True
    w = eig.valuations
    assert w[0] < w[1] < w[2] and sum(w) == 0
    assert cand.feasible_level <= 12


def test_lattice_budget_exhaustion():
    with pytest.raises(SearchExhausted):
        find_regular(2, strategy="lattice", seed=5, budget=3)
