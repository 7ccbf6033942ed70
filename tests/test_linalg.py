"""Matrix layer: products, inverses, norms, Cartan data, char polys."""

import copy
import itertools
import pickle
import random

import pytest

from pingpong3.errors import (
    InsufficientPrecision,
    LaurentSyntaxError,
    SingularOrUndecidable,
)
from pingpong3.field import INF, Field, Laurent
from pingpong3.linalg import (
    Mat,
    Poly,
    parse_matrix,
    random_lattice_element,
    vec_cross,
    vec_dot,
    vec_min_val,
)

from oracles import snf_diagonal_valuations

F2 = Field(2)
F3 = Field(3)


# what a matrix derives once and keeps
DERIVED = ("det", "second_compound", "adjugate", "inverse")


def diag(field, *exps):
    return Mat.diagonal([field.u(e) for e in exps])


def rand_exact(rng, q, max_abs_lead=3, max_len=4):
    n = rng.randrange(max_len + 1)
    if n == 0:
        return Laurent(q, 0, ())
    digits = [rng.randrange(q) for _ in range(n)]
    digits[0] = 1 + rng.randrange(q - 1)
    if digits[-1] == 0:
        digits[-1] = 1
    return Laurent(q, rng.randrange(-max_abs_lead, max_abs_lead + 1), digits)


def rand_mat(rng, q, n=3):
    return Mat([[rand_exact(rng, q) for _ in range(n)] for _ in range(n)])


# -- frozen examples ---------------------------------------------------------


def test_diagonal_product():
    a = diag(F2, 4, -2, -2)
    b = diag(F2, -2, 4, -2)
    assert a * b == diag(F2, 2, 2, -4)
    assert a * Mat.identity(2) == a


def test_matrices_copy_and_pickle():
    # values a matrix keeps once derived change neither its copies and
    # pickles nor its equality and hash
    rng = random.Random(7)
    for q in (2, 3, 13):
        m = rand_mat(rng, q)
        inexact = Mat([[x.truncate(2) for x in r] for r in m.rows])
        kept = Mat(m.rows)
        kept.det(), kept.adjugate()
        for x in (m, inexact, kept):
            for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(y) is Mat and y == x and y.exact == x.exact
        assert kept == m and hash(kept) == hash(m)
        assert pickle.dumps(kept) == pickle.dumps(m)


def test_derived_matrices_are_kept_and_equal_fresh_ones():
    rng = random.Random(29)
    for q in (2, 3, 5):
        for _ in range(8):
            m = random_lattice_element(q, rng, n_factors=5)
            inexact = Mat([[x.truncate(x.lead + 2) for x in r] for r in m.rows])
            for x, names in ((m, DERIVED), (inexact, DERIVED[:3])):
                for name in names:
                    first = getattr(x, name)()
                    assert getattr(x, name)() is first
                    assert first == getattr(Mat(x.rows), name)()
            assert not inexact.det().exact


def test_cartan_projection_of_diagonal():
    a = diag(F2, 4, -2, -2)
    assert a.cartan_projection() == (2, 2, -4)
    ab = diag(F2, 2, 2, -4)
    assert ab.cartan_projection() == (4, -2, -2)
    assert Mat.identity(2).cartan_projection() == (0, 0, 0)


def test_lognorm_and_inverse_of_diagonal():
    a = diag(F2, 4, -2, -2)
    assert a.lognorm() == 2
    ainv = a.inverse()
    assert ainv == diag(F2, -4, 2, 2)
    assert ainv.exact
    assert ainv.lognorm() == 4
    mu = a.cartan_projection()
    assert a.lognorm() + ainv.lognorm() == mu[0] - mu[-1]


def test_char_poly_of_diagonal():
    a = diag(F2, -2, 0, 2)
    p = a.char_poly()
    sym = F2.parse("u^-2 + 1 + u^2")
    # (X - u^-2)(X - 1)(X - u^2), coefficients reduced mod 2
    assert p.coeffs == (F2.one(), sym, sym, F2.one())
    assert p.coeffs[-1] == F2.one()
    assert p.degree == 3
    for e in (-2, 0, 2):
        assert p(F2.u(e)).is_exact_zero
    zero_mat = p(a)
    assert all(x.is_exact_zero for r in zero_mat.rows for x in r)


def test_char_poly_constant_coefficient_is_signed_det():
    rng = random.Random(7)
    for _ in range(20):
        a = random_lattice_element(2, rng)
        p = a.char_poly()
        assert p.coeffs[0] == -a.det()
        assert p.coeffs[-1] == F2.one()


def test_char_poly_linear_coefficient_stays_exact_on_inexact_input():
    # a(e + i) is an exact zero at q = 2, where a*e + a*i would be O(u^2)
    a = Mat.diagonal([F2.one().truncate(1), F2.u(1), F2.u(1)])
    assert a.char_poly().coeffs[1] == F2.u(2)


def test_matrix_power():
    a = diag(F2, 4, -2, -2)
    assert a ** 3 == diag(F2, 12, -6, -6)
    assert a ** 0 == Mat.identity(2)
    assert a ** -2 == diag(F2, -8, 4, 4)


def test_matrix_power_multiplies_no_identity_and_squares_no_further(monkeypatch):
    """Square-and-multiply from the matrix itself: h^2 is one product, h^5
    three, h and h^-1 (the inverse alone) none."""
    h = random_lattice_element(3, random.Random(7), n_factors=3)
    cases = [(1, h, 0), (2, h * h, 1), (5, h * h * h * h * h, 3), (-1, h.inverse(), 0)]
    products = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for k, want, count in cases:
        products.clear()
        assert h**k == want
        assert len(products) == count


def test_elementary_matrix_inverse():
    f = F2.parse("u^-1 + 1")
    e = Mat.elementary(2, 0, 2, f)
    assert e.det() == F2.one()
    assert e.inverse() == Mat.elementary(2, 0, 2, -f)


def test_matrix_text_roundtrip():
    text = "u^4, 0, 0; 0, u^-2, 0; 0, 0, u^-2"
    a = parse_matrix(text, 2)
    assert a == diag(F2, 4, -2, -2)
    assert a.to_text() == text
    with pytest.raises(LaurentSyntaxError):
        parse_matrix("1, 0; 0, 1; 1, 1", 2)
    with pytest.raises(LaurentSyntaxError, match="3x3"):
        parse_matrix("1, 0; 0, 1", 2)


def test_matrices_are_3x3():
    one, z = F2.one(), F2.zero()
    for n in (2, 4):
        with pytest.raises(ValueError, match="3x3"):
            Mat([[one if i == j else z for j in range(n)] for i in range(n)])
    with pytest.raises(ValueError, match="3x3"):
        Mat.diagonal([one, one])


def test_matrix_is_immutable():
    a = Mat.identity(2)
    with pytest.raises(AttributeError):
        a.rows = ()


# -- error paths -------------------------------------------------------------


def test_inverse_of_singular_matrix_raises():
    z, one = F2.zero(), F2.one()
    a = Mat([[one, one, z], [one, one, z], [z, z, one]])
    assert a.det().is_exact_zero
    with pytest.raises(SingularOrUndecidable):
        a.inverse()
    b = Mat.diagonal([F2.unknown(2), one, one])
    for m in (a, a, b, b):  # a refusal is not kept: every call raises
        with pytest.raises(SingularOrUndecidable):
            m.inverse()


def test_lognorm_of_zero_matrix_raises():
    z = F2.zero()
    with pytest.raises(ValueError, match="zero matrix"):
        Mat.diagonal([z, z, z]).lognorm()


def test_lognorm_with_undecided_entry():
    # every decided entry has valuation 3, above the unknown entry's floor
    a = Mat.diagonal([F2.unknown(2), F2.u(3), F2.u(3)])
    with pytest.raises(InsufficientPrecision):
        a.lognorm()
    # a unit entry settles the minimum regardless of the unknown tail
    b = Mat.diagonal([F2.unknown(2), F2.one(), F2.one()])
    assert b.lognorm() == 0


def test_cartan_with_undecided_minor():
    a = Mat.diagonal([F2.one(), F2.one(), F2.unknown(2)])
    with pytest.raises(InsufficientPrecision):
        a.cartan_projection()


def test_cartan_of_singular_matrix_raises():
    a = Mat.diagonal([F2.one(), F2.one(), F2.zero()])
    with pytest.raises(ValueError):
        a.cartan_projection()


def test_inverse_with_non_monomial_det_is_refused():
    z = F2.zero()
    a = Mat([[F2.one() + F2.u(1), F2.u(2), z], [z, F2.one(), z], [z, z, F2.one()]])
    for _ in range(2):  # on every call
        with pytest.raises(SingularOrUndecidable, match="not an exact monomial"):
            a.inverse()


# -- oracle-backed randomized checks ----------------------------------------


def test_product_associativity():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_mat(rng, 2) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_det_is_multiplicative():
    rng = random.Random(13)
    for _ in range(60):
        a, b = rand_mat(rng, 3), rand_mat(rng, 3)
        assert (a * b).det() == a.det() * b.det()


def test_adjugate_identity():
    rng = random.Random(17)
    for _ in range(40):
        a = rand_mat(rng, 2)
        d = a.det()
        prod = a * a.adjugate()
        assert prod == Mat.identity(2).scale_elem(d)


def test_unimodular_product_times_inverse_is_identity():
    rng = random.Random(19)
    for q in (2, 3):
        for _ in range(40):
            a = random_lattice_element(q, rng, n_factors=5)
            assert a.det() == Field(q).one()
            assert a * a.inverse() == Mat.identity(q)
            assert a.inverse() * a == Mat.identity(q)


def test_cayley_hamilton():
    rng = random.Random(23)
    for q in (2, 3):
        for _ in range(15):
            a = random_lattice_element(q, rng)
            res = a.char_poly()(a)
            assert all(x.is_exact_zero for r in res.rows for x in r)


def test_cartan_inverse_reversal():
    rng = random.Random(29)
    for _ in range(50):
        a = random_lattice_element(2, rng, n_factors=5)
        mu = a.cartan_projection()
        assert a.inverse().cartan_projection() == tuple(-x for x in reversed(mu))


def test_norm_cartan_identity_random():
    rng = random.Random(31)
    for q in (2, 3):
        for _ in range(60):
            a = random_lattice_element(q, rng, n_factors=5)
            mu = a.cartan_projection()
            assert sum(mu) == 0
            assert a.lognorm() == mu[0]
            assert a.inverse().lognorm() == -mu[-1]
            assert a.lognorm() + a.inverse().lognorm() == mu[0] - mu[-1]


def test_lognorm_submultiplicative():
    rng = random.Random(37)
    for _ in range(60):
        a, b = rand_mat(rng, 2), rand_mat(rng, 2)
        try:
            lab = (a * b).lognorm()
        except ValueError:
            continue  # product vanished
        assert lab <= a.lognorm() + b.lognorm()


def test_cartan_invariant_under_integral_unimodular_factors():
    rng = random.Random(41)
    F = F3

    def integral_unimodular():
        acc = Mat.identity(3)
        for _ in range(4):
            i = rng.randrange(3)
            j = rng.randrange(2)
            if j >= i:
                j += 1
            f = Laurent(3, rng.randrange(0, 3), (1 + rng.randrange(2),))
            acc = acc * Mat.elementary(3, i, j, f)
        return acc

    for _ in range(30):
        a = random_lattice_element(3, rng)
        u_, v_ = integral_unimodular(), integral_unimodular()
        assert (u_ * a * v_).cartan_projection() == a.cartan_projection()
    del F


def test_cartan_agrees_with_elimination_oracle():
    rng = random.Random(43)
    for q in (2, 3):
        for _ in range(25):
            a = random_lattice_element(q, rng, n_factors=5)
            mu = a.cartan_projection()
            vals = snf_diagonal_valuations([list(r) for r in a.rows], q, 48)
            assert tuple(-v for v in vals) == mu


def test_lognorm_is_sup_over_integral_grid():
    # the sup-norm operator norm over O^3 is attained on the level-3 grid
    # (it already contains the standard basis vectors)
    rng = random.Random(47)
    grid = []
    for digit_triples in itertools.product(range(8), repeat=3):
        if not any(digit_triples):
            continue
        vec = tuple(
            Laurent(2, 0, [(d >> k) & 1 for k in range(3)]) for d in digit_triples
        )
        grid.append(vec)
    assert len(grid) == 511
    for _ in range(8):
        a = random_lattice_element(2, rng, n_factors=4)
        target = a.lognorm()
        best = -INF
        for y in grid:
            vy = vec_min_val(y)
            vay = vec_min_val(a.matvec(y))
            best = max(best, vy - vay)
        assert best == target


def test_second_compound():
    a = diag(F2, 4, -2, -2)
    assert a.second_compound() == diag(F2, 2, 2, -4)
    rng = random.Random(53)
    for _ in range(20):
        x, y = random_lattice_element(2, rng), random_lattice_element(2, rng)
        assert (x * y).second_compound() == x.second_compound() * y.second_compound()


def test_vector_helpers():
    rng = random.Random(59)
    for _ in range(40):
        a = tuple(rand_exact(rng, 2) for _ in range(3))
        b = tuple(rand_exact(rng, 2) for _ in range(3))
        n = vec_cross(a, b)
        assert vec_dot(n, a).is_exact_zero
        assert vec_dot(n, b).is_exact_zero
    assert vec_min_val((F2.unknown(2), F2.u(3))) is None
    assert vec_min_val((F2.unknown(2), F2.one())) == 0
    assert vec_min_val((F2.zero(), F2.zero())) == INF


def test_poly_derivative_char_p():
    # d/dX (X^3 + u X + 1) = 3 X^2 + u = X^2 + u over F_2... and 0*X^2 + u over F_3
    p = Poly((F2.one(), F2.u(1), F2.zero(), F2.one()))
    assert p.derivative().coeffs == (F2.u(1), F2.zero(), F2.one())
    p3 = Poly((F3.one(), F3.u(1), F3.zero(), F3.one()))
    assert p3.derivative().coeffs == (F3.u(1), F3.zero(), F3.zero())
