"""Independent reference implementations used to check the package.

Deliberately naive: dict-of-exponents arithmetic for exact Laurent
polynomials, long-division series inversion, brute-force convex hulls,
pivoted elimination over truncated series.  Nothing here imports the
package's fast paths beyond the Laurent constructor itself, so agreement is
meaningful.
"""

from fractions import Fraction

from pingpong3.field import Laurent


# -- dict-based exact Laurent arithmetic ----------------------------------

def to_dict(x):
    assert x.exact, "oracle handles exact elements only"
    return {x.lead + i: d for i, d in enumerate(x.digits) if d}


def from_dict(c, q):
    if not c:
        return Laurent(q, 0, ())
    lead = min(c)
    top = max(c)
    return Laurent(q, lead, [c.get(e, 0) % q for e in range(lead, top + 1)])


def dict_add(a, b, q):
    out = dict(a)
    for e, d in b.items():
        out[e] = (out.get(e, 0) + d) % q
        if out[e] == 0:
            del out[e]
    return out


def dict_mul(a, b, q):
    out = {}
    for ea, da in a.items():
        for eb, db in b.items():
            e = ea + eb
            out[e] = (out.get(e, 0) + da * db) % q
            if out[e] == 0:
                del out[e]
    return out


def series_inverse_digits(x, n_terms):
    """First n_terms digits of 1/unit-part by the textbook recurrence."""
    q = x.q
    c = list(x.digits)
    assert c and c[0] != 0
    c0inv = pow(c[0], -1, q)
    y = [c0inv]
    for k in range(1, n_terms):
        s = 0
        for i in range(1, min(k, len(c) - 1) + 1):
            s += c[i] * y[k - i]
        y.append((-c0inv * s) % q)
    return y


# -- eager unit-window membership -----------------------------------------

def unit_window_eager(y):
    """Tri-state membership of [y] in the level-2 ball around [1:1:1],
    forming every pairwise difference: each must have valuation >= vm + 2,
    vm the minimum coordinate valuation (None when that is undecided)."""
    inf = float("inf")
    decided = [c.val() for c in y if c.val() is not None]
    floors = [c.known_to for c in y if c.val() is None]
    vm = min(decided, default=inf)
    if floors and min(floors) < vm:
        return None
    assert vm != inf, "zero vector"
    verdict = True
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = y[i] - y[j]
        if d.val_lower_bound() >= vm + 2:
            continue
        if d.val() is not None and d.val() < vm + 2:
            return False
        verdict = None
    return verdict


# -- eager slope-cone membership ------------------------------------------

def slope_u_cone_eager(x, y):
    """Tri-state slope-cone test reading the whole cross product n = x ^ y
    before any verdict: True when n is exactly zero, None when no
    coordinate is known nonzero, else whether -n_0 / n_1 lies in
    u(1 + um), i.e. val(-n_0 - u n_1) >= val(n_1) + 2."""
    n = (
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    )
    if all(c.is_exact_zero for c in n):
        return True
    if not any(c.known_nonzero() for c in n):
        return None
    num, den = -n[0], n[1]
    vden = den.val()
    if vden is None:
        return None
    comb = num - den.shift(1)
    threshold = float("inf") if vden == float("inf") else vden + 2
    if comb.val_lower_bound() >= threshold:
        return True
    cv = comb.val()
    if cv is not None and cv < threshold:
        return False
    return None


# -- lower convex hull (for Newton polygons) ------------------------------

def lower_hull(points):
    """Lower convex hull of (x, y) lattice points, left to right."""
    pts = sorted(points)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop if hull turns left (or is collinear) at the last point
            if (x2 - x1) * (p[1] - y1) <= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hull_root_valuations(coeff_vals):
    """Multiset of root valuations from {i: val(c_i)}, c_deg the monic top.

    Root valuations are the negated geometric slopes of the lower hull of
    the (i, val(c_i)) cloud, each with multiplicity = horizontal length.
    Infinite valuations (zero coefficients) simply drop out of the cloud.
    """
    pts = [(i, v) for i, v in coeff_vals.items() if v is not None]
    hull = lower_hull(pts)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        out.extend([-slope] * (x2 - x1))
    return sorted(out)


# -- pivoted Smith normal form over the valuation ring at finite precision -

def snf_diagonal_valuations(entries, q, precision):
    """Elementary-divisor valuations by explicit pivoted elimination.

    ``entries`` is a square array of exact Laurent elements.  Works over
    truncated series at the given (relative) precision; sound as long as
    precision exceeds the valuation spread, which callers ensure.
    """
    n = len(entries)
    a = [[x for x in row] for row in entries]
    vals = []
    for k in range(n):
        # locate a minimal-valuation pivot in the trailing block
        best = None
        for i in range(k, n):
            for j in range(k, n):
                v = a[i][j].val()
                if v is None:
                    # elimination zero: known to vanish far beyond any
                    # plausible pivot valuation, so it cannot be minimal
                    assert a[i][j].known_to >= precision // 2, "pivot undecided"
                    continue
                if v != float("inf") and (best is None or v < best[0]):
                    best = (v, i, j)
        assert best is not None, "singular input to SNF oracle"
        v, pi, pj = best
        a[k], a[pi] = a[pi], a[k]
        for row in a:
            row[k], row[pj] = row[pj], row[k]
        pivot = a[k][k]
        pinv = pivot.inv(precision - v)
        for i in range(k + 1, n):
            f = (a[i][k] * pinv).truncate(precision - v)
            for j in range(k, n):
                a[i][j] = (a[i][j] - f * a[k][j]).truncate(precision)
        for j in range(k + 1, n):
            f = (a[k][j] * pinv).truncate(precision - v)
            for i in range(k + 1, n):
                a[i][j] = (a[i][j] - f * a[i][k]).truncate(precision)
            a[k][j] = Laurent(q, 0, ())
        for i in range(k + 1, n):
            a[i][k] = Laurent(q, 0, ())
        vals.append(v)
    assert vals == sorted(vals), "pivot valuations must be non-decreasing"
    return vals
