"""Independent correctness oracle for the invariant workloads.

The oracle never calls braidrep's arithmetic.  It writes down the generator
images of the reduced Burau representation (conjugated form) and of the
two-row representation (parameters t, q) at fixed rational points, multiplies
out the word image exactly, and computes det(+-rho(w) - I) by plain Gaussian
elimination over fractions.Fraction.  The library's answer, evaluated at the
same points, must give the same value of num/den.  Both determinants are conjugation
invariant, so the check does not depend on the library's choice of basis.

Whether num/den is a polynomial is decided by the oracle's own long division
(laurent_quotient) on the terms of the library's answer, so a quotient the
library misses or invents shows as a failure.
"""

import math
from fractions import Fraction

# Points are away from roots of unity and from q*t^k = +-1, where the
# denominators of these representations can vanish.
KRAMMER_POINTS = ((Fraction(2), Fraction(-3)), (Fraction(-3, 2), Fraction(5, 2)))
ALEXANDER_POINTS = (Fraction(2), Fraction(-3, 2))


def _identity(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def _det(m):
    m = [row[:] for row in m]
    d = len(m)
    out = Fraction(1)
    for c in range(d):
        p = next((r for r in range(c, d) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        pivot = m[c][c]
        out *= pivot
        for r in range(c + 1, d):
            f = m[r][c] / pivot
            if f:
                row_c = m[c]
                row_r = m[r]
                for j in range(c + 1, d):
                    row_r[j] -= f * row_c[j]
    return out


def _inverse(m):
    d = len(m)
    aug = [row[:] + ident for row, ident in zip(m, _identity(d))]
    for c in range(d):
        p = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def _integer_columns(m):
    """(columns, c): m == M / c with M integral, M stored as sparse columns."""
    c = math.lcm(*(x.denominator for row in m for x in row))
    d = len(m)
    cols = [[(r, (m[r][j] * c).numerator) for r in range(d) if m[r][j]] for j in range(d)]
    return cols, c


def _burau_generators(n, t):
    """Reduced Burau, conjugated form, dimension n-1 (columns are images)."""
    if n == 2:
        return [[[-t]]]
    m = n - 1
    gens = []
    for i in range(1, n):
        g = _identity(m)
        if i == 1:
            g[0][0] = -t
            g[0][1] = t
        elif i == n - 1:
            g[m - 1][m - 2] = Fraction(1)
            g[m - 1][m - 1] = -t
        else:
            p = i - 2
            g[p + 1][p] = Fraction(1)
            g[p + 1][p + 1] = -t
            g[p + 1][p + 2] = t
        gens.append(g)
    return gens


def _lk_generators(n, t, q):
    """Two-row representation on F_(j,k), pairs ordered by (k, j)."""
    basis = [(j, k) for k in range(2, n + 1) for j in range(1, k)]
    index = {jk: p for p, jk in enumerate(basis)}
    d = len(basis)
    gens = []
    for i in range(1, n):
        g = [[Fraction(0)] * d for _ in range(d)]
        for col, (j, k) in enumerate(basis):
            if i == j - 1:
                entries = (((i, k), t), ((i, j), t * (t - 1)), ((j, k), 1 - t))
            elif i == j and i == k - 1:
                entries = (((j, k), q * t * t),)
            elif i == j:
                entries = (((j + 1, k), Fraction(1)),)
            elif i == k - 1:
                entries = (((j, i), t), ((j, k), 1 - t), ((i, k), t * (t - 1) * q))
            elif i == k:
                entries = (((j, k + 1), Fraction(1)),)
            else:
                entries = (((j, k), Fraction(1)),)
            for pair, value in entries:
                g[index[pair]][col] += value
        gens.append(g)
    return gens


class _PointRep:
    """Generator images and inverses of one representation at one point.

    Each is kept as an integer matrix and a common denominator, so that word
    images multiply out in integers.
    """

    def __init__(self, gens):
        self.dim = len(gens[0])
        self.cols = {}
        for i, g in enumerate(gens, start=1):
            self.cols[i] = _integer_columns(g)
            self.cols[-i] = _integer_columns(_inverse(g))

    def closure_det(self, letters, sign=1):
        """det(sign * rho(word) - I)."""
        m = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        scale = 1
        for x in letters:
            cols, c = self.cols[x]
            m = [[sum(row[k] * v for k, v in col) for col in cols] for row in m]
            scale *= c
        # rho(word) = m / scale
        a = [[Fraction(sign * x) for x in row] for row in m]
        for i in range(self.dim):
            a[i][i] -= scale
        return _det(a) / Fraction(scale) ** self.dim


class Oracle:
    """Caches point representations per strand count; checks library results."""

    def __init__(self):
        self._burau = {}
        self._lk = {}

    def _burau_at(self, n, t):
        key = (n, t)
        if key not in self._burau:
            self._burau[key] = _PointRep(_burau_generators(n, t))
        return self._burau[key]

    def _lk_at(self, n, t, q):
        key = (n, t, q)
        if key not in self._lk:
            self._lk[key] = _PointRep(_lk_generators(n, t, q))
        return self._lk[key]

    def alexander_ratio(self, n, letters, t):
        rep = self._burau_at(n, t)
        return (rep.closure_det(letters), rep.closure_det(range(1, n)))

    def krammer_ratio(self, n, letters, t, q):
        rep = self._lk_at(n, t, q)
        sign = -1 if sum(1 if x > 0 else -1 for x in letters) % 2 else 1
        sweep_sign = -1 if (n - 1) % 2 else 1
        return (rep.closure_det(letters, sign), rep.closure_det(range(1, n), sweep_sign))

    def check_alexander(self, n, letters, result):
        """Empty string when `result` (an AlexanderResult) is right, else why not.

        raw_fraction must equal the determinant ratio at each point, its
        denominator must divide its numerator, and normalized must be that
        quotient shifted to minimum t-degree 0 with positive lowest coefficient.
        """
        raw = result.raw_fraction
        for t in ALEXANDER_POINTS:
            num, den = self.alexander_ratio(n, letters, t)
            if den == 0:
                return "oracle denominator vanishes at t=%s" % t
            if raw.eval_rational(t, 1) != num / den:
                return "raw fraction differs from det ratio at t=%s" % t
        quotient = laurent_quotient(_terms(raw.num), _terms(raw.den))
        if quotient is None:
            return "alexander returned a result, but its ratio is not a polynomial"
        if any(eq for _et, eq in quotient):
            return "Alexander polynomial carries q"
        if _terms(result.normalized) != _normalize_alexander(quotient):
            return "normalized polynomial is not the normalized quotient"
        return ""

    def check_alexander_error(self, n, letters, num, den):
        """Empty string when alexander was right to raise InvariantError.

        num and den are det(rho(word) - I) and det(rho(sweep) - I) as the
        library computes them; they must match the oracle's determinants, and
        den must not divide num.
        """
        for t in ALEXANDER_POINTS:
            want_num, want_den = self.alexander_ratio(n, letters, t)
            if (num.eval_rational(t, 1), den.eval_rational(t, 1)) != (want_num, want_den):
                return "determinants behind InvariantError differ from the oracle's at t=%s" % t
        if laurent_quotient(_terms(num), _terms(den)) is not None:
            return "alexander raised InvariantError, but den divides num"
        return ""

    def check_krammer(self, n, letters, result):
        """Empty string when `result` (a KrammerResult) is right, else why not.

        collapsed must be None exactly when the fraction's denominator does not
        divide its numerator, and otherwise equal the quotient.
        """
        frac = result.fraction
        for t, q in KRAMMER_POINTS:
            num, den = self.krammer_ratio(n, letters, t, q)
            if den == 0:
                return "oracle denominator vanishes at (%s, %s)" % (t, q)
            lib_den = frac.den.eval_rational(t, q)
            if lib_den == 0:
                return "library denominator vanishes at (%s, %s)" % (t, q)
            if frac.num.eval_rational(t, q) * den != lib_den * num:
                return "fraction differs from det ratio at (%s, %s)" % (t, q)
        quotient = laurent_quotient(_terms(frac.num), _terms(frac.den))
        if result.collapsed is None:
            if quotient is not None:
                return "den divides num, but collapsed is None"
        elif quotient is None:
            return "collapsed is set, but den does not divide num"
        elif _terms(result.collapsed) != quotient:
            return "collapsed is not num / den"
        return ""


def _terms(poly):
    """A library polynomial as {(et, eq): c}, read from its JSON form."""
    return {(d["et"], d["eq"]): d["c"] for d in poly.to_json_terms()}


def laurent_quotient(num, den):
    """Exact quotient num / den in Z[t^+-1, q^+-1], or None if den does not divide num.

    Polynomials are {(et, eq): c} dicts.  Both are shifted to minimum
    exponents 0; the shifted den has no monomial factor, so it divides the
    Laurent polynomial num exactly when it divides the shifted num in
    Z[t, q].  Long division in lex order on (et, eq) then decides: for a
    single divisor, a leading term that does not divide means no quotient.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return {}
    na = (min(et for et, _ in num), min(eq for _, eq in num))
    nb = (min(et for et, _ in den), min(eq for _, eq in den))
    rem = {(et - na[0], eq - na[1]): c for (et, eq), c in num.items()}
    div = [((et - nb[0], eq - nb[1]), c) for (et, eq), c in den.items()]
    (lt, lq), lc = max(div)
    quo = {}
    while rem:
        (rt, rq) = top = max(rem)
        dt, dq = rt - lt, rq - lq
        if dt < 0 or dq < 0 or rem[top] % lc:
            return None
        k = rem[top] // lc
        quo[(dt, dq)] = k
        for (et, eq), c in div:
            m = (et + dt, eq + dq)
            v = rem.get(m, 0) - k * c
            if v:
                rem[m] = v
            else:
                del rem[m]
    shift = (na[0] - nb[0], na[1] - nb[1])
    return {(et + shift[0], eq + shift[1]): c for (et, eq), c in quo.items()}


def _normalize_alexander(poly):
    """Shift to minimum t-degree 0 and make the lowest coefficient positive."""
    if not poly:
        return {}
    low = min(et for et, _ in poly)
    sign = -1 if poly[min(poly)] < 0 else 1
    return {(et - low, eq): sign * c for (et, eq), c in poly.items()}
