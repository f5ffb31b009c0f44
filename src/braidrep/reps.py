"""Braid group representations over Z[t,t^-1,q,q^-1].

Constructors here all follow the same conventions: generator images are
square matrices whose columns are the images of basis vectors, words act by
left-to-right matrix products, and every generator image is invertible over
the Laurent ring (inverses are computed exactly at construction time).

The symmetric-square basis e^s_(k,r) (k <= r) is ordered colexicographically,
and the two-index basis F_(j,k) (j < k) of the 2-row representation is
ordered the same way, by (k, j).  The two orders are aligned so that the
change of basis w_(i,j) <-> F_(i,j+1) is position-for-position.
"""

from __future__ import annotations

from .braid import BraidWord, CheckReport, check_braid_relations
from .laurent import LaurentPoly, ONE, Q, T, ZERO
from .polymatrix import (
    PolyMatrix,
    char_poly,
    char_poly_from_roots,
    exp_nilpotent,
    ext_power,
    sym_basis,
    sym_power,
)


class Representation:
    """A braid group representation given by exact generator images."""

    __slots__ = ("strands", "dim", "label", "gen_images", "gen_inverses")

    def __init__(self, strands, gen_images, label):
        strands = int(strands)
        if strands < 2:
            raise ValueError("need at least 2 strands")
        if len(gen_images) != strands - 1:
            raise ValueError("expected %d generator images, got %d"
                             % (strands - 1, len(gen_images)))
        dims = {(g.rows, g.cols) for g in gen_images}
        if len(dims) != 1 or not gen_images[0].is_square():
            raise ValueError("generator images must be square matrices of one size")
        self.strands = strands
        self.dim = gen_images[0].rows
        self.label = label
        self.gen_images = list(gen_images)
        self.gen_inverses = [g.inverse() for g in gen_images]

    def sigma(self, i):
        """Image of sigma_i (or its inverse for negative i), 1-based."""
        if i == 0 or abs(i) > self.strands - 1:
            raise ValueError("generator index %d out of range for %d strands"
                             % (i, self.strands))
        return self.gen_images[i - 1] if i > 0 else self.gen_inverses[-i - 1]

    def image(self, word):
        return image_of_word(self, word)

    def __repr__(self):
        return "Representation(%s, strands=%d, dim=%d)" % (self.label, self.strands, self.dim)


def image_of_word(rep, word):
    """Image of a braid word (BraidWord or text) under the representation."""
    if isinstance(word, str):
        word = BraidWord.parse(word, rep.strands)
    if word.strands != rep.strands:
        raise ValueError("word on %d strands fed to a representation on %d"
                         % (word.strands, rep.strands))
    out = PolyMatrix.identity(rep.dim)
    for x in word:
        out = out * rep.sigma(x)
    return out


# ----------------------------------------------------------------------
# Burau family


def burau_unreduced(n):
    """Unreduced Burau: sigma_i acts by [[1-t, t], [1, 0]] on strands i, i+1."""
    n = int(n)
    if n < 2:
        raise ValueError("need at least 2 strands")
    block = PolyMatrix([[1 - T, T], [1, 0]])
    gens = []
    for i in range(1, n):
        g = PolyMatrix.identity(n)
        for a in range(2):
            for b in range(2):
                g.data[i - 1 + a][i - 1 + b] = block.data[a][b]
        gens.append(g)
    return Representation(n, gens, "burau(n=%d)" % n)


def burau_reduced(n, form="standard"):
    """Reduced Burau on n strands, dimension n-1.

    Two equivalent forms are provided; "conjugated" is the variant whose
    symmetric square feeds the quantization, and the stability and
    exterior-square identities are stated for it.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need at least 2 strands")
    if form not in ("standard", "conjugated"):
        raise ValueError("unknown reduced Burau form %r" % (form,))
    label = "reduced-burau(n=%d,%s)" % (n, form)
    if n == 2:
        return Representation(2, [PolyMatrix([[-T]])], label)
    m = n - 1
    gens = []
    for i in range(1, n):
        g = PolyMatrix.identity(m)
        if form == "standard":
            if i == 1:
                g.data[0][0] = -T
                g.data[1][0] = -ONE
            elif i == n - 1:
                g.data[m - 2][m - 1] = -T
                g.data[m - 1][m - 1] = -T
            else:
                p = i - 2
                g.data[p][p + 1] = -T
                g.data[p + 1][p + 1] = -T
                g.data[p + 2][p + 1] = -ONE
        else:
            if i == 1:
                g.data[0][0] = -T
                g.data[0][1] = T
            elif i == n - 1:
                g.data[m - 1][m - 2] = ONE
                g.data[m - 1][m - 1] = -T
            else:
                p = i - 2
                g.data[p + 1][p] = ONE
                g.data[p + 1][p + 1] = -T
                g.data[p + 1][p + 2] = T
        gens.append(g)
    return Representation(n, gens, label)


# ----------------------------------------------------------------------
# the two-row (Lawrence/Krammer style) representation


def lk_basis(n):
    """Pairs (j, k), 1 <= j < k <= n, ordered colexicographically by (k, j)."""
    return [(j, k) for k in range(2, n + 1) for j in range(1, k)]


def lk(n, notation="new"):
    """Two-row representation on the span of F_(j,k), 1 <= j < k <= n.

    notation="new" uses parameters (t, q); notation="bigelow" is the original
    parameter convention (q, t).  The two are related by the substitution
    t -> -q, q -> t applied to the "bigelow" matrices.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need at least 2 strands")
    if notation not in ("new", "bigelow"):
        raise ValueError("unknown notation %r" % (notation,))
    basis = lk_basis(n)
    index = {jk: p for p, jk in enumerate(basis)}
    dim = len(basis)
    t, q = T, Q
    gens = []
    for i in range(1, n):
        g = PolyMatrix.zeros(dim)

        def put(row_pair, col, value):
            g.data[index[row_pair]][col] = g.data[index[row_pair]][col] + value

        for col, (j, k) in enumerate(basis):
            if notation == "new":
                if i == j - 1:
                    put((i, k), col, t)
                    put((i, j), col, t * (t - 1))
                    put((j, k), col, 1 - t)
                elif i == j and i == k - 1:
                    put((j, k), col, q * t ** 2)
                elif i == j:
                    put((j + 1, k), col, ONE)
                elif i == k - 1:
                    put((j, i), col, t)
                    put((j, k), col, 1 - t)
                    put((i, k), col, t * (t - 1) * q)
                elif i == k:
                    put((j, k + 1), col, ONE)
                else:
                    put((j, k), col, ONE)
            else:
                if i == j - 1:
                    put((i, k), col, q)
                    put((i, j), col, q * (q - 1))
                    put((j, k), col, 1 - q)
                elif i == j and i == k - 1:
                    put((j, k), col, -t * q ** 2)
                elif i == j:
                    put((j + 1, k), col, ONE)
                elif i == k - 1:
                    put((j, i), col, q)
                    put((j, k), col, 1 - q)
                    put((i, k), col, q * (1 - q) * t)
                elif i == k:
                    put((j, k + 1), col, ONE)
                else:
                    put((j, k), col, ONE)
        gens.append(g)
    return Representation(n, gens, "lk(n=%d,%s)" % (n, notation))


def bigelow_to_new_bridge(n):
    """Machine check that the two parameter conventions agree.

    Substituting t -> -q, q -> t into every "bigelow" generator image must
    reproduce the "new" images exactly, generator by generator.
    """
    rep_new = lk(n, "new")
    rep_old = lk(n, "bigelow")
    report = CheckReport("lk-notation-bridge(n=%d)" % n)
    for i, g in enumerate(rep_old.gen_images):
        mapped = g.substitute(-Q, T)
        report.add("sigma_%d: bigelow|t->-q,q->t equals new" % (i + 1),
                   mapped == rep_new.gen_images[i])
    return report


# ----------------------------------------------------------------------
# quantized symmetric square and the change of basis


def _bracket_quantize(m):
    """Replace the integer entries +-2 by +-(1+q) entry-wise."""
    two = LaurentPoly.const(2)
    one_plus_q = 1 + Q

    def fn(e):
        if e == two:
            return one_plus_q
        if e == -two:
            return -one_plus_q
        return e
    return m.map(fn)


def _sym_pair_index(m):
    basis = sym_basis(m, 2)
    return basis, {pair: p for p, pair in enumerate(basis)}


def sym2_quantized(n):
    """Quantized symmetric square of the reduced Burau representation.

    Each generator image is a product of symmetric squares of elementary
    factors in which the entries +-2 are replaced by +-(1+q), followed by a
    diagonal that scales the doubled basis slot e^s_(k,k) of the active
    index by q.  Needs n >= 3.
    """
    n = int(n)
    if n < 3:
        raise ValueError("the quantized symmetric square needs n >= 3")
    m = n - 1
    basis, index = _sym_pair_index(m)
    dim = len(basis)

    def s2(mat):
        return sym_power(mat, 2)

    def dmat(k):
        entries = [ONE] * dim
        entries[index[(k - 1, k - 1)]] = Q
        return PolyMatrix.diagonal(entries)

    def diag_s(k):
        entries = [ONE] * m
        entries[k - 1] = -T
        return PolyMatrix.diagonal(entries)

    def elem(i, j, sign):
        g = PolyMatrix.identity(m)
        g.data[i - 1][j - 1] = LaurentPoly.const(sign)
        return g

    gens = []
    for k in range(1, n):
        if k == 1:
            g = s2(diag_s(1)) * _bracket_quantize(s2(elem(1, 2, -1)))
        elif k == n - 1:
            g = _bracket_quantize(s2(elem(m, m - 1, 1))) * s2(diag_s(m))
        else:
            g = (_bracket_quantize(s2(elem(k, k - 1, 1))) * s2(diag_s(k))
                 * _bracket_quantize(s2(elem(k, k + 1, -1))))
        gens.append(g * dmat(k))
    return Representation(n, gens, "sym2q(n=%d)" % n)


def change_of_basis(n):
    """The pair (C, C^-1) aligning the quantized symmetric square with lk(n).

    Columns of C^-1 express w_(i,j) = sum of e^s_(k,r) over i <= k <= r <= j.
    Columns of C invert that summation: for j - i <= 1 the alternating sum
    of w_(k,r) over the same index range, and for j - i >= 2 the mixed
    second difference

        e^s_(i,j) = w_(i,j) - w_(i+1,j) - w_(i,j-1) + w_(i+1,j-1),

    which telescopes the summation exactly (each column of C touches at
    most four basis vectors).  The product C * C^-1 is verified to be the
    identity before returning.
    """
    n = int(n)
    if n < 3:
        raise ValueError("the change of basis needs n >= 3")
    m = n - 1
    basis0, _ = _sym_pair_index(m)
    pairs = [(a + 1, b + 1) for a, b in basis0]
    index = {pair: p for p, pair in enumerate(pairs)}
    dim = len(pairs)

    e_inv = PolyMatrix.zeros(dim)
    for col, (i, j) in enumerate(pairs):
        for row, (k, r) in enumerate(pairs):
            if i <= k and r <= j:
                e_inv.data[row][col] = ONE

    c = PolyMatrix.zeros(dim)
    for col, (i, j) in enumerate(pairs):
        if j - i <= 1:
            for (k, r) in pairs:
                if i <= k and r <= j:
                    sign = 1 if ((i + j) + (k + r)) % 2 == 0 else -1
                    c.data[index[(k, r)]][col] = LaurentPoly.const(sign)
        else:
            c.data[index[(i, j)]][col] = ONE
            c.data[index[(i + 1, j)]][col] = -ONE
            c.data[index[(i, j - 1)]][col] = -ONE
            c.data[index[(i + 1, j - 1)]][col] = ONE
    if c * e_inv != PolyMatrix.identity(dim):
        raise ArithmeticError("change-of-basis columns are not mutually inverse")
    return c, e_inv


def verify_lk_equivalence(n):
    """Check C * [S^2 rho_n]_q * C^-1 = lk(n) generator by generator."""
    c, c_inv = change_of_basis(n)
    s2q = sym2_quantized(n)
    kn = lk(n, "new")
    report = CheckReport("lk-equivalence(n=%d)" % n)
    for i in range(n - 1):
        conj = c * s2q.gen_images[i] * c_inv
        report.add("sigma_%d: conjugated quantized symmetric square equals lk" % (i + 1),
                   conj == kn.gen_images[i])
    return report


# ----------------------------------------------------------------------
# spectra


def verify_spectrum(n):
    """Characteristic polynomials of the sigma_1 images, compared exactly.

    lk(n)(sigma_1):      (x - q t^2) (x + t)^(n-2) (x - 1)^((n-1)(n-2)/2)
    S^2 rho_n(sigma_1):  (x - t^2)   (x + t)^(n-2) (x - 1)^((n-1)(n-2)/2)
    """
    n = int(n)
    if n < 3:
        raise ValueError("spectrum check needs n >= 3")
    ones = (n - 1) * (n - 2) // 2
    report = CheckReport("spectrum(n=%d)" % n)
    kn = lk(n, "new").gen_images[0]
    expected_k = char_poly_from_roots([Q * T ** 2] + [-T] * (n - 2) + [ONE] * ones)
    report.add("char poly of lk(sigma_1) = (x - q*t^2)(x + t)^%d (x - 1)^%d" % (n - 2, ones),
               char_poly(kn) == expected_k)
    s2 = sym_power(burau_reduced(n, "conjugated").gen_images[0], 2)
    expected_s = char_poly_from_roots([T ** 2] + [-T] * (n - 2) + [ONE] * ones)
    report.add("char poly of S^2 rho(sigma_1) = (x - t^2)(x + t)^%d (x - 1)^%d" % (n - 2, ones),
               char_poly(s2) == expected_s)
    return report


# ----------------------------------------------------------------------
# stability under adding a strand


def _cyclic_shift_conjugate(mat):
    nrows = mat.rows
    perm = [(i + 1) % nrows for i in range(nrows)]
    return mat.conjugate_by_permutation(perm)


def verify_stability(n):
    """Behaviour of the reduced Burau images when a strand is added.

    Embedding rho_n(sigma_k) into one extra dimension (a 1 in the new corner)
    and conjugating by the cyclic shift J sends sigma_k to rho_(n+1)(sigma_(k+1))
    for 2 <= k <= n-1.  The plain embedding already equals rho_(n+1)(sigma_k)
    for k <= n-2.  Together every generator sigma_2..sigma_n of the larger
    group is reached.  For sigma_1 the shifted identity genuinely fails, which
    is recorded as an expected failure.
    """
    n = int(n)
    if n < 3:
        raise ValueError("stability check needs n >= 3")
    small = burau_reduced(n, "conjugated")
    big = burau_reduced(n + 1, "conjugated")
    one = PolyMatrix([[ONE]])
    report = CheckReport("stability(n=%d)" % n)
    for k in range(2, n):
        lhs = _cyclic_shift_conjugate(small.gen_images[k - 1].direct_sum(one))
        report.add("J i(rho_%d(sigma_%d)) J^-1 = rho_%d(sigma_%d)" % (n, k, n + 1, k + 1),
                   lhs == big.gen_images[k])
    for k in range(1, n - 1):
        lhs = small.gen_images[k - 1].direct_sum(one)
        report.add("i(rho_%d(sigma_%d)) = rho_%d(sigma_%d)" % (n, k, n + 1, k),
                   lhs == big.gen_images[k - 1])
    lhs1 = _cyclic_shift_conjugate(small.gen_images[0].direct_sum(one))
    report.add("shifted identity fails at sigma_1 (expected failure)",
               lhs1 != big.gen_images[1])
    return report


# ----------------------------------------------------------------------
# exterior square of the 4-strand reduced Burau


def _antidiag(n):
    return PolyMatrix([[ONE if i + j == n - 1 else ZERO for j in range(n)] for i in range(n)])


def verify_ext_square():
    """Wedge square of the 4-strand reduced Burau against a parameter flip.

    For every generator, wedge^2 rho_4(sigma_k) equals -t S rho'_4(sigma_k) S
    where rho'_4 is the standard-form reduced Burau with t replaced by t^-1
    and S is the 3x3 antidiagonal.  The same comparison with t -> -t^-1 must
    fail, and the sigma_1 spectra separate wedge^2 rho_4 from rho_4 except at
    t = -1.
    """
    conj = burau_reduced(4, "conjugated")
    std = burau_reduced(4, "standard")
    s3 = _antidiag(3)
    tinv = T ** -1
    report = CheckReport("ext-square(n=4)")
    wedges = [ext_power(g, 2) for g in conj.gen_images]
    for i, w in enumerate(wedges):
        rhs = (s3 * std.gen_images[i].substitute(tinv, Q) * s3).scale(-T)
        report.add("wedge^2 rho_4(sigma_%d) = -t S rho_4(sigma_%d)|_(t -> t^-1) S"
                   % (i + 1, i + 1), w == rhs)
    rhs_bad = (s3 * std.gen_images[0].substitute(-tinv, Q) * s3).scale(-T)
    report.add("substitution t -> -t^-1 fails on sigma_1 (expected failure)",
               wedges[0] != rhs_bad)
    cp_wedge = char_poly(wedges[0])
    cp_burau = char_poly(conj.gen_images[0])
    report.add("sigma_1 char polys separate wedge^2 rho_4 from rho_4",
               cp_wedge != cp_burau)
    minus_one = LaurentPoly.const(-1)
    w_at = wedges[0].substitute(minus_one, Q)
    b_at = conj.gen_images[0].substitute(minus_one, Q)
    report.add("at t = -1 the sigma_1 char polys coincide",
               char_poly(w_at) == char_poly(b_at))
    report.note("wedge^2 of the conjugated form matches the standard form with "
                "parameter t^-1 and overall factor -t; the exponent -t^-1 does not work")
    return report


# ----------------------------------------------------------------------
# q-Pascal representations of the 3-strand group


def qpascal_sigma1(n, use_q=True):
    """(n+1) x (n+1) upper triangular Pascal matrix of Gaussian binomials.

    Entry (k, m), 0-based, is C_(n-k)^(n-m)(q); with use_q=False the matrix
    is evaluated at q = 1 (ordinary binomial coefficients).
    """
    from .laurent import q_binomial
    import math as _math
    n = int(n)
    if n < 1:
        raise ValueError("qpascal_sigma1 needs n >= 1")
    out = PolyMatrix.zeros(n + 1)
    for k in range(n + 1):
        for m in range(n + 1):
            if use_q:
                out.data[k][m] = q_binomial(n - k, n - m)
            else:
                if 0 <= n - m <= n - k:
                    out.data[k][m] = LaurentPoly.const(_math.comb(n - k, n - m))
    return out


def qpascal_sigma2(n, use_q=True):
    """The companion lower triangular generator: sharp of the inverse of
    qpascal_sigma1 taken at q^-1."""
    base = qpascal_sigma1(n, use_q)
    if use_q:
        base = base.substitute(T, Q ** -1)
    return base.inverse().sharp()


def qpascal_dmatrix(n):
    """diag(q^(r(r-1)/2)) for r = 0..n."""
    return PolyMatrix.diagonal([Q ** (r * (r - 1) // 2) for r in range(int(n) + 1)])


def validate_lambda(entries):
    """Diagonal parameters: unit monomials with lambda_r * lambda_(n-r) constant."""
    entries = [LaurentPoly.coerce(e) for e in entries]
    if len(entries) < 2:
        raise ValueError("need at least two diagonal parameters")
    for r, e in enumerate(entries):
        if not e.is_unit():
            raise ValueError("lambda_%d = %s is not a unit monomial" % (r, e))
    n = len(entries) - 1
    const = entries[0] * entries[n]
    for r in range(len(entries)):
        if entries[r] * entries[n - r] != const:
            raise ValueError("unbalanced diagonal: lambda_%d * lambda_%d differs from "
                             "lambda_0 * lambda_%d" % (r, n - r, n))
    return entries


def qpascal_rep(lambdas, form="standard"):
    """3-strand representation of dimension len(lambdas) built from q-Pascal
    matrices and a balanced unit-monomial diagonal.

    form="standard" returns the pair (sigma_1, sigma_2) images; form="sharp"
    returns the #-conjugated pair, whose sigma_1 image is the sharp of the
    standard sigma_2 image and vice versa.
    """
    entries = validate_lambda(lambdas)
    n = len(entries) - 1
    lam = PolyMatrix.diagonal(entries)
    d = qpascal_dmatrix(n)
    s1 = qpascal_sigma1(n) * d.sharp() * lam
    s2 = lam.sharp() * d * qpascal_sigma2(n)
    if form == "standard":
        gens = [s1, s2]
    elif form == "sharp":
        gens = [s2.sharp(), s1.sharp()]
    else:
        raise ValueError("unknown form %r" % (form,))
    return Representation(3, gens, "qpascal(dim=%d,%s)" % (n + 1, form))


def verify_humphry(max_power=7):
    """Symmetric powers of the integer shears against Pascal matrices.

    For each m the three constructions of the sigma_1 image must agree:
    S^m [[1,1],[0,1]], the q-Pascal matrix at q = 1, and exp of the module
    data's nilpotent raising matrix; likewise on the sigma_2 side.
    """
    report = CheckReport("humphry(max_power=%d)" % max_power)
    upper = PolyMatrix([[1, 1], [0, 1]])
    lower = PolyMatrix([[1, 0], [-1, 1]])
    for m in range(1, int(max_power) + 1):
        _e, xs, ys = sl2_symmetric_power_data(m)
        p1 = qpascal_sigma1(m, use_q=False)
        report.add("m=%d: S^m of the upper shear equals the Pascal matrix" % m,
                   sym_power(upper, m) == p1)
        report.add("m=%d: exp of the raising matrix equals the Pascal matrix" % m,
                   exp_nilpotent(xs[0]) == p1)
        p2 = qpascal_sigma2(m, use_q=False)
        report.add("m=%d: S^m of the lower shear equals sharp-inverse Pascal" % m,
                   sym_power(lower, m) == p2)
        report.add("m=%d: exp of minus the lowering matrix matches" % m,
                   exp_nilpotent(-ys[0]) == p2)
    return report


# ----------------------------------------------------------------------
# representations from Lie module data


def _as_diagonal_ints(mat, what):
    if isinstance(mat, PolyMatrix):
        n = mat.rows
        mat._require_square(what)
        diag = []
        for i in range(n):
            for j in range(n):
                e = mat.data[i][j]
                if i == j:
                    if e != e.coeff():
                        raise ValueError("%s must have constant integer diagonal" % what)
                    diag.append(e.coeff())
                elif not e.is_zero():
                    raise ValueError("%s must be diagonal" % what)
        return diag
    return [int(v) for v in mat]


def braid_from_lie_rep(e_diagonals, x_images, y_images, strands):
    """Braid representation from weight data and raising/lowering matrices.

    e_diagonals are the integer weight diagonals of the Cartan elements; the
    formal exponential of s times such an element becomes diag((-t)^weight).
    x_images / y_images are nilpotent matrices (exp must terminate, otherwise
    this raises).  The generator images are

        sigma_1 = exp(s E_1) exp(-X_1)
        sigma_k = exp(Y_(k-1)) exp(s E_k) exp(-X_k)   (1 < k < strands-1)
        sigma_(m) = exp(Y_(m-1)) exp(s E_m)           (m = strands-1)
    """
    strands = int(strands)
    if strands < 2:
        raise ValueError("need at least 2 strands")
    m = strands - 1
    diags = [_as_diagonal_ints(e, "Cartan element %d" % (i + 1)) for i, e in enumerate(e_diagonals)]
    if len(diags) != m:
        raise ValueError("expected %d Cartan elements, got %d" % (m, len(diags)))
    if len(x_images) != m - 1 or len(y_images) != m - 1:
        raise ValueError("expected %d raising and lowering matrices" % (m - 1,))
    dim = len(diags[0])
    if any(len(d) != dim for d in diags):
        raise ValueError("inconsistent module dimensions")

    def expo(diag):
        return PolyMatrix.diagonal(
            [LaurentPoly.monomial(-1 if d % 2 else 1, d) for d in diag])

    gens = []
    for k in range(1, m + 1):
        parts = []
        if k >= 2:
            parts.append(exp_nilpotent(y_images[k - 2]))
        parts.append(expo(diags[k - 1]))
        if k <= m - 1:
            parts.append(exp_nilpotent(-x_images[k - 1]))
        g = parts[0]
        for p in parts[1:]:
            g = g * p
        gens.append(g)
    return Representation(strands, gens, "lie(strands=%d,dim=%d)" % (strands, dim))


def natural_lie_data(strands):
    """Weight and shear data of the natural module; reproduces the conjugated
    reduced Burau representation."""
    m = int(strands) - 1
    if m < 1:
        raise ValueError("need at least 2 strands")
    es = []
    for k in range(m):
        es.append([1 if i == k else 0 for i in range(m)])
    xs = []
    ys = []
    for k in range(m - 1):
        x = PolyMatrix.zeros(m)
        x.data[k][k + 1] = ONE
        xs.append(x)
        y = PolyMatrix.zeros(m)
        y.data[k + 1][k] = ONE
        ys.append(y)
    return es, xs, ys


def sl2_symmetric_power_data(power):
    """Module data of the m-th symmetric power of the 2-dimensional module:
    weights (m..0) and (0..m), raising superdiagonal (m..1), lowering
    subdiagonal (1..m).  Feeds a 3-strand representation of dimension m+1."""
    m = int(power)
    if m < 1:
        raise ValueError("symmetric power needs m >= 1")
    e1 = [m - i for i in range(m + 1)]
    e2 = [i for i in range(m + 1)]
    x = PolyMatrix.zeros(m + 1)
    y = PolyMatrix.zeros(m + 1)
    for i in range(m):
        x.data[i][i + 1] = LaurentPoly.const(m - i)
        y.data[i + 1][i] = LaurentPoly.const(i + 1)
    return [e1, e2], [x], [y]


def lie_rep(strands=None, power=None):
    """Convenience wrapper: natural module on the given strands, or the sl2
    symmetric-power family (3 strands) when power is given."""
    if power is not None:
        if strands not in (None, 3):
            raise ValueError("the symmetric-power family lives on 3 strands")
        es, xs, ys = sl2_symmetric_power_data(power)
        return braid_from_lie_rep(es, xs, ys, 3)
    if strands is None:
        raise ValueError("need strands or power")
    es, xs, ys = natural_lie_data(strands)
    return braid_from_lie_rep(es, xs, ys, strands)
