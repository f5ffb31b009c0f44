"""Braid group representations over Z[t,t^-1,q,q^-1].

Constructors here all follow the same conventions: generator images are
square matrices whose columns are the images of basis vectors, the image of
a word is the product of its letters' images from left to right, and every
generator image is invertible over the Laurent ring.  A representation
stores the generator images; the image of an inverse letter sigma_i^-1 is
computed the first time a word uses it, then kept.  Before any matrix a
word loses the pairs of inverse letters that meet by far commutation
(BraidWord.free_reduce): they are the same braid, so the image is the
same matrix, and fewer letters are applied.  A word image is kept
as a list of rows or of columns and applies each letter only to the lines
where its image differs from the identity (image_of_word), never as a
whole-matrix product.  A changed line with a single entry 1 is the old line
it points at, shared rather than copied, and one with a single monomial
entry is that line shifted; lines are replaced and never written, so
sharing is safe, and the finished image copies every line.  Two more walks
over the same changed lines serve representations with no q, with no
product of polynomials, both over one letter_t_lines of the word:
word_norm_bound bounds each line by one number, the sum of its entries'
1-norms, and a t-range, and image_at_power_of_two builds the image at
t = 2^bits as one int per entry, each line a new list that its caller owns.

Symmetric powers are quantized by one rule: the p-th power of a
transvection I + s*e_ij carries the Gaussian binomial [a choose b]_q s^b
where the classical power carries the binomial, and diagonals put w_r
q^C(r,2) on the slots holding the active index r times.  With w_r = (-t)^r
the first power is the only definition of reduced Burau (burau_reduced
reads both of its forms off it) and the second is sym2_quantized; the sharp
q-Pascal form is the rule on 3 strands with w_r = lambda_(p-r).  Every
factored generator is built as the product of its factors; nothing is
inverted or substituted at build time.

The symmetric-square basis e^s_(k,r) (k <= r) is ordered colexicographically,
and the two-index basis F_(j,k) (j < k) of the 2-row representation is
ordered the same way, by (k, j).  The two orders are aligned so that the
change of basis w_(i,j) <-> F_(i,j+1) is position-for-position.
"""

from __future__ import annotations

import math
import operator
from operator import add

from .braid import BraidWord, CheckReport
from .laurent import LaurentPoly, ONE, Q, T, q_binomial, sum_of_products, t_terms
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
    """A braid group representation given by its exact generator images.

    The image of an inverse letter is computed the first time a word uses
    it, then kept.  Inverting every generator up front would cost far more
    than most requests (lk(16) has 120 x 120 images).  Next to the kept
    inverses sit the lines (rows or columns) where each letter's image
    differs from the identity, which are all a word image applies, each
    classified once by its entries; the first word image picks rows or
    columns (see image_of_word).  For a representation with no q the same
    lines are also kept read as polynomials in t, for word_norm_bound and
    image_at_power_of_two.
    """

    __slots__ = ("strands", "dim", "label", "gen_images", "_inverses", "_by_rows", "_where",
                 "_lines", "_t_lines")

    def __init__(self, strands, gen_images, label):
        strands = operator.index(strands)
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
        self._inverses = {}
        self._by_rows = self._where = None
        self._lines = {}
        self._t_lines = {}

    def sigma(self, i):
        """Image of sigma_i, 1-based.  A negative i gives the inverse of
        sigma_|i|, computed the first time it is asked for by
        PolyMatrix.inverse (fraction-free Gauss-Jordan elimination over the
        nonzero entries), then kept (ArithmeticError, and nothing kept, if
        it is not invertible over the Laurent ring)."""
        if i == 0 or abs(i) > self.strands - 1:
            raise ValueError("generator index %d out of range for %d strands"
                             % (i, self.strands))
        if i > 0:
            return self.gen_images[i - 1]
        inv = self._inverses.get(i)
        if inv is None:
            inv = self._inverses[i] = self.gen_images[-i - 1].inverse()
        return inv

    def _orient(self):
        """Whether word images go by rows: the generators differ from the
        identity in fewer rows than columns, a tie going to columns.  Decided
        once, keeping for each generator the indices of its changed lines."""
        if self._by_rows is None:
            changed = []
            for g in self.gen_images:
                rows, cols = set(), set()
                for i, row in enumerate(g.data):
                    for j, e in enumerate(row):
                        if (e != ONE) if i == j else e:
                            rows.add(i)
                            cols.add(j)
                changed.append((sorted(rows), sorted(cols)))
            self._by_rows = sum(len(r) for r, _ in changed) < sum(len(c) for _, c in changed)
            self._where = [r if self._by_rows else c for r, c in changed]
        return self._by_rows

    def _letter_lines(self, x):
        """The lines where the image of letter x differs from the identity,
        read once _orient has run and then kept.  Each is (index, entries,
        k, term), entries its nonzero (k, entry) pairs.  If the only nonzero
        entry is 1 at k, k is set and term is None; if it is a monomial
        c*t^et*q^eq at k, term is (c, et, eq); otherwise both are None.
        An inverse letter differs from the identity on the same lines as its
        generator (if g = I + E, then g^-1 = I - E g^-1 = I - g^-1 E), so
        both are read at its indices."""
        lines = self._lines.get(x)
        if lines is None:
            data = self.sigma(x).data
            lines = []
            for i in self._where[abs(x) - 1]:
                line = data[i] if self._by_rows else [row[i] for row in data]
                entries = [(k, e) for k, e in enumerate(line) if e]
                k = term = None
                if len(entries) == 1 and len(entries[0][1]) == 1:
                    k, e = entries[0]
                    if not e.is_one():
                        (et, eq), c = e.leading()
                        term = (c, et, eq)
                lines.append((i, entries, k, term))
            self._lines[x] = lines
        return lines

    def _letter_t_lines(self, x):
        """The lines of _letter_lines(x), for a representation with no q,
        each as (index, entries) with entries its (k, lo, hi, norm, terms)
        tuples, the last four read by laurent.t_terms; kept."""
        lines = self._t_lines.get(x)
        if lines is None:
            lines = self._t_lines[x] = [(i, [(k,) + t_terms(e) for k, e in entries])
                                        for i, entries, _, _ in self._letter_lines(x)]
        return lines

    def image(self, word):
        return image_of_word(self, word)

    def __repr__(self):
        return "Representation(%s, strands=%d, dim=%d)" % (self.label, self.strands, self.dim)


def _applied_letters(rep, word):
    """The letters of a braid word (BraidWord or text) left after
    BraidWord.free_reduce, which gives the same braid, in the order a word
    image applies them: right to left by rows, left to right by columns
    (Representation._orient, which this runs)."""
    if isinstance(word, str):
        word = BraidWord.parse(word, rep.strands)
    if word.strands != rep.strands:
        raise ValueError("word on %d strands fed to a representation on %d"
                         % (word.strands, rep.strands))
    letters = word.free_reduce().letters
    return letters[::-1] if rep._orient() else letters


def image_of_word(rep, word):
    """Image of a braid word (BraidWord or text) under the representation;
    an inverse letter is inverted the first time a word uses it, then kept.
    The letters applied are those of the word with the pairs of inverse
    letters cancelled that meet by far commutation (_applied_letters): the
    same braid, so the same image as the product of every letter's image,
    and a pair such as sigma_1 sigma_1^-1 inverts nothing.

    The image is kept as a list of lines: its rows, or its columns, which
    are transposed back once at the end.  Each letter replaces only the
    lines where its image differs from the identity; the other lines pass
    through untouched.  By rows, the letters act from the left, so the word
    is walked right to left and a changed row i becomes sum_k g_ik row_k; by
    columns they act from the right, left to right, and a changed column j
    becomes sum_k g_kj column_k.  Either way a changed line is a
    combination of old lines, and what it costs depends on its entries
    (Representation._letter_lines): a single 1 at k makes it line k itself,
    a single monomial at k makes it line k shifted by times_term, and
    otherwise every new entry is one sum_of_products over its nonzero pairs.

    Lines are shared, between each other and with the generator images,
    because no line is ever written: a letter builds its new lines from the
    old ones and then puts them in place.  The returned matrix copies every
    line, so the caller may write into it, and writing one of its rows
    changes no other row and no kept image."""
    letters = _applied_letters(rep, word)
    if not letters:
        return PolyMatrix.identity(rep.dim)
    by_rows = rep._by_rows
    if by_rows:
        lines = list(rep.sigma(letters[0]).data)
    else:
        lines = list(zip(*rep.sigma(letters[0]).data))
    span = range(rep.dim)
    for x in letters[1:]:
        new = []
        for i, entries, k, term in rep._letter_lines(x):
            if k is None:
                src = [(g, lines[j]) for j, g in entries]
                line = [sum_of_products([(g, l[c]) for g, l in src if l[c]]) for c in span]
            elif term is None:
                line = lines[k]
            else:
                line = [e.times_term(*term) if e else e for e in lines[k]]
            new.append((i, line))
        for i, line in new:
            lines[i] = line
    if by_rows:
        return PolyMatrix._wrap([list(line) for line in lines])
    return PolyMatrix._wrap([list(row) for row in zip(*lines)])


def letter_t_lines(rep, word):
    """Representation._letter_t_lines of each letter of a braid word
    (BraidWord or text) that _applied_letters keeps, in the order a word
    image applies them; the representation keeps each letter's lines, so
    a letter is read once.  The walks below take this list, so two walks
    parse the word once."""
    return [rep._letter_t_lines(x) for x in _applied_letters(rep, word)]


def word_norm_bound(rep, letters):
    """(sums, los, his): bounds on the image of a word under a
    representation with no q, read from its letter_t_lines alone.

    Line i of the image (a row or a column, as image_of_word keeps it) has
    entries whose 1-norms add up to at most sums[i], and t-exponents in
    [los[i], his[i]], with los[i] <= 0 <= his[i].  The walk is
    image_of_word's, each entry g replaced by its 1-norm and t-range: a new
    line sum_k g_k line_k gets sum_k |g_k|_1 sums[k], one multiply-add per
    entry, as the 1-norm is subadditive and submultiplicative, and the
    widest t-range of the g_k line_k."""
    d = rep.dim
    sums, los, his = [1] * d, [0] * d, [0] * d
    for changed in letters:
        new = []
        for i, entries in changed:
            total = lo = hi = 0
            for k, glo, ghi, g, _ in entries:
                total += g * sums[k]
                if los[k] + glo < lo:
                    lo = los[k] + glo
                if his[k] + ghi > hi:
                    hi = his[k] + ghi
            new.append((i, total, lo, hi))
        for i, total, lo, hi in new:
            sums[i], los[i], his[i] = total, lo, hi
    return sums, los, his


def image_at_power_of_two(rep, letters, bits):
    """(lines, offsets): the image of a word, given by its letter_t_lines,
    at t = 2^bits, one Python int per entry, for a representation with no q.

    Line i of the image (as in word_norm_bound) is t^-offsets[i] times a
    line of polynomials in t, and lines[i] holds their values at t = 2^bits.
    The offset keeps the t^-1 entries of inverse letters integral: a letter
    replaces line i by sum_k g_k line_k, each g_k = t^lo_k times a
    polynomial sum_j c_j t^j (laurent.t_terms), so the new offset is the
    largest offsets[k] - lo_k, never below 0, and each term adds c_j times
    line k shifted left by bits times the t-power it lacks.  Only shifts
    and small multipliers enter.  The walk is word_norm_bound's, and its
    offsets are -los.  Every line a letter builds is a new list, so no two
    returned lines share one and the caller may write them in place."""
    d = rep.dim
    lines = [[int(i == c) for c in range(d)] for i in range(d)]
    offsets = [0] * d
    for changed in letters:
        new = []
        for i, entries in changed:
            offset = 0
            for k, lo, _, _, _ in entries:
                if offsets[k] - lo > offset:
                    offset = offsets[k] - lo
            line = None
            for k, lo, _, _, terms in entries:
                src = lines[k]
                base = offset + lo - offsets[k]
                for j, c in terms:
                    shift = bits * (base + j)
                    if c != 1:
                        part = [c * y << shift for y in src]
                    else:
                        part = [y << shift for y in src]
                    line = part if line is None else list(map(add, line, part))
            new.append((i, line, offset))
        for i, line, offset in new:
            lines[i], offsets[i] = line, offset
    return lines, offsets


# ----------------------------------------------------------------------
# Burau family


def burau_unreduced(n):
    """Unreduced Burau: sigma_i acts by [[1-t, t], [1, 0]] on strands i, i+1."""
    n = operator.index(n)
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

    Two equivalent forms are provided.  "conjugated" is the first power of
    the quantization rule (_quantized_sym_gens(n, [1, -t])); its symmetric
    square feeds the quantization, and the stability and exterior-square
    identities are stated for it.  "standard" is D sigma^T D^-1 with D = diag((-t)^-j):
    entry (i, j) is (-t)^(j-i) times entry (j, i) of the conjugated image.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError("need at least 2 strands")
    if form not in ("standard", "conjugated"):
        raise ValueError("unknown reduced Burau form %r" % (form,))
    gens = _quantized_sym_gens(n, [ONE, -T])
    if form == "standard":
        m = n - 1
        gens = [PolyMatrix([[(-T) ** (j - i) * g[j, i] for j in range(m)] for i in range(m)])
                for g in gens]
    return Representation(n, gens, "reduced-burau(n=%d,%s)" % (n, form))


# ----------------------------------------------------------------------
# the two-row (Lawrence/Krammer style) representation


def lk_basis(n):
    """Pairs (j, k), 1 <= j < k <= n, ordered colexicographically by (k, j)."""
    return [(j, k) for k in range(2, n + 1) for j in range(1, k)]


def lk(n, notation="new"):
    """Two-row representation on the span of F_(j,k), 1 <= j < k <= n.

    notation="new" uses parameters (t, q); notation="bigelow" is the original
    parameter convention (q, t).  The two are related by the substitution
    t -> -q, q -> t applied to the "bigelow" matrices.  Both share one case
    table; the notation only picks its five coefficients.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError("need at least 2 strands")
    if notation not in ("new", "bigelow"):
        raise ValueError("unknown notation %r" % (notation,))
    t, q = T, Q
    if notation == "new":
        a, b, c, d, e = t, t * (t - 1), 1 - t, q * t ** 2, t * (t - 1) * q
    else:
        a, b, c, d, e = q, q * (q - 1), 1 - q, -t * q ** 2, q * (1 - q) * t
    basis = lk_basis(n)
    index = {jk: p for p, jk in enumerate(basis)}
    gens = []
    for i in range(1, n):
        g = PolyMatrix.zeros(len(basis))
        for col, (j, k) in enumerate(basis):
            if i == j - 1:
                g.data[index[i, k]][col] = a
                g.data[index[i, j]][col] = b
                g.data[index[j, k]][col] = c
            elif i == j and i == k - 1:
                g.data[index[j, k]][col] = d
            elif i == j:
                g.data[index[j + 1, k]][col] = ONE
            elif i == k - 1:
                g.data[index[j, i]][col] = a
                g.data[index[j, k]][col] = c
                g.data[index[i, k]][col] = e
            elif i == k:
                g.data[index[j, k + 1]][col] = ONE
            else:
                g.data[index[j, k]][col] = ONE
        gens.append(g)
    return Representation(n, gens, "lk(n=%d,%s)" % (n, notation))


# ----------------------------------------------------------------------
# quantized symmetric square and the change of basis


def _transvection_q(m, i, j, s, p):
    """S^p_q(I + s*e_ij) on sym_basis(m, p): the row of a multiset holding a
    copies of index i has q_binomial(a, b) * s^b in the column where b of
    those copies become j.  At q = 1 this is sym_power(I + s*e_ij, p)."""
    basis = sym_basis(m, p)
    index = {tup: r for r, tup in enumerate(basis)}
    out = PolyMatrix.zeros(len(basis))
    for row, tup in enumerate(basis):
        a = tup.count(i)
        rest = [x for x in tup if x != i]
        for b in range(a + 1):
            col = index[tuple(sorted(rest + [i] * (a - b) + [j] * b))]
            out.data[row][col] = q_binomial(a, b) * s ** b
    return out


def _slot_q(m, k, p):
    """diag(q^C(r,2)) on sym_basis(m, p), r the multiplicity of index k."""
    return PolyMatrix.diagonal([Q ** math.comb(tup.count(k), 2) for tup in sym_basis(m, p)])


def _quantized_sym_gens(n, weights):
    """Generator images of the quantized p-th symmetric power, p =
    len(weights) - 1, on n strands: sigma_k is S^p_q(I + e_(k,k-1)) diag(w_r)
    S^p_q(I - e_(k,k+1)) diag(q^C(r,2)), with r the multiplicity of index k,
    w = weights, and each transvection only where its second index exists.
    The weights (-t)^r quantize the conjugated reduced Burau representation,
    and on 3 strands the weights lambda_(p-r) give the sharp q-Pascal form."""
    m = n - 1
    p = len(weights) - 1
    basis = sym_basis(m, p)
    gens = []
    for k in range(1, n):
        g = PolyMatrix.diagonal([weights[tup.count(k - 1)] for tup in basis])
        if k > 1:
            g = _transvection_q(m, k - 1, k - 2, 1, p) * g
        if k < n - 1:
            g = g * _transvection_q(m, k - 1, k, -1, p)
        gens.append(g * _slot_q(m, k - 1, p))
    return gens


def sym2_quantized(n):
    """Quantized symmetric square of the reduced Burau representation.

    Each generator image is the conjugated reduced Burau image factored as
    transvection * diagonal * transvection, with every factor's symmetric
    square quantized (Gaussian binomials on the transvections), times the
    diagonal q^C(r,2) on the multiplicity r of the active index: q on the
    doubled slot e^s_(k,k).  Needs n >= 3.
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError("the quantized symmetric square needs n >= 3")
    return Representation(n, _quantized_sym_gens(n, [ONE, -T, T ** 2]), "sym2q(n=%d)" % n)


def change_of_basis(n):
    """The pair (C, C^-1) aligning the quantized symmetric square with lk(n).

    Columns of C^-1 express w_(i,j) = sum of e^s_(k,r) over i <= k <= r <= j.
    Columns of C invert that summation by the mixed second difference

        e^s_(i,j) = w_(i,j) - w_(i+1,j) - w_(i,j-1) + w_(i+1,j-1),

    which telescopes the summation exactly.  A w whose first index exceeds
    its second is an empty sum and is dropped, so each column of C touches
    at most four basis vectors.
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError("the change of basis needs n >= 3")
    pairs = [(a + 1, b + 1) for a, b in sym_basis(n - 1, 2)]
    index = {pair: p for p, pair in enumerate(pairs)}
    c = PolyMatrix.zeros(len(pairs))
    e_inv = PolyMatrix.zeros(len(pairs))
    for col, (i, j) in enumerate(pairs):
        for row, (k, r) in enumerate(pairs):
            if i <= k and r <= j:
                e_inv.data[row][col] = ONE
        for k, r, sign in ((i, j, ONE), (i + 1, j, -ONE), (i, j - 1, -ONE), (i + 1, j - 1, ONE)):
            if k <= r:
                c.data[index[k, r]][col] = sign
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
    n = operator.index(n)
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
    n = operator.index(n)
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


def verify_ext_square():
    """Wedge square of the 4-strand reduced Burau against a parameter flip.

    For every generator, wedge^2 rho_4(sigma_k) equals -t S rho'_4(sigma_k) S
    where rho'_4 is the standard-form reduced Burau with t replaced by t^-1
    and S is the 3x3 antidiagonal, so that S X S is the sharp of X.  The
    same comparison with t -> -t^-1 must fail, and the sigma_1 spectra
    separate wedge^2 rho_4 from rho_4 except at t = -1.
    """
    conj = burau_reduced(4, "conjugated")
    std = burau_reduced(4, "standard")
    tinv = T ** -1
    report = CheckReport("ext-square(n=4)")
    wedges = [ext_power(g, 2) for g in conj.gen_images]
    for i, w in enumerate(wedges):
        rhs = std.gen_images[i].substitute(tinv, Q).sharp().scale(-T)
        report.add("wedge^2 rho_4(sigma_%d) = -t S rho_4(sigma_%d)|_(t -> t^-1) S"
                   % (i + 1, i + 1), w == rhs)
    rhs_bad = std.gen_images[0].substitute(-tinv, Q).sharp().scale(-T)
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


def qpascal_sigma1(n):
    """(n+1) x (n+1) upper triangular Pascal matrix of Gaussian binomials.

    Entry (k, m), 0-based, is C_(n-k)^(n-m)(q): the quantized n-th symmetric
    power of the 2 x 2 shear [[1, 1], [0, 1]].
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("qpascal_sigma1 needs n >= 1")
    return _transvection_q(2, 0, 1, 1, n)


def qpascal_sigma2(n):
    """The companion lower triangular generator D^-1 S^n_q([[1, 0], [-1, 1]]) D,
    D = qpascal_dmatrix(n): the quantized n-th symmetric power of the lower
    shear, conjugated.  It equals the sharp of the inverse of qpascal_sigma1
    taken at q^-1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("qpascal_sigma2 needs n >= 1")
    d_inv = PolyMatrix.diagonal([Q ** -math.comb(r, 2) for r in range(n + 1)])
    return d_inv * _transvection_q(2, 1, 0, -1, n) * qpascal_dmatrix(n)


def qpascal_dmatrix(n):
    """diag(q^(r(r-1)/2)) for r = 0..n."""
    return _slot_q(2, 1, operator.index(n))


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

    form="sharp" is the quantization rule on 3 strands with the diagonal
    weights lambda_(p-r), p = len(lambdas) - 1 (_quantized_sym_gens).
    form="standard" returns the #-conjugated pair, whose sigma_1 image is
    the sharp of the sharp-form sigma_2 image and vice versa.
    """
    entries = validate_lambda(lambdas)
    gens = _quantized_sym_gens(3, entries[::-1])
    if form == "standard":
        gens = [g.sharp() for g in reversed(gens)]
    elif form != "sharp":
        raise ValueError("unknown form %r" % (form,))
    return Representation(3, gens, "qpascal(dim=%d,%s)" % (len(entries), form))


def verify_humphry(max_power=7):
    """Symmetric powers of the integer shears against Pascal matrices.

    For each m the three constructions of the sigma_1 image must agree:
    S^m [[1,1],[0,1]], the Pascal matrix of binomials C(m-k, m-j), and exp
    of the module data's nilpotent raising matrix; likewise on the sigma_2
    side, against the sharp of the inverse Pascal matrix.  Raises ValueError
    for max_power < 1, which would check nothing.
    """
    max_power = operator.index(max_power)
    if max_power < 1:
        raise ValueError("verify_humphry needs max_power >= 1, got %d" % max_power)
    report = CheckReport("humphry(max_power=%d)" % max_power)
    upper = PolyMatrix([[1, 1], [0, 1]])
    lower = PolyMatrix([[1, 0], [-1, 1]])
    for m in range(1, max_power + 1):
        _e, xs, ys = sl2_symmetric_power_data(m)
        p1 = PolyMatrix([[math.comb(m - k, m - j) for j in range(m + 1)] for k in range(m + 1)])
        report.add("m=%d: S^m of the upper shear equals the Pascal matrix" % m,
                   sym_power(upper, m) == p1)
        report.add("m=%d: exp of the raising matrix equals the Pascal matrix" % m,
                   exp_nilpotent(xs[0]) == p1)
        p2 = p1.inverse().sharp()
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
    return [operator.index(v) for v in mat]


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
    strands = operator.index(strands)
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
    gens = []
    for k in range(1, m + 1):
        g = PolyMatrix.diagonal([(-T) ** w for w in diags[k - 1]])
        if k > 1:
            g = exp_nilpotent(y_images[k - 2]) * g
        if k < m:
            g = g * exp_nilpotent(-x_images[k - 1])
        gens.append(g)
    return Representation(strands, gens, "lie(strands=%d,dim=%d)" % (strands, dim))


def natural_lie_data(strands):
    """Weight and shear data of the natural module; reproduces the conjugated
    reduced Burau representation."""
    m = operator.index(strands) - 1
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
    m = operator.index(power)
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
