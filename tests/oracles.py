"""Independent second routes that the library's results are checked against.

The library computes each of these results one way; the functions here
compute the same results by a different construction.
"""

import itertools
import re
from fractions import Fraction

from braidrep.braid import BraidWord, CheckReport
from braidrep.laurent import (ONE, Q, T, ZERO, LaurentPoly, PolyFraction, exact_div,
                              q_factorial)
from braidrep.polymatrix import PolyMatrix, _bareiss_det, char_poly, ext_basis, sym_basis
from braidrep.reps import (Representation, _slot_q, _transvection_q, image_of_word, lk,
                           qpascal_sigma1, validate_lambda)


def convolve(pairs):
    """Sum of x * y over the (x, y) pairs: each product by the schoolbook
    convolution into a polynomial of its own, deleting a coefficient that
    sums to 0, then added to the total one product at a time."""
    acc = ZERO
    for x, y in pairs:
        data = {}
        for (a1, b1), k1 in x._terms.items():
            for (a2, b2), k2 in y._terms.items():
                m = (a1 + a2, b1 + b2)
                c0 = data.get(m, 0) + k1 * k2
                if c0:
                    data[m] = c0
                elif m in data:
                    del data[m]
        acc = acc + LaurentPoly(data)
    return acc


def sign_twisted_krammer_fraction(word):
    """The Krammer fraction from lk tensored with the sign character built as
    a representation of its own, every generator image of lk negated:
    det(rho(word) - I) / det(rho(sigma_1 ... sigma_(n-1)) - I)."""
    n = word.strands
    rep = Representation(n, [-g for g in lk(n, "new").gen_images], "lk*sign")

    def closure_det(w):
        return (image_of_word(rep, w) - PolyMatrix.identity(rep.dim)).det()

    return PolyFraction(closure_det(word), closure_det(BraidWord(n, list(range(1, n)))))


def product_image_of_word(rep, word):
    """Image of a braid word as the product of whole generator images taken
    left to right, starting from a row copy of the first letter's image."""
    if isinstance(word, str):
        word = BraidWord.parse(word, rep.strands)
    letters = word.letters
    if not letters:
        return PolyMatrix.identity(rep.dim)
    out = PolyMatrix(rep.sigma(letters[0]).data)
    for x in letters[1:]:
        out = out * rep.sigma(x)
    return out


def scanned_free_reduce(letters, cyclic=False):
    """The letters of a braid word with inverse pairs cancelled by search:
    while some letter has an inverse letter before it with no letter of
    the same or a neighbouring index between them, the first such pair is
    deleted.  With cyclic set, while the word has a letter with no letter
    of the same or a neighbouring index before it and its inverse with no
    such letter after it, that pair is deleted too, and the search starts
    over.  Quadratic time or worse; each deletion keeps the braid, or its
    conjugacy class when cyclic."""

    def blocks(x, y):
        return abs(abs(x) - abs(y)) <= 1

    w = list(letters)
    while True:
        pair = next(((p, q) for q in range(len(w)) for p in range(q - 1, -1, -1)
                     if w[p] == -w[q] and not any(blocks(w[k], w[q]) for k in range(p + 1, q))),
                    None)
        if pair is None and cyclic:
            pair = next(((p, q) for p in range(len(w)) for q in range(len(w) - 1, p, -1)
                         if w[p] == -w[q] and not any(blocks(w[k], w[p]) for k in range(p))
                         and not any(blocks(w[k], w[q]) for k in range(q + 1, len(w)))),
                        None)
        if pair is None:
            return w
        del w[pair[1]], w[pair[0]]


def unsplit_det(a):
    """Determinant by the library's pivoted Bareiss on the whole matrix, not
    split into the strongly connected blocks of its nonzero pattern."""
    return _bareiss_det([row[:] for row in a.data])


def tarjan_components(rows):
    """The strongly connected components of the graph with an edge i -> j
    for each nonzero rows[i][j], each as its sorted vertex list, by Tarjan's
    depth-first search (R. E. Tarjan, SIAM J. Comput. 1, 1972) with an
    explicit stack in place of recursion, in reverse topological order."""
    n = len(rows)
    succ = [[j for j, x in enumerate(row) if x] for row in rows]
    order = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    count = 0
    for root in range(n):
        if order[root] is not None:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if order[w] is None:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(sorted(component))
    return components


def transpose(a):
    return PolyMatrix([list(col) for col in zip(*a.data)])


def poly_from_json(items):
    """The polynomial that LaurentPoly.to_json_terms wrote, built through the
    validating LaurentPoly constructor."""
    return LaurentPoly(((d["et"], d["eq"]), d["c"]) for d in items)


def matrix_from_json(obj):
    """The matrix that PolyMatrix.to_json wrote, checked against its stated
    dimensions."""
    m = PolyMatrix([[poly_from_json(e) for e in r] for r in obj["entries"]])
    if m.rows != obj["rows"] or m.cols != obj["cols"]:
        raise ValueError("inconsistent matrix JSON dimensions")
    return m


def tensor_product(a, b):
    """Kronecker product in row-major block order."""
    return PolyMatrix([[x * y for x in arow for y in brow]
                       for arow in a.data for brow in b.data])


def generalized_char_poly(c, lambdas):
    """det(C + diag(lambda_1..lambda_m)) by the determinant of the shifted
    matrix."""
    c._require_square("generalized_char_poly")
    lambdas = [LaurentPoly.coerce(v) for v in lambdas]
    if len(lambdas) != c.rows:
        raise ValueError("need exactly %d diagonal entries" % (c.rows,))
    return (c + PolyMatrix.diagonal(lambdas)).det()


def bigelow_to_new_bridge(n):
    """Check that the two parameter conventions of lk agree: substituting
    t -> -q, q -> t into every "bigelow" generator image must reproduce the
    "new" image exactly, generator by generator."""
    rep_new = lk(n, "new")
    report = CheckReport("lk-notation-bridge(n=%d)" % n)
    for i, g in enumerate(lk(n, "bigelow").gen_images):
        report.add("sigma_%d: bigelow|t->-q,q->t equals new" % (i + 1),
                   g.substitute(-Q, T) == rep_new.gen_images[i])
    return report


def table_burau_reduced(n, form):
    """Generator images of reduced Burau on n strands written entry by entry:
    sigma_i differs from the identity only in column i (standard form) or in
    row i (conjugated form)."""
    if n == 2:
        return [PolyMatrix([[-T]])]
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
    return gens


def cofactor_char_poly(c, lambdas):
    """det(C + diag(lambda_1..lambda_m)) by the multilinear expansion: the sum
    over subsets S of the product of the lambdas in S times the principal
    minor of C on the complement of S."""
    m = c.rows
    total = ZERO
    for bits in range(1 << m):
        keep = [i for i in range(m) if not (bits >> i) & 1]
        coeff = ONE
        for i in range(m):
            if (bits >> i) & 1:
                coeff = coeff * lambdas[i]
        if keep:
            minor = PolyMatrix([[c[i, j] for j in keep] for i in keep]).det()
        else:
            minor = ONE
        total = total + coeff * minor
    return total


def permutation_sym_power(a, m):
    """m-th symmetric power on sym_basis: entry (L, K) is the sum, over the
    distinct orderings w of the multiset K, of prod_i a[L_i][w_i]."""
    basis = sym_basis(a.rows, m)
    out = PolyMatrix.zeros(len(basis))
    for cj, K in enumerate(basis):
        for ci, L in enumerate(basis):
            acc = ZERO
            for word in set(itertools.permutations(K)):
                prod = ONE
                for li, wi in zip(L, word):
                    prod = prod * a[li, wi]
                acc = acc + prod
            out.data[ci][cj] = acc
    return out


def minor_ext_power(a, m):
    """m-th exterior power on ext_basis (m >= 1): entry (I, J) is the Bareiss
    determinant of the m x m minor of a on rows I and columns J."""
    basis = ext_basis(a.rows, m)
    out = PolyMatrix.zeros(len(basis))
    for cj, J in enumerate(basis):
        for ci, I in enumerate(basis):
            out.data[ci][cj] = PolyMatrix([[a[i, j] for j in J] for i in I]).det()
    return out


def factorial_bracket_binomial(n, k):
    """Balanced Gaussian binomial [n choose k]_q as the quotient of balanced
    q-factorials [n]! / ([k]! [n-k]!), by two exact divisions (None if either
    is not exact)."""
    out = exact_div(q_factorial(n, "bracket"), q_factorial(k, "bracket"))
    return None if out is None else exact_div(out, q_factorial(n - k, "bracket"))


def change_of_basis_blocks(n):
    """Closed block form of (C, C^-1), grouping basis pairs by second index.

    Group r holds the pairs (1,r)..(r,r).  In C^-1 the block in row-group s,
    column-group j (s <= j) is the s x s all-ones lower triangle padded by
    zero columns.  C is block tridiagonal: the diagonal block of group k is
    I - e_k (e_k the subdiagonal shift), the superdiagonal block in row-group
    k, column-group k+1 is -(I - e_k) padded by one zero column, and every
    other block vanishes.
    """
    n = int(n)
    if n < 3:
        raise ValueError("the change of basis needs n >= 3")
    m = n - 1
    dim = m * (m + 1) // 2
    offset = [0] * (m + 1)
    for r in range(1, m + 1):
        offset[r] = offset[r - 1] + (r - 1)

    e_inv = PolyMatrix.zeros(dim)
    c = PolyMatrix.zeros(dim)
    for s in range(1, m + 1):
        for j in range(s, m + 1):
            for a in range(s):
                for i in range(j):
                    if i <= a:
                        e_inv.data[offset[s] + a][offset[j] + i] = ONE
    for k in range(1, m + 1):
        for a in range(k):
            c.data[offset[k] + a][offset[k] + a] = ONE
            if a + 1 < k:
                c.data[offset[k] + a + 1][offset[k] + a] = -ONE
        if k < m:
            for a in range(k):
                c.data[offset[k] + a][offset[k + 1] + a] = -ONE
                if a + 1 < k:
                    c.data[offset[k] + a + 1][offset[k + 1] + a] = ONE
    return c, e_inv


def longdiv_exact_div(a, b):
    """Exact quotient a/b, or None, by long division that copies the remainder
    and rescans it for its leading term at every step."""
    if b.is_zero():
        raise ZeroDivisionError("exact_div by zero polynomial")
    if a.is_zero():
        return ZERO
    sa = a.min_exponents()
    sb = b.min_exponents()
    A = a.times_term(1, -sa[0], -sa[1])
    B = b.times_term(1, -sb[0], -sb[1])
    bm, bc = B.leading()
    quo = {}
    R = A
    while not R.is_zero():
        rm, rc = R.leading()
        d = (rm[0] - bm[0], rm[1] - bm[1])
        if d[0] < 0 or d[1] < 0 or rc % bc:
            return None
        k = rc // bc
        quo[d] = k
        R = R - B.times_term(k, *d)
    return LaurentPoly(quo).times_term(1, sa[0] - sb[0], sa[1] - sb[1])


def termwise_substitute(p, t_image, q_image):
    """p with fractions (or polys) put in for t and q, summed term by term in
    fraction arithmetic: every power, product and sum is a canonical
    PolyFraction."""
    t_image = PolyFraction.coerce(t_image)
    q_image = PolyFraction.coerce(q_image)
    out = PolyFraction(ZERO)
    for (a, b), c in p.sorted_terms():
        out = out + (t_image ** a) * (q_image ** b) * c
    return out


def diagonal_bareiss_det(a):
    """Determinant by Bareiss elimination that pivots on the diagonal entry,
    swapping in the first lower row with a nonzero entry in the pivot column
    only when that entry is zero, and divides by 1 at the first step."""
    n = a.rows
    m = [row[:] for row in a.data]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return ZERO
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q = exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
                if q is None:
                    raise ArithmeticError("Bareiss interior division failed")
                m[i][j] = q
            m[i][k] = ZERO
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def two_product_qpascal(lambdas, form):
    """Generator images of the q-Pascal representation as two hand-written
    products with lambda = diag(lambdas): sigma_1 = S^p_q([[1, 1], [0, 1]])
    diag(q^C(r,2)) lambda on index 0, sigma_2 = sharp(lambda)
    S^p_q([[1, 0], [-1, 1]]) diag(q^C(r,2)) on index 1.  The sharp form is
    the pair of their sharps, swapped."""
    entries = validate_lambda(lambdas)
    p = len(entries) - 1
    lam = PolyMatrix.diagonal(entries)
    s1 = _transvection_q(2, 0, 1, 1, p) * _slot_q(2, 0, p) * lam
    s2 = lam.sharp() * _transvection_q(2, 1, 0, -1, p) * _slot_q(2, 1, p)
    return [s1, s2] if form == "standard" else [s2.sharp(), s1.sharp()]


def cayley_hamilton_inverse(a):
    """Exact inverse by Cayley-Hamilton: if det(xI - A) = x^n + ... + c_1 x + c_0,
    then A^-1 = -(A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I) / c_0, evaluated by
    Horner in ring operations; c_0 = (-1)^n det(A) must be a unit +-t^a*q^b.
    The errors are PolyMatrix.inverse's."""
    n = a.rows
    cp = char_poly(a)
    if cp[0].is_zero():
        raise ArithmeticError("matrix is singular over the Laurent ring")
    if not cp[0].is_unit():
        raise ArithmeticError("matrix is not invertible over the Laurent ring "
                              "(determinant is %s up to sign, not a unit)" % (cp[0],))
    b = PolyMatrix.identity(n)
    for c in reversed(cp[1:n]):
        b = a * b
        for i in range(n):
            b.data[i][i] = b.data[i][i] + c
    return b.scale(-cp[0] ** -1)


def inverse_qpascal_sigma2(n):
    """The lower triangular q-Pascal generator as the sharp of the
    Cayley-Hamilton inverse of qpascal_sigma1(n) taken at q^-1."""
    return cayley_hamilton_inverse(qpascal_sigma1(n).substitute(T, Q ** -1)).sharp()


_TOKEN = re.compile(r"(?:(?P<int>\d+)|(?P<var>[tq])(?:\^(?P<exp>-?\d+))?|(?P<op>[+*-]))")


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("unexpected character %r at position %d in %r" % (text[pos], pos, text))
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), pos))
        elif m.group("var") is not None:
            k = int(m.group("exp")) if m.group("exp") is not None else 1
            tokens.append(("var", (m.group("var"), k), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    return tokens


def token_parse_poly(text):
    """The polynomial text grammar read by a tokenizer and a state machine:
    terms are [-]c*t^a*q^b separated by + or -, the coefficient, if present,
    first in its term."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text %r" % (text,))
    terms = {}
    i = 0
    first = True
    while i < len(tokens):
        kind, val, pos = tokens[i]
        sign = 1
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        elif not first:
            raise ValueError("missing + or - before position %d in %r" % (pos, text))
        coeff = None
        exps = {}
        expect_factor = True
        while i < len(tokens):
            kind, val, pos = tokens[i]
            if expect_factor:
                if kind == "int":
                    if coeff is not None or exps:
                        raise ValueError("coefficient must lead its term"
                                         " (position %d in %r)" % (pos, text))
                    coeff = val
                elif kind == "var":
                    sym, k = val
                    if sym in exps:
                        raise ValueError("duplicate %s factor at position %d in %r" % (sym, pos, text))
                    exps[sym] = k
                else:
                    raise ValueError("expected a coefficient or variable at position %d in %r"
                                     % (pos, text))
                expect_factor = False
                i += 1
            else:
                if kind == "op" and val == "*":
                    expect_factor = True
                    i += 1
                elif kind == "op":
                    break
                else:
                    raise ValueError("missing * before position %d in %r" % (pos, text))
        if expect_factor:
            raise ValueError("incomplete term at end of %r" % (text,))
        c = sign * (1 if coeff is None else coeff)
        mono = (exps.get("t", 0), exps.get("q", 0))
        c0 = terms.get(mono, 0) + c
        if c0:
            terms[mono] = c0
        elif mono in terms:
            del terms[mono]
        first = False
    return LaurentPoly(terms)


def digitwise_expand_t(p, bits, shift):
    """laurent.expand_t one digit at a time: each step takes the balanced
    digit ((c + half) & mask) - half off the bottom of the coefficient and
    shifts the rest down, a pass over the whole coefficient per digit."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    terms = {}
    for (_, eq), c in p._terms.items():
        et = shift
        while c:
            digit = ((c + half) & mask) - half
            if digit:
                terms[(et, eq)] = digit
                c -= digit
            c >>= bits
            et += 1
    return LaurentPoly(terms)


def normalized_laurent(p):
    """p times the unit +-t^a that makes its least t-exponent 0 and its
    coefficient there positive, for p free of q; 0 stays 0."""
    if p.is_zero():
        return ZERO
    lo = p.min_exponents()[0]
    return p.times_term(1 if p.coeff(lo) > 0 else -1, -lo)


def fraction_det(rows):
    """Determinant of a square list of rows of ints by Gaussian elimination
    over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            for j in range(k, n):
                row[j] -= f * m[k][j]
    assert det.denominator == 1
    return int(det)
