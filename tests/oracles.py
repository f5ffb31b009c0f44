"""Independent second routes that the library's results are checked against.

The library computes each of these results one way; the functions here
compute the same results by a different construction.
"""

import itertools
import re

from braidrep.laurent import ONE, Q, T, ZERO, LaurentPoly, exact_div, q_factorial
from braidrep.polymatrix import PolyMatrix, ext_basis, sym_basis
from braidrep.reps import qpascal_sigma1


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


def inverse_qpascal_sigma2(n):
    """The lower triangular q-Pascal generator as the sharp of the
    Cayley-Hamilton inverse of qpascal_sigma1(n) taken at q^-1."""
    return qpascal_sigma1(n).substitute(T, Q ** -1).inverse().sharp()


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
