"""Dense matrices over the Laurent ring, with fraction-free exact linear algebra.

Everything here is exact.  A determinant first splits the matrix along the
strongly connected components of its nonzero pattern (the classes of mutual
reachability in its transitive closure, by Warshall's algorithm on row bit
sets), which a symmetric permutation makes block upper triangular, and
multiplies the determinants of the diagonal blocks.  A block larger than
1 x 1 goes through the Bareiss algorithm (interior divisions are exact by
the Sylvester identity), pivoting at each step on the nonzero entry with
the fewest terms.  A block of at least 3 rows first loses the variable t
when laurent.collapse_t accepts it: the ring map t -> 2^bits sends it into
Z[q^+-1], the same Bareiss elimination runs there on entries with big
integer coefficients, and laurent.expand_t reads the t-exponents back out
of the coefficients of its determinant.  laurent sizes bits by Hadamard's
bound, so the read-back is exact, and owns the gate that refuses a block.
Products pair only nonzero entries of both factors.
Characteristic polynomials use Berkowitz's division-free algorithm, inverses
apply Cayley-Hamilton to them with no elimination, and the multilinear
functors (symmetric and exterior powers) act on the unnormalized product
bases described below.  Both are
read off one expansion of a product of linear forms, in commuting or
anticommuting variables.

A product entry, a Bareiss update pivot*a - lead*b and a Berkowitz sum are
each one call of laurent.sum_of_products, which builds the entry in one
dict.  A product column that is a unit vector e_i hands back the left
factor's entries in column i themselves.  Braid word images do not go
through the product: reps.image_of_word replaces only the rows or columns
each letter changes, and moves a line that is a unit or monomial multiple
of another without multiplying.

Basis conventions, used consistently by the representation constructors:

* columns are images of basis vectors;
* the symmetric square basis e^s_(k,r) = e_k (x) e_r + e_r (x) e_k (k < r),
  e^s_(k,k) = e_k (x) e_k, pairs ordered colexicographically:
  (1,1),(1,2),(2,2),(1,3),(2,3),(3,3),...;
* the exterior power basis e_i ^ e_j (i < j) ordered lexicographically;
* the sharp involution reverses both indices: sharp(a)[k][m] = a[n-k][n-m].
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict
from operator import index

from .laurent import (LaurentPoly, ONE, ZERO, binary_power, collapse_t, exact_div, expand_t,
                      sum_of_products)


def _nonzero(entries):
    """(index, entry) for the nonzero entries, in order."""
    return [(j, x) for j, x in enumerate(entries) if x]


def _strong_components(rows):
    """The strongly connected components of the graph with an edge i -> j
    for each nonzero rows[i][j], each as its sorted vertex list, by mutual
    reachability: reach[i] is a bit set holding i and every vertex that i
    reaches, closed by Warshall's algorithm (S. Warshall, J. ACM 9, 1962),
    and i and j share a component when each reaches the other."""
    n = len(rows)
    reach = [sum(1 << j for j, x in enumerate(row) if x) | 1 << i
             for i, row in enumerate(rows)]
    for k in range(n):
        bit, row = 1 << k, reach[k]
        reach = [r | row if r & bit else r for r in reach]
    placed = set()
    components = []
    for i in range(n):
        if i not in placed:
            block = [j for j in range(i, n) if reach[i] >> j & 1 and reach[j] >> i & 1]
            placed.update(block)
            components.append(block)
    return components


def _bareiss_det(m):
    """Determinant of the square list of rows m, which it overwrites, by
    fraction-free Bareiss elimination with full pivoting.

    Step k pivots on the nonzero entry of the trailing block with the fewest
    terms (the first in row-major order on a tie), swapped to (k, k) by a
    row swap and a column swap, each flipping the sign.  Every later entry
    is a minor built on the pivots, and each pivot is the next step's exact
    divisor, so a sparse pivot keeps the intermediate entries small
    (Markowitz's rule, Management Sci. 3, 1957, read in the Laurent ring).
    Pivoting on P A Q permutes rows and columns that no earlier step has
    used, so the Sylvester identity behind the exact divisions holds as in
    the unpivoted algorithm (E. H. Bareiss, Math. Comp. 22, 1968).  Step 0
    divides by 1 and skips the division.  A trailing block with no nonzero
    entry gives 0: on a block of rank r that happens after r steps, every
    later entry being a minor of order above r.  det hands over only
    strongly connected blocks, which have no zero row or column.
    """
    n = len(m)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        best = pi = pj = None
        for i in range(k, n):
            row = m[i]
            for j in range(k, n):
                size = len(row[j])
                if size and (best is None or size < best):
                    best, pi, pj = size, i, j
        if best is None:
            return ZERO
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
            sign = -sign
        if pj != k:
            for row in m[k:]:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            neg_lead = -row[k]
            for j in range(k + 1, n):
                num = sum_of_products(((pivot, row[j]), (neg_lead, pivot_row[j])))
                if k:
                    num = exact_div(num, prev)
                    if num is None:
                        raise ArithmeticError("Bareiss interior division failed; "
                                              "this indicates corrupted input")
                row[j] = num
        prev = pivot
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


class PolyMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        if not data or not all(isinstance(r, (list, tuple)) for r in data):
            raise ValueError("PolyMatrix wants a nonempty list of rows")
        width = len(data[0])
        if width == 0 or any(len(r) != width for r in data):
            raise ValueError("ragged matrix data")
        self.rows = len(data)
        self.cols = width
        self.data = [[LaurentPoly.coerce(e) for e in r] for r in data]

    @classmethod
    def _wrap(cls, data):
        """A matrix on rows the arithmetic built: nonempty, rectangular, and
        already LaurentPoly entries, so they are neither checked nor coerced."""
        m = cls.__new__(cls)
        m.rows = len(data)
        m.cols = len(data[0])
        m.data = data
        return m

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, entries):
        entries = [LaurentPoly.coerce(e) for e in entries]
        n = len(entries)
        return cls([[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    # ------------------------------------------------------------------
    # access

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def is_square(self):
        return self.rows == self.cols

    def _require_square(self, what):
        if not self.is_square():
            raise ValueError("%s needs a square matrix, got %dx%d" % (what, self.rows, self.cols))

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.data))

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return PolyMatrix._wrap([[self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                                 for i in range(self.rows)])

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return PolyMatrix._wrap([[self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                                 for i in range(self.rows)])

    def __neg__(self):
        return PolyMatrix._wrap([[-e for e in r] for r in self.data])

    def scale(self, s):
        s = LaurentPoly.coerce(s)
        return PolyMatrix._wrap([[e * s for e in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product (%dx%d by %dx%d)"
                             % (self.rows, self.cols, other.rows, other.cols))
        # row by row: each nonzero a_ri pairs with the nonzero entries of
        # row i of the right factor, and an entry no pair reaches stays ZERO
        brows = [_nonzero(brow) for brow in other.data]
        out = []
        for arow in self.data:
            reached = defaultdict(list)
            for x, brow in zip(arow, brows):
                if x:
                    for j, y in brow:
                        reached[j].append((x, y))
            row = [ZERO] * other.cols
            for j, pairs in reached.items():
                row[j] = sum_of_products(pairs)
            out.append(row)
        return PolyMatrix._wrap(out)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        self._require_square("matrix power")
        n = index(n)
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, PolyMatrix.identity(self.rows))

    def substitute(self, t_image, q_image):
        """Entry-wise substitution; images must keep entries in the ring."""
        out = []
        for r in self.data:
            row = []
            for e in r:
                f = e.substitute(t_image, q_image)
                if not f.is_polynomial():
                    raise ValueError("substitution left the Laurent ring at entry %s" % (e,))
                row.append(f.num)
            out.append(row)
        return PolyMatrix(out)

    def direct_sum(self, other):
        out = PolyMatrix.zeros(self.rows + other.rows, self.cols + other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out.data[i][j] = self.data[i][j]
        for i in range(other.rows):
            for j in range(other.cols):
                out.data[self.rows + i][self.cols + j] = other.data[i][j]
        return out

    def conjugate_by_permutation(self, perm):
        """P A P^-1 for the permutation matrix sending e_i to e_perm[i]."""
        self._require_square("permutation conjugation")
        n = self.rows
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of 0..%d" % (n - 1,))
        out = PolyMatrix.zeros(n)
        for i in range(n):
            for j in range(n):
                out.data[perm[i]][perm[j]] = self.data[i][j]
        return out

    def sharp(self):
        """Conjugation by the antidiagonal: sharp(a)[k][m] = a[n-k][n-m]."""
        self._require_square("sharp")
        return self.conjugate_by_permutation(range(self.rows - 1, -1, -1))

    # ------------------------------------------------------------------
    # exact elimination

    def det(self):
        """Determinant, split along the strongly connected components of the
        matrix's nonzero pattern.

        The graph with an edge i -> j for each nonzero entry (i, j) is split
        into strongly connected components by mutual reachability
        (_strong_components: Warshall's closure on one bit set per row, at
        most d^2 unions of d-bit sets for a d x d matrix).  Listing the
        components in a topological order of the condensed graph is a
        symmetric permutation P A P^T, which is block upper triangular and
        has A's determinant, so det(A) is the product of the determinants of
        the diagonal blocks, with no sign to track (I. S. Duff and J. K.
        Reid, ACM TOMS 4, 1978).  The product commutes, so that order is
        never built: the blocks go smallest first, a 1 x 1 block is its own
        entry, a larger one goes through _bareiss_det, and the first block
        whose determinant is 0 gives 0.  An all-zero row or column is a
        1 x 1 block with a zero entry.  A block of 3 or more rows goes
        through laurent.collapse_t, _bareiss_det over Z[q^+-1] and
        laurent.expand_t when collapse_t accepts it, and through
        _bareiss_det over the Laurent ring otherwise; a 2 x 2 block has no
        division to save.
        """
        self._require_square("determinant")
        data = self.data
        out = None
        for block in sorted(_strong_components(data), key=len):
            if len(block) == 1:
                d = data[block[0]][block[0]]
            else:
                rows = [[data[i][j] for j in block] for i in block]
                collapsed = collapse_t(rows) if len(block) > 2 else None
                if collapsed is None:
                    d = _bareiss_det(rows)
                else:
                    images, bits, shift = collapsed
                    d = expand_t(_bareiss_det(images), bits, shift)
            if not d:
                return ZERO
            out = d if out is None else out * d
        return out

    def inverse(self):
        """Exact inverse by Cayley-Hamilton: if det(xI - A) = x^n + ... + c_1 x + c_0,
        then A^-1 = -(A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I) / c_0, evaluated by
        Horner in ring operations; c_0 = (-1)^n det(A) must be a unit +-t^a*q^b."""
        self._require_square("inverse")
        n = self.rows
        cp = char_poly(self)
        if cp[0].is_zero():
            raise ArithmeticError("matrix is singular over the Laurent ring")
        if not cp[0].is_unit():
            raise ArithmeticError("matrix is not invertible over the Laurent ring "
                                  "(determinant is %s up to sign, not a unit)" % (cp[0],))
        b = PolyMatrix.identity(n)
        for c in reversed(cp[1:n]):
            b = self * b
            for i in range(n):
                b.data[i][i] = b.data[i][i] + c
        return b.scale(-cp[0] ** -1)

    # ------------------------------------------------------------------
    # rendering

    def __str__(self):
        body = []
        for r in self.data:
            body.append("[" + ", ".join(str(e) for e in r) + "]")
        return "\n".join(body)

    def __repr__(self):
        return "PolyMatrix(%dx%d)" % (self.rows, self.cols)

    def to_latex(self):
        lines = [" & ".join(e.to_latex() for e in r) for r in self.data]
        return "\\begin{pmatrix}\n" + " \\\\\n".join(lines) + "\n\\end{pmatrix}"

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[e.to_json_terms() for e in r] for r in self.data],
        }


# ----------------------------------------------------------------------
# multilinear functors


def sym_basis(n, m):
    """Nondecreasing index tuples (0-based) in colex order."""
    combos = itertools.combinations_with_replacement(range(n), m)
    return sorted(combos, key=lambda tup: tuple(reversed(tup)))


def ext_basis(n, m):
    """Strictly increasing index tuples (0-based) in lex order."""
    return list(itertools.combinations(range(n), m))


def _multilinear_power(a, basis, alternating):
    """Entry (L, K) is the coefficient of x_K in prod_{l in L} (sum_j a[l][j] x_j),
    expanded one linear form at a time, for increasing index tuples L, K in basis.
    Alternating x_j anticommute: a repeated index gives 0, and inserting j into
    a key flips the sign once per key index greater than j."""
    rows = []
    for L in basis:
        terms = {(): ONE}
        for l in L:
            grown = {}
            for key, c in terms.items():
                for j, alj in enumerate(a.data[l]):
                    if alj.is_zero() or (alternating and j in key):
                        continue
                    pos = bisect.bisect_right(key, j)
                    v = -c * alj if alternating and (len(key) - pos) % 2 else c * alj
                    new = key[:pos] + (j,) + key[pos:]
                    grown[new] = grown[new] + v if new in grown else v
            terms = grown
        rows.append([terms.get(K, ZERO) for K in basis])
    return PolyMatrix(rows)


def sym_power(a, m):
    """m-th symmetric power on the unnormalized symmetrized basis.

    Basis vectors are sums over the distinct permutations of a multiset with
    no 1/m! normalization, so the entries live in the same ring as a.
    """
    a._require_square("symmetric power")
    if m < 0:
        raise ValueError("symmetric power needs m >= 0")
    return _multilinear_power(a, sym_basis(a.rows, m), alternating=False)


def ext_power(a, m):
    """m-th exterior power: entries are the m x m minors of a."""
    a._require_square("exterior power")
    if m < 0:
        raise ValueError("exterior power needs m >= 0")
    basis = ext_basis(a.rows, m)
    if not basis:
        raise ValueError("exterior power of degree %d of a %dx%d matrix is empty"
                         % (m, a.rows, a.cols))
    return _multilinear_power(a, basis, alternating=True)


def exp_nilpotent(a):
    """exp of a nilpotent matrix: I + a + a^2/2! + ... + a^(n-1)/(n-1)!.

    Each a^k/k! is the previous term times a, each nonzero entry divided
    exactly by the integer k; and a^n must vanish, checked once as the last
    term times a.  Otherwise this raises ArithmeticError.
    """
    a._require_square("exp_nilpotent")
    n = a.rows
    out = term = PolyMatrix.identity(n)
    for k in range(1, n):
        rows = [[exact_div(e, k) if e else e for e in r] for r in (term * a).data]
        if any(e is None for r in rows for e in r):
            raise ArithmeticError("a^%d is not divisible by %d!; "
                                  "exp does not stay in the ring" % (k, k))
        term = PolyMatrix._wrap(rows)
        out = out + term
    if any(not e.is_zero() for r in (term * a).data for e in r):
        raise ArithmeticError("matrix is not nilpotent: a^%d != 0" % (n,))
    return out


# ----------------------------------------------------------------------
# characteristic polynomials


def char_poly(a):
    """Coefficients [c_0, ..., c_n] of det(xI - a), lowest degree first.

    Berkowitz's division-free algorithm (S. J. Berkowitz, Inf. Process. Lett.
    18, 1984), using ring operations only.  The characteristic polynomial of
    the trailing principal block M grows by one row and column at a time:
    for the new diagonal entry a_kk, row R and column C, the new coefficient
    vector (highest degree first) is the lower triangular Toeplitz matrix
    with first column 1, -a_kk, -R C, -R M C, -R M^2 C, ... applied to the
    old one.  R and the rows of M are kept as their nonzero entries, so a
    product with C costs what their nonzero entries do.
    """
    a._require_square("char_poly")
    n = a.rows
    d = a.data
    poly = [ONE]
    for k in range(n - 1, -1, -1):
        block = [_nonzero(d[i][k + 1:]) for i in range(k + 1, n)]
        row = _nonzero(d[k][k + 1:])
        col = [d[i][k] for i in range(k + 1, n)]
        toeplitz = [ONE, -d[k][k]]
        for _ in block:
            toeplitz.append(-sum_of_products([(x, col[j]) for j, x in row]))
            col = [sum_of_products([(x, col[j]) for j, x in r]) for r in block]
        poly = [sum_of_products(list(zip(toeplitz[i::-1], poly))) for i in range(len(toeplitz))]
    return poly[::-1]


def char_poly_from_roots(roots):
    """Coefficients of prod (x - r) over the given ring elements, lowest
    degree first, in the list form char_poly returns."""
    poly = [ONE]
    for r in roots:
        r = LaurentPoly.coerce(r)
        poly = [lo - r * hi for lo, hi in zip([ZERO] + poly, poly)] + [ONE]
    return poly
