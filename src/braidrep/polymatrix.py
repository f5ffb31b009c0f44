"""Dense matrices over the Laurent ring, with fraction-free exact linear algebra.

Everything here is exact: determinants use the Bareiss algorithm (interior
divisions are exact by the Sylvester identity), characteristic polynomials
use Berkowitz's division-free algorithm, inverses apply Cayley-Hamilton to
them with no elimination, and the multilinear functors (tensor, symmetric
and exterior powers) act on the unnormalized product bases described below.

Basis conventions, used consistently by the representation constructors:

* columns are images of basis vectors;
* the symmetric square basis e^s_(k,r) = e_k (x) e_r + e_r (x) e_k (k < r),
  e^s_(k,k) = e_k (x) e_k, pairs ordered colexicographically:
  (1,1),(1,2),(2,2),(1,3),(2,3),(3,3),...;
* the exterior power basis e_i ^ e_j (i < j) ordered lexicographically;
* the sharp involution reverses both indices: sharp(a)[k][m] = a[n-k][n-m].
"""

from __future__ import annotations

import itertools

from .laurent import LaurentPoly, ONE, ZERO, exact_div


def _dot(xs, ys):
    """sum of xs[i] * ys[i] over the shorter length, skipping zero factors."""
    acc = ZERO
    for x, y in zip(xs, ys):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


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
        return PolyMatrix([[self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                           for i in range(self.rows)])

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return PolyMatrix([[self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                           for i in range(self.rows)])

    def __neg__(self):
        return PolyMatrix([[-e for e in r] for r in self.data])

    def scale(self, s):
        s = LaurentPoly.coerce(s)
        return PolyMatrix([[e * s for e in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product (%dx%d by %dx%d)"
                             % (self.rows, self.cols, other.rows, other.cols))
        cols = list(zip(*other.data))
        return PolyMatrix([[_dot(arow, col) for col in cols] for arow in self.data])

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        self._require_square("matrix power")
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        out = PolyMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def transpose(self):
        return PolyMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def map(self, fn):
        """Entry-wise transform."""
        return PolyMatrix([[fn(e) for e in r] for r in self.data])

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
        n = self.rows - 1
        return PolyMatrix([[self.data[n - i][n - j] for j in range(self.cols)]
                           for i in range(self.rows)])

    # ------------------------------------------------------------------
    # exact elimination

    def det(self):
        """Determinant by fraction-free Bareiss elimination."""
        self._require_square("determinant")
        n = self.rows
        if n == 0:
            return ONE
        m = [row[:] for row in self.data]
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
                    num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                    q = exact_div(num, prev)
                    if q is None:
                        raise ArithmeticError("Bareiss interior division failed; "
                                              "this indicates corrupted input")
                    m[i][j] = q
                m[i][k] = ZERO
            prev = m[k][k]
        d = m[n - 1][n - 1]
        return d if sign == 1 else -d

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

    @classmethod
    def from_json(cls, obj):
        m = cls([[LaurentPoly.from_json_terms(e) for e in r] for r in obj["entries"]])
        if m.rows != obj["rows"] or m.cols != obj["cols"]:
            raise ValueError("inconsistent matrix JSON dimensions")
        return m


# ----------------------------------------------------------------------
# multilinear functors


def tensor_product(a, b):
    """Kronecker product in row-major block order."""
    out = PolyMatrix.zeros(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.data[i][j]
            if aij.is_zero():
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    v = b.data[k][l]
                    if v.is_zero():
                        continue
                    out.data[i * b.rows + k][j * b.cols + l] = aij * v
    return out


def sym_basis(n, m):
    """Nondecreasing index tuples (0-based) in colex order."""
    combos = itertools.combinations_with_replacement(range(n), m)
    return sorted(combos, key=lambda tup: tuple(reversed(tup)))


def ext_basis(n, m):
    """Strictly increasing index tuples (0-based) in lex order."""
    return list(itertools.combinations(range(n), m))


def sym_power(a, m):
    """m-th symmetric power on the unnormalized symmetrized basis.

    Basis vectors are sums over the distinct permutations of a multiset with
    no 1/m! normalization, so the entries live in the same ring as a.
    """
    a._require_square("symmetric power")
    if m < 0:
        raise ValueError("symmetric power needs m >= 0")
    if m == 0:
        return PolyMatrix([[ONE]])
    basis = sym_basis(a.rows, m)
    dim = len(basis)
    out = PolyMatrix.zeros(dim, dim)
    for cj, K in enumerate(basis):
        for ci, L in enumerate(basis):
            acc = ZERO
            for word in set(itertools.permutations(K)):
                prod = ONE
                for li, wi in zip(L, word):
                    prod = prod * a.data[li][wi]
                    if prod.is_zero():
                        break
                acc = acc + prod
            out.data[ci][cj] = acc
    return out


def ext_power(a, m):
    """m-th exterior power: entries are the m x m minors of a."""
    a._require_square("exterior power")
    if m < 0:
        raise ValueError("exterior power needs m >= 0")
    if m == 0:
        return PolyMatrix([[ONE]])
    basis = ext_basis(a.rows, m)
    if not basis:
        raise ValueError("exterior power of degree %d of a %dx%d matrix is empty"
                         % (m, a.rows, a.cols))
    out = PolyMatrix.zeros(len(basis), len(basis))
    for cj, J in enumerate(basis):
        for ci, I in enumerate(basis):
            minor = PolyMatrix([[a.data[i][j] for j in J] for i in I])
            out.data[ci][cj] = minor.det()
    return out


def exp_nilpotent(a):
    """exp of a nilpotent matrix: I + a + a^2/2! + ...

    Every division by k! must be exact in the ring, and a^dim must vanish;
    otherwise this raises ArithmeticError.
    """
    a._require_square("exp_nilpotent")
    n = a.rows
    out = PolyMatrix.identity(n)
    term = a
    k = 1
    while k < n:
        out = out + term
        k += 1
        nxt = term * a
        divided = []
        for row in nxt.data:
            drow = []
            for e in row:
                q = exact_div(e, LaurentPoly.const(k))
                if q is None:
                    raise ArithmeticError("a^%d is not divisible by %d!; "
                                          "exp does not stay in the ring" % (k, k))
                drow.append(q)
            divided.append(drow)
        term = PolyMatrix(divided)
    if n > 1:
        # term is now a^n/n!; the series must have terminated
        if any(not e.is_zero() for r in term.data for e in r):
            raise ArithmeticError("matrix is not nilpotent: a^%d != 0" % (n,))
    elif not a.data[0][0].is_zero():
        raise ArithmeticError("matrix is not nilpotent: a^1 != 0")
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
    old one.
    """
    a._require_square("char_poly")
    n = a.rows
    d = a.data
    poly = [ONE]
    for k in range(n - 1, -1, -1):
        block = [d[i][k + 1:] for i in range(k + 1, n)]
        row = d[k][k + 1:]
        col = [d[i][k] for i in range(k + 1, n)]
        toeplitz = [ONE, -d[k][k]]
        for _ in block:
            toeplitz.append(-_dot(row, col))
            col = [_dot(r, col) for r in block]
        poly = [_dot(toeplitz[i::-1], poly) for i in range(len(toeplitz))]
    return poly[::-1]


def char_poly_from_roots(roots):
    """Coefficients of prod (x - r) over the given ring elements, lowest
    degree first, in the list form char_poly returns."""
    poly = [ONE]
    for r in roots:
        r = LaurentPoly.coerce(r)
        poly = [lo - r * hi for lo, hi in zip([ZERO] + poly, poly)] + [ONE]
    return poly


def generalized_char_poly(c, lambdas):
    """det(C + diag(lambda_1..lambda_m)) by Bareiss on the shifted matrix."""
    c._require_square("generalized_char_poly")
    m = c.rows
    lambdas = [LaurentPoly.coerce(v) for v in lambdas]
    if len(lambdas) != m:
        raise ValueError("need exactly %d diagonal entries" % (m,))
    return (c + PolyMatrix.diagonal(lambdas)).det()
