"""Dense matrices over the Laurent ring, with fraction-free exact linear algebra.

Everything here is exact.  A determinant first splits the matrix along the
strongly connected components of its nonzero pattern (the classes of mutual
reachability in its transitive closure, by Warshall's algorithm on row bit
sets), which a symmetric permutation makes block upper triangular, and
multiplies the determinants of the diagonal blocks.  A block larger than
1 x 1 goes through the Bareiss algorithm (interior divisions are exact by
the Sylvester identity), pivoting at each step on the nonzero entry with
the fewest terms.  A block of at least 3 rows first loses variables where
laurent.collapse lets it: a narrow block loses both, under the ring map
t -> 2^bits, q -> 2^(bits width) into Z, runs the same Bareiss
elimination on ints and has its determinant's digits read back by
laurent.expand_packed; a wider one loses t alone, under t -> 2^bits into
Z[q^+-1], and laurent.expand_t reads the t-exponents back out of the
coefficients of its determinant.  laurent sizes bits by Hadamard's bound,
so the read-back is exact, and owns the gates that pick a block's route.
packed_det takes a pencil a - s b as its two images a and b and the sign
s, never building it for a block of 3 or more rows: it runs the same
split on the union of their patterns, builds a - s b only for 1 x 1 and
2 x 2 blocks, and takes a larger block only on the packed route, whose
gate laurent.pack_pencil reads from both images before packing a - s b
term by term.  It gives None when a block does not pack, for a caller
that has another way to its determinant (the Krammer pencil of
invariants.krammer_fraction).  integer_det takes a matrix of Python ints,
for closures built at an integer point of t.  The block split
(_split_det) and the pivoted elimination (_bareiss) are written once for
both rings: each ring passes in only its pivot size (terms, or bits) and
its row update.  No determinant writes its argument: _split_det hands
each block on as a copy.
Products pair only nonzero entries of both factors.  Inverses run
fraction-free Gauss-Jordan elimination on [A | I], the same exact
divisions as Bareiss, over the nonzero entries of each row only.
Characteristic polynomials use Berkowitz's division-free algorithm, and
the multilinear functors (symmetric and exterior powers) act on the
unnormalized product bases described below.  Both functors are read off
one expansion of a product of linear forms, in commuting or anticommuting
variables.

A product entry, a Bareiss or Gauss-Jordan update pivot*a - lead*b and a
Berkowitz sum are each one call of laurent.sum_of_products, which builds
the entry in one dict.  A product column that is a unit vector e_i hands
back the left factor's entries in column i themselves.  Braid word images
do not go through the product: reps.image_of_word replaces only the rows
or columns each letter changes, and moves a line that is a unit or
monomial multiple of another without multiplying.

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

from .laurent import (LaurentPoly, ONE, ZERO, binary_power, collapse, exact_div, expand_packed,
                      expand_t, pack_pencil, sum_of_products)


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


def _split_det(block_det, m, other=None):
    """Determinant of a square list of rows, which it never writes, as the
    product of block_det over the strongly connected blocks of its nonzero
    pattern, smallest first, each block a copy; the first block whose
    determinant is zero, or None (packed_det's refusal), gives that value.
    With a second image other, the pattern is the union of both patterns,
    block_det gets the block of each image, and the determinant is that of
    the pencil packed_det takes: an entry that the pencil cancels to 0 only
    joins blocks, and the determinant of a block triangular matrix is the
    product of its diagonal blocks' on any coarser split too.  A pattern
    with no zero entry is one block and skips _strong_components.
    PolyMatrix.det, packed_det and integer_det differ only in block_det."""
    images = (m,) if other is None else (m, other)
    pattern = m if other is None else [[x or y for x, y in zip(*rows)] for rows in zip(m, other)]
    if all(map(all, pattern)):
        return block_det(*[[row[:] for row in a] for a in images])
    out = None
    for block in sorted(_strong_components(pattern), key=len):
        d = block_det(*[[[a[i][j] for j in block] for i in block] for a in images])
        if not d:
            return d
        out = d if out is None else out * d
    return out


def _bareiss(m, size, update):
    """Determinant of the square list of rows m, which it overwrites, by
    fraction-free Bareiss elimination with full pivoting, over any ring
    whose entries size and update read.

    Step k pivots on the nonzero entry of the trailing block of least
    size(entry) (the first in row-major order on a tie), swapped to (k, k)
    by a row swap and a column swap, each flipping the sign.  Every later
    entry is a minor built on the pivots, and each pivot is the next step's
    exact divisor, so a small pivot keeps the intermediate entries small
    (Markowitz's rule, Management Sci. 3, 1957, read on entry sizes).
    Pivoting on P A Q permutes rows and columns that no earlier step has
    used, so the Sylvester identity behind the exact divisions holds as in
    the unpivoted algorithm (E. H. Bareiss, Math. Comp. 22, 1968).  Each
    row below the pivot is updated by one call update(row, pivot_row, k,
    prev), which writes (pivot x - lead y) / prev over each entry x of the
    row after column k, with pivot = pivot_row[k], lead = row[k], y the
    pivot row's entry in x's column and prev the previous pivot, or None at
    step 0, whose divisor is 1.  A trailing block with no nonzero entry
    gives its corner m[k][k], which is the ring's zero: on a block of rank
    r that happens after r steps, every later entry being a minor of order
    above r.
    """
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        best = pi = pj = None
        for i in range(k, n):
            row = m[i]
            for j in range(k, n):
                s = size(row[j])
                if s and (best is None or s < best):
                    best, pi, pj = s, i, j
        if best is None:
            return m[k][k]
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
            sign = -sign
        if pj != k:
            for row in m[k:]:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        pivot_row = m[k]
        for row in m[k + 1:]:
            update(row, pivot_row, k, prev)
        prev = pivot_row[k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def _bareiss_det(m):
    """_bareiss over the Laurent ring: the pivot is the entry with the
    fewest terms, and each new entry is one sum_of_products, divided by
    the previous pivot from step 1 on.  det hands over only strongly
    connected blocks, which have no zero row or column."""
    return _bareiss(m, len, _laurent_update)


def _laurent_update(row, pivot_row, k, prev):
    """The row update of _bareiss_det: one sum_of_products per entry, and
    an exact division by prev from step 1 on (none at step 0)."""
    pivot = pivot_row[k]
    neg_lead = -row[k]
    for j in range(k + 1, len(row)):
        num = sum_of_products(((pivot, row[j]), (neg_lead, pivot_row[j])))
        row[j] = num if prev is None else _interior_div(num, prev)


def _laurent_block_det(rows):
    """The determinant of one strongly connected block for PolyMatrix.det:
    a 1 x 1 block is its own entry; a block of 3 or more rows that
    laurent.collapse packs into ints goes through _integer_bareiss_det and
    laurent.expand_packed, one it collapses to Z[q^+-1] through
    _bareiss_det and laurent.expand_t; any other block through
    _bareiss_det over the Laurent ring (a 2 x 2 block has no division to
    save)."""
    if len(rows) == 1:
        return rows[0][0]
    collapsed = collapse(rows) if len(rows) > 2 else None
    if collapsed is None:
        return _bareiss_det(rows)
    images, bits, width, shift = collapsed
    if width is None:
        return expand_t(_bareiss_det(images), bits, shift)
    return expand_packed(_integer_bareiss_det(images), bits, width, shift)


def packed_det(a, b, s):
    """det(a - s b), s = +-1, for square lists of rows a and b of
    LaurentPoly entries, which it never writes, when every strongly
    connected block of 3 or more rows packs into ints, else None.  The
    block split of PolyMatrix.det (_split_det) on the union of a's and b's
    patterns; a 1 x 1 or 2 x 2 block is a - s b built and taken as
    _laurent_block_det takes it, and a larger block goes on
    laurent.collapse's packing route alone, through laurent.pack_pencil,
    which reads the gate's bounds from a and b and packs a - s b without
    building it.  A block the gate refuses gives None, and so does the
    whole determinant, unless a smaller block, taken first, was zero and
    gave 0."""
    return _split_det(lambda x, y: _pencil_block_det(x, y, s), a, b)


def _pencil_block_det(a, b, s):
    """The block function of packed_det: _laurent_block_det of a - s b for
    a block of at most 2 rows, else the packed determinant or None."""
    if len(a) < 3:
        return _laurent_block_det([[(x - y if s > 0 else x + y) if y else x for x, y in zip(*rows)]
                                   for rows in zip(a, b)])
    packed = pack_pencil(a, b, s)
    if packed is None:
        return None
    images, bits, width, shift = packed
    return expand_packed(_integer_bareiss_det(images), bits, width, shift)


def _eliminated(pairs, prev):
    """An entry of fraction-free elimination: the sum of products of pairs
    divided by the previous pivot prev, with no division by 1."""
    num = sum_of_products(pairs)
    return num if prev.is_one() or not num else _interior_div(num, prev)


def _interior_div(num, prev):
    """num / prev for a division of fraction-free elimination, exact by the
    Sylvester identity."""
    q = exact_div(num, prev)
    if q is None:
        raise ArithmeticError("Bareiss interior division failed; this indicates corrupted input")
    return q


def integer_det(m):
    """Determinant of a square list of rows of ints, which it never writes:
    the block split of PolyMatrix.det (_split_det), each block by _bareiss
    on ints, which pivots on the entry with the fewest bits and divides by
    the previous pivot with //, exact because every interior division is."""
    return _split_det(_integer_bareiss_det, m)


def _integer_bareiss_det(m):
    """_bareiss over the integers, for integer_det and packed blocks: the
    pivot is the entry with the fewest bits."""
    return _bareiss(m, int.bit_length, _integer_update)


def _integer_update(row, pivot_row, k, prev):
    """The row update of integer_det: floor division, which is exact, by
    prev, or by 1 at step 0."""
    pivot, lead, prev = pivot_row[k], row[k], prev or 1
    for j in range(k + 1, len(row)):
        row[j] = (pivot * row[j] - lead * pivot_row[j]) // prev


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
        never built: _split_det, the loop integer_det shares, takes the
        blocks smallest first and stops at the first block whose
        determinant is 0.  An all-zero row or column is a 1 x 1 block with
        a zero entry.  Each block goes through _laurent_block_det: a 1 x 1
        block is its own entry, and a larger one goes through the pivoted
        Bareiss elimination _bareiss, over the integers or Z[q^+-1] when
        laurent.collapse takes both variables or t out of a block of 3 or
        more rows, and over the Laurent ring otherwise.
        """
        self._require_square("determinant")
        return _split_det(_laurent_block_det, self.data)

    def inverse(self):
        """Exact inverse by fraction-free Gauss-Jordan elimination on [A | I].

        Rows are kept as dicts of their nonzero entries.  Step k pivots on
        the nonzero entry of column k with the fewest terms among the rows
        not yet pivoted (none: A is singular), and every other row becomes
        (pivot * row_i - a_ik * pivot_row) / prev, prev the pivot before it,
        each entry one sum_of_products over the nonzero pairs and one exact
        division.  Every entry is then a minor of [A | I], so the division
        is exact (E. H. Bareiss, Math. Comp. 22, 1968); a row with no entry
        in column k only scales, and not at all while pivot = prev.  After
        the last step the left block is p I with p = +-det(A), the last
        pivot, and the right block is p A^-1, so A^-1 is the right block
        divided by p, which must be a unit +-t^a*q^b.
        """
        self._require_square("inverse")
        n = self.rows
        rows = [{j: x for j, x in enumerate(row) if x} for row in self.data]
        for i, row in enumerate(rows):
            row[n + i] = ONE
        free = list(range(n))
        order = []
        prev = ONE
        for k in range(n):
            best = None
            for i in free:
                x = rows[i].get(k)
                if x is not None and (best is None or len(x) < len(rows[best][k])):
                    best = i
            if best is None:
                raise ArithmeticError("matrix is singular over the Laurent ring")
            free.remove(best)
            order.append(best)
            pivot_row = rows[best]
            pivot = pivot_row[k]
            scales = pivot != prev
            for i, row in enumerate(rows):
                if i == best:
                    continue
                lead = row.pop(k, None)
                if lead is None:
                    if scales:
                        rows[i] = {j: _eliminated(((pivot, x),), prev) for j, x in row.items()}
                    continue
                pairs = {j: [(pivot, x)] for j, x in row.items()}
                neg_lead = -lead
                for j, y in pivot_row.items():
                    if j != k:
                        pairs.setdefault(j, []).append((neg_lead, y))
                new = {}
                for j, p in pairs.items():
                    x = _eliminated(p, prev)
                    if x:
                        new[j] = x
                rows[i] = new
            prev = pivot
        if not prev.is_unit():
            # prev = det(P A) for the permutation P putting the pivot rows in
            # order; the message shows (-1)^n det(A), as char_poly's c_0
            swaps = sum(j < i for k, i in enumerate(order) for j in order[k + 1:])
            shown = prev if (n + swaps) % 2 == 0 else -prev
            raise ArithmeticError("matrix is not invertible over the Laurent ring "
                                  "(determinant is %s up to sign, not a unit)" % (shown,))
        unit = prev ** -1
        out = []
        for i in order:
            row = [ZERO] * n
            for j, x in rows[i].items():
                if j >= n:
                    row[j - n] = x * unit
            out.append(row)
        return PolyMatrix._wrap(out)

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
