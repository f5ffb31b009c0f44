"""Independent second routes that the library's results are checked against.

The library computes each of these results one way; the functions here
compute the same results by a different construction.
"""

from braidrep.laurent import ONE, ZERO
from braidrep.polymatrix import PolyMatrix


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


