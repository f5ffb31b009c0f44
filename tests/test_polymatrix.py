import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.laurent import (COLLAPSE_BITS, ONE, PACKED_ROW_BITS, Q, T, ZERO, LaurentPoly,
                              PolyFraction, collapse, pack_pencil, parse_poly)
from braidrep.polymatrix import (PolyMatrix, char_poly, char_poly_from_roots,
                                 exp_nilpotent, ext_basis, ext_power, integer_det, packed_det,
                                 sym_basis, sym_power)
from braidrep import reps
from braidrep.reps import lk
from braidrep import invariants as inv
from braidrep import laurent, polymatrix
from braidrep.braid import BraidWord
from oracles import (cayley_hamilton_inverse, cofactor_char_poly, diagonal_bareiss_det,
                     fraction_det, generalized_char_poly, matrix_from_json, minor_ext_power,
                     permutation_sym_power, tarjan_components, tensor_product, transpose,
                     unsplit_det)


def m22(a, b, c, d):
    return PolyMatrix([[LaurentPoly.coerce(a), LaurentPoly.coerce(b)],
                       [LaurentPoly.coerce(c), LaurentPoly.coerce(d)]])


def random_int_matrix(rng, n, lo=-4, hi=4):
    return PolyMatrix([[LaurentPoly.const(rng.randint(lo, hi)) for _ in range(n)]
                       for _ in range(n)])


def random_poly_matrix(rng, n, lo=0):
    def entry():
        p = LaurentPoly()
        for _ in range(rng.randint(0, 2)):
            p = p + LaurentPoly.monomial(rng.randint(-3, 3),
                                         rng.randint(lo, 1), rng.randint(lo, 1))
        return p
    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


def test_constructors_and_indexing():
    i3 = PolyMatrix.identity(3)
    assert i3[0, 0] == ONE and i3[0, 1] == ZERO
    z = PolyMatrix.zeros(2, 3)
    assert z.rows == 2 and z.cols == 3
    d = PolyMatrix.diagonal([T, Q])
    assert d[0, 0] == T and d[1, 1] == Q and d[1, 0] == ZERO


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        PolyMatrix([[ONE, ZERO], [ONE]])


def test_arithmetic():
    a = m22(1, 2, 3, 4)
    b = m22(0, 1, 1, 0)
    assert a + b - b == a
    assert a * PolyMatrix.identity(2) == a
    assert (a * b)[0, 0] == LaurentPoly.const(2)
    assert a.scale(T)[1, 1] == 4 * T
    assert (-a) + a == PolyMatrix.zeros(2, 2)


def test_matrix_vs_scalar_multiplication():
    a = m22(1, 0, 0, 2)
    assert a * T == a.scale(T)
    assert T * a == a.scale(T)


def test_power_and_inverse():
    a = m22(T, ONE, ZERO, ONE)
    assert a ** 0 == PolyMatrix.identity(2)
    assert a ** 2 == a * a
    b = m22(-T, 0, -1, 1)
    assert b * b ** -1 == PolyMatrix.identity(2)
    assert b ** -2 == (b ** -1) ** 2


def test_powers_are_repeated_products():
    # one repeated-squaring loop serves polynomials, fractions and matrices;
    # a negative power is the power of the inverse
    p = T - 2 * Q + 3
    f = PolyFraction(T - 2 * Q, ONE + T * Q)
    s1 = lk(3).gen_images[0]
    cases = [(p, p, ONE),
             (f, f, PolyFraction(ONE)),
             (s1, s1, PolyMatrix.identity(3)),
             (-T * Q ** 2, LaurentPoly.monomial(-1, -1, -2), ONE),
             (f, PolyFraction(ONE + T * Q, T - 2 * Q), PolyFraction(ONE)),
             (s1, s1.inverse(), PolyMatrix.identity(3))]
    for x, step, one in cases:
        sign = 1 if step is x else -1
        assert sign == 1 or x * step == one
        acc = one
        for n in range(10):
            assert x ** (sign * n) == acc, (x, sign * n)
            acc = acc * step


def test_inverse_needs_unit_determinant():
    with pytest.raises(ArithmeticError, match="determinant is t \\+ 1 up to sign, not a unit"):
        m22(T + 1, 0, 0, 1).inverse()
    singular = [m22(1, 1, 1, 1), PolyMatrix.zeros(2), PolyMatrix.zeros(1),
                PolyMatrix([[ONE, T, Q], [T, Q, ONE], [ONE + T, T + Q, Q + ONE]])]
    for a in singular:
        with pytest.raises(ArithmeticError, match="singular over the Laurent ring"):
            a.inverse()


def assert_two_sided_inverse(a):
    inv = a.inverse()
    eye = PolyMatrix.identity(a.rows)
    assert a * inv == eye
    assert inv * a == eye
    return inv


GENERATOR_INVERSE_CASES = {
    **{"burau_unreduced(%d)" % n: lambda n=n: reps.burau_unreduced(n) for n in range(2, 6)},
    **{"burau_reduced(%d,%s)" % (n, f): lambda n=n, f=f: reps.burau_reduced(n, f)
       for n in range(2, 7) for f in ("standard", "conjugated")},
    **{"lk(%d,%s)" % (n, v): lambda n=n, v=v: reps.lk(n, v)
       for n in range(2, 6) for v in ("new", "bigelow")},
    **{"sym2_quantized(%d)" % n: lambda n=n: reps.sym2_quantized(n) for n in range(3, 6)},
    "qpascal(t^2,-t,1)": lambda: reps.qpascal_rep([parse_poly("t^2"), -T, ONE]),
    "qpascal(t^3*q^-1,-t,t*q,-t^-1*q^2,sharp)": lambda: reps.qpascal_rep(
        [parse_poly(x) for x in ("t^3*q^-1", "-t", "t*q", "-t^-1*q^2")], "sharp"),
    "lie_rep(strands=4)": lambda: reps.lie_rep(strands=4),
    "lie_rep(power=3)": lambda: reps.lie_rep(power=3),
}


@pytest.mark.parametrize("build", GENERATOR_INVERSE_CASES.values(),
                         ids=GENERATOR_INVERSE_CASES.keys())
def test_generator_inverses_are_two_sided(build):
    rep = build()
    for g in rep.gen_images:
        assert_two_sided_inverse(g)


def random_unit_det_matrix(rng, n):
    """+-monomial diagonal times a product of elementary matrices I + p*E_ij."""
    a = PolyMatrix.diagonal([LaurentPoly.monomial(rng.choice((-1, 1)), rng.randint(-2, 2),
                                                  rng.randint(-2, 2)) for _ in range(n)])
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        e = PolyMatrix.identity(n)
        e.data[i][j] = random_poly_matrix(rng, 1, lo=-1)[0, 0]
        a = a * e if rng.random() < 0.5 else e * a
    return a


def test_inverse_of_random_unit_det_matrices():
    rng = random.Random(31337)
    for k in range(60):
        a = random_unit_det_matrix(rng, 1 + k % 5)
        assert a.det().is_unit()
        inv = assert_two_sided_inverse(a)
        assert inv ** -1 == a


def test_inverse_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)

    def sym(p):
        return sympy.sympify(str(p).replace("^", "**"))

    for k in range(6):
        a = random_unit_det_matrix(rng, 2 + k % 2)
        inv = a.inverse()
        want = sympy.Matrix(a.rows, a.cols, lambda i, j: sym(a[i, j])).inv()
        for i in range(a.rows):
            for j in range(a.cols):
                assert sympy.cancel(sym(inv[i, j]) - want[i, j]) == 0


def test_det_fixtures():
    assert m22(T, Q, ONE, ONE).det() == T - Q
    assert PolyMatrix.identity(4).det() == ONE
    a = PolyMatrix([[ONE, 2 * ONE, 3 * ONE],
                    [4 * ONE, 5 * ONE, 6 * ONE],
                    [7 * ONE, 8 * ONE, 9 * ONE]])
    assert a.det() == ZERO
    assert PolyMatrix.diagonal([T, Q, -T * Q]).det() == -T ** 2 * Q ** 2


def test_det_multiplicative_random():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = random_int_matrix(rng, n)
        b = random_int_matrix(rng, n)
        assert (a * b).det() == a.det() * b.det()


def test_det_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t, q = sympy.symbols("t q")
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = random_poly_matrix(rng, n)
        s = sympy.Matrix(n, n, lambda i, j: sympy.sympify(str(a[i, j]).replace("^", "**")))
        got = a.det()
        want = sympy.expand(s.det())
        assert sympy.expand(sympy.sympify(str(got).replace("^", "**")) - want) == 0


def random_singular_matrix(rng, n, kind):
    """A random Laurent matrix with a zero row, a zero column, or one row a
    Laurent combination of two others (rank deficient)."""
    a = random_poly_matrix(rng, n, lo=-2)
    r = rng.randrange(n)
    if kind == "zero row":
        a.data[r] = [ZERO] * n
    elif kind == "zero column":
        for row in a.data:
            row[r] = ZERO
    else:
        i, j = rng.sample([x for x in range(n) if x != r], 2)
        u = LaurentPoly.monomial(rng.choice([1, -2, 3]), rng.randint(-2, 2), rng.randint(-2, 2))
        v = T - Q ** -1
        a.data[r] = [u * x + v * y for x, y in zip(a.data[i], a.data[j])]
    return a


def test_det_matches_diagonal_bareiss_oracle():
    rng = random.Random(20261018)
    kinds = collections.Counter()
    for trial in range(140):
        n = 1 + trial % 7
        kind = rng.choice(["random", "random", "zero row", "zero column", "rank deficient"])
        if kind == "rank deficient" and n < 3:
            kind = "random"
        if kind == "random":
            a = random_poly_matrix(rng, n, lo=-2)
        else:
            a = random_singular_matrix(rng, n, kind)
        got = a.det()
        assert got == diagonal_bareiss_det(a)
        if kind != "random":
            assert got == ZERO
        kinds[kind, got.is_zero()] += 1
    assert kinds[("random", False)] >= 20
    assert min(kinds[(k, True)] for k in ("zero row", "zero column", "rank deficient")) >= 10


def test_det_of_scaled_permutation_matrices():
    rng = random.Random(4)
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        units = [LaurentPoly.monomial(rng.choice([1, -1]), rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(4)]
        a = PolyMatrix.zeros(4)
        for i, u in enumerate(units):
            a.data[i][perm[i]] = u
        want = units[0] * units[1] * units[2] * units[3]
        assert a.det() == (-want if inversions % 2 else want)


def test_det_pivots_on_the_first_fewest_term_entry(divisors):
    # Bareiss on a 3x3 divides once, by the first pivot: of the two one-term
    # entries, the first in row-major order (det itself packs this block
    # into ints first, so the rule is pinned on _bareiss_det)
    a = PolyMatrix([[ONE + T + Q, T + Q, ONE - T],
                    [T - Q, ONE + Q, Q],
                    [ONE + T, T, Q - ONE]])
    assert polymatrix._bareiss_det([row[:] for row in a.data]) == diagonal_bareiss_det(a)
    assert divisors == [Q]


@pytest.fixture
def block_routes(monkeypatch):
    """How often PolyMatrix.det packs a block of 3 or more rows into ints
    ("packed"), collapses one to Z[q^+-1] ("collapsed"), and how often both
    gates refuse one, which stays in the Laurent ring ("refused")."""
    seen = collections.Counter()

    def counting_collapse(rows):
        collapsed = collapse(rows)
        seen["refused" if collapsed is None else
             "collapsed" if collapsed[2] is None else "packed"] += 1
        return collapsed

    def counting_pack_pencil(a, b, s):
        packed = pack_pencil(a, b, s)
        seen["unpacked" if packed is None else "packed"] += 1
        return packed

    monkeypatch.setattr(polymatrix, "collapse", counting_collapse)
    monkeypatch.setattr(polymatrix, "pack_pencil", counting_pack_pencil)
    return seen


def block_shape(rows):
    """(bits, s, width, height, shift): the Hadamard slot width bits =
    bit_length(B) + 1 for B = ceil(sqrt(prod_i sum_j |a_ij|_1^2)), s the
    largest row t-span, width and height one more than the sums of the row
    t-spans and of the row q-spans, and shift the sums of the rows' least
    t- and q-exponents.  A packed block is bits * width * height bits
    wide, and a collapsed coefficient bits * (s + 1)."""
    span, bound, width, height, t_shift, q_shift = 0, 1, 1, 1, 0, 0
    for row in rows:
        monos = [mono for x in row for mono, _ in x.sorted_terms()]
        ets, eqs = [et for et, _ in monos], [eq for _, eq in monos]
        span = max(span, max(ets) - min(ets))
        width += max(ets) - min(ets)
        height += max(eqs) - min(eqs)
        t_shift += min(ets)
        q_shift += min(eqs)
        bound *= sum(sum(abs(c) for _, c in x.sorted_terms()) ** 2 for x in row)
    bits = (math.isqrt(bound - 1) + 1).bit_length() + 1
    return bits, span, width, height, (t_shift, q_shift)


def block_route(rows):
    """The route PolyMatrix.det takes for a block of 3 or more rows: packed
    within PACKED_ROW_BITS per row, else collapsed within COLLAPSE_BITS,
    else refused."""
    bits, span, width, height, _ = block_shape(rows)
    if bits * width * height <= PACKED_ROW_BITS * len(rows):
        return "packed"
    return "collapsed" if bits * (span + 1) in COLLAPSE_BITS else "refused"


def connected_block(rng, size, max_coeff, t_range, q_range=(-3, 3)):
    """A size x size block whose row 0 and cycle 0 -> 1 -> ... -> size-1 -> 0
    are nonzero (so it is strongly connected), other entries nonzero at
    random; each nonzero entry has 1 to 3 terms with coefficients in
    [-max_coeff, max_coeff], t-exponents in t_range and q-exponents in
    q_range."""

    def entry():
        return LaurentPoly({(rng.randint(*t_range), rng.randint(*q_range)):
                            rng.randint(-max_coeff, max_coeff) or 1
                            for _ in range(rng.randint(1, 3))})

    return [[entry() if i == 0 or j == (i + 1) % size or rng.random() < 0.5 else ZERO
             for j in range(size)] for i in range(size)]


def singular(rng, rows, kind, t=1, q=1):
    """rows made singular as kind says: "equal rows" (the last row a unit
    multiple of the first), "rank two" or "rank one"; "regular" keeps
    them.  The multipliers are monomials in t and q, or in one of them
    when t or q is 0."""
    size = len(rows)
    if kind == "equal rows":
        rows[-1] = [-LaurentPoly.monomial(1, t, q) * x for x in rows[0]]
    elif kind == "rank two":
        u = LaurentPoly.monomial(rng.randint(1, 9), -t, 2 * q)
        v = ONE - LaurentPoly.monomial(1, t, -q)
        for i in range(2, size):
            rows[i] = [u * x + v * y for x, y in zip(rows[0], rows[1])]
    elif kind == "rank one":
        col = [LaurentPoly.monomial(rng.randint(1, 5), t * rng.randint(-2, 2), 0)
               for _ in range(size)]
        rows = [[c * x for x in rows[0]] for c in col]
    return rows


KINDS = ("regular", "equal rows", "rank two", "rank one")


def test_collapsed_det_matches_the_oracles(block_routes):
    # blocks on all three routes: small coefficients and t-spans pack into
    # ints, coefficients up to 1000 over t- and q-spans of 6 make a block
    # too wide to pack, and coefficients up to 10^6 make a 7 x 7 block's
    # collapsed slots too wide for its t-spans as well
    rng = random.Random(20091019)
    sides = collections.Counter()
    for trial in range(120):
        size = 3 + trial % 5
        max_coeff, t_range = ((3, (0, 1)), (1000, (-3, 3)), (10 ** 6, (-3, 3)))[trial // 5 % 3]
        kind = KINDS[trial // 15 % 4]
        rows = singular(rng, connected_block(rng, size, max_coeff, t_range), kind)
        a = PolyMatrix(rows)
        block_routes.clear()
        got = a.det()
        assert got == unsplit_det(a) == diagonal_bareiss_det(a), (trial, kind)
        assert (got == ZERO) == (kind != "regular")
        route = block_route(rows)
        assert block_routes == {route: 1}
        if route != "refused":
            bits, _, width, _, shift = block_shape(rows)
            want = (bits, width, shift) if route == "packed" else (bits, None, shift[0])
            assert collapse(rows)[1:] == want, (trial, kind)
        sides[route] += 1
        sides[kind, route] += 1
    assert sides["packed"] >= 30 and sides["collapsed"] >= 20 and sides["refused"] >= 5, sides
    assert all(sides[kind, route] >= 3 for kind in KINDS for route in ("packed", "collapsed")), sides


def test_packed_det_matches_the_oracles(block_routes):
    # the integer route against the unsplit Laurent Bareiss and the
    # diagonal-pivot Bareiss: regular and singular blocks, free of q
    # (height 1), free of t (width 1) or in both, with coefficients of
    # either sign; nearly every block here packs.  Then a block exactly at
    # the gate, one a q-degree above it, and one with a t^(10**12) entry,
    # which both gates refuse before any shift.
    rng = random.Random(20261020)
    seen = collections.Counter()
    for trial in range(160):
        size = 3 + trial % 4
        free = ("q", "t", "neither")[trial // 4 % 3]
        kind = KINDS[trial // 12 % 4]
        rows = connected_block(rng, size, 9, (0, 0) if free == "t" else (-2, 1),
                               (0, 0) if free == "q" else (-1, 2))
        rows = singular(rng, rows, kind, t=int(free != "t"), q=int(free != "q"))
        a = PolyMatrix(rows)
        block_routes.clear()
        got = a.det()
        assert got == unsplit_det(a) == diagonal_bareiss_det(a), (trial, free, kind)
        assert (got == ZERO) == (kind != "regular"), (trial, free, kind)
        route = block_route(rows)
        assert block_routes == {route: 1}, (trial, free, kind)
        seen[route] += 1
        _, _, width, height, _ = block_shape(rows)
        if free != "neither":
            axis = 1 if free == "q" else 0
            assert (width, height)[axis] == 1
            assert all(mono[axis] == 0 for mono, _ in got.sorted_terms())
        if route != "packed":
            continue
        if got:
            signs = {c > 0 for _, c in got.sorted_terms()}
            seen[free, "negative"] += False in signs
            seen[free, "positive"] += True in signs
        else:
            seen[free, kind] += 1
    assert all(seen[free, sign] >= 5 for free in ("q", "t", "neither")
               for sign in ("negative", "positive")), seen
    assert all(seen[free, kind] >= 5 for free in ("q", "t", "neither") for kind in KINDS[1:]), seen
    assert seen["packed"] >= 140, seen
    huge = LaurentPoly.monomial(-3, 10 ** 12, 1)
    fixed = ((gate_block(73, GATE // 75 - 1), "packed"), (gate_block(73, GATE // 75), "collapsed"),
             (PolyMatrix([[ONE - Q, huge, ZERO], [ZERO, T - Q, Q], [T, -ONE, 2 * ONE]]), "refused"))
    for a, route in fixed:
        block_routes.clear()
        assert a.det() == unsplit_det(a) == diagonal_bareiss_det(a)
        assert block_routes == {route: 1}


def gate_block(e, n):
    """A cyclic 3 x 3 block with entries t^2 (c q^-1 + q^(n-1)), t^-1 q and
    t q, c = 2^e, e > 0, n > 0: det = t^2 (c q + q^(n+1)).  Every row
    t-span is 0 and B = c + 1, so the slots are e + 2 bits wide, and the
    q-spans sum to n: the packed block is (e + 2) (n + 1) bits wide, and a
    collapsed coefficient e + 2."""
    return PolyMatrix([[ZERO, LaurentPoly({(2, -1): 2 ** e, (2, n - 1): 1}), ZERO],
                       [ZERO, ZERO, LaurentPoly.monomial(1, -1, 1)],
                       [LaurentPoly.monomial(1, 1, 1), ZERO, ZERO]])


# the widest packed 3 x 3 block
GATE = 3 * PACKED_ROW_BITS


@pytest.mark.parametrize("n, route", ((GATE // 75 - 1, "packed"), (GATE // 75, "collapsed")))
def test_packed_gate_edges(block_routes, n, route):
    # slots of 75 bits: exactly at the gate, and one q-degree above it,
    # where the collapse to Z[q^+-1] (75 bits) takes the block instead
    assert GATE % 75 == 0
    a = gate_block(73, n)
    assert block_shape(a.data)[:4] == (75, 0, 1, n + 1)
    got = a.det()
    assert got == diagonal_bareiss_det(a) == LaurentPoly({(2, 1): 2 ** 73, (2, n + 1): 1})
    assert block_routes == {route: 1}


@pytest.mark.parametrize("e, route", ((61, "refused"), (62, "collapsed"),
                                      (1022, "collapsed"), (1023, "refused")))
def test_collapse_gate_edges(block_routes, e, route):
    # a q-span of GATE keeps the block from packing at any slot width; the
    # collapsed coefficients are e + 2 bits wide, from 63 (refused) and 64
    # (collapsed) to 1024 (collapsed) and 1025 (refused)
    a = gate_block(e, GATE)
    assert block_shape(a.data)[:4] == (e + 2, 0, 1, GATE + 1)
    got = a.det()
    assert got == diagonal_bareiss_det(a) == LaurentPoly({(2, 1): 2 ** e, (2, GATE + 1): 1})
    assert block_routes == {route: 1}


def block_sum(*blocks):
    """The direct sum of the blocks, with t q above the diagonal between
    each block and the next, so the sum is block upper triangular: its
    strongly connected blocks are the given ones, and its determinant is
    their product."""
    a = blocks[0]
    for b in blocks[1:]:
        corner = a.rows
        a = a.direct_sum(b)
        a.data[corner - 1][corner] = T * Q
    return a


def zero_image(a):
    """A second image of a's shape with no nonzero entry: packed_det(m,
    zero_image(m), s) is the determinant of m alone."""
    return [[ZERO] * a.cols for _ in range(a.rows)]


def test_packed_det_is_the_det_when_every_block_packs(block_routes):
    # 1 x 1 and 2 x 2 blocks as PolyMatrix.det takes them, and blocks of 3
    # and 4 rows that pack; the argument is left as it was
    rng = random.Random(3131)
    packed = [PolyMatrix(connected_block(rng, size, 3, (0, 1))) for size in (3, 4)]
    assert [block_route(b.data) for b in packed] == ["packed", "packed"]
    for a in (block_sum(PolyMatrix([[T - Q]]), m22(T, Q, ONE, T ** -1), *packed),
              block_sum(gate_block(73, GATE // 75 - 1), PolyMatrix([[3 * Q]])),
              packed[1]):
        before = [row[:] for row in a.data]
        block_routes.clear()
        got = packed_det(a.data, zero_image(a), 1)
        assert got == a.det() == diagonal_bareiss_det(a) != ZERO
        assert a.data == before
        assert set(block_routes) == {"packed"}


def test_packed_det_refuses_a_block_it_cannot_pack():
    # a 3 x 3 block that collapses to Z[q^+-1] or that both gates refuse
    # gives None, whatever blocks come with it, while PolyMatrix.det takes
    # it on its own route
    small = m22(T, Q, ONE, T ** -1)
    for wide, route in ((gate_block(73, GATE // 75), "collapsed"),
                        (gate_block(1023, GATE), "refused")):
        assert block_route(wide.data) == route
        for a in (wide, block_sum(small, wide), block_sum(wide, PolyMatrix([[T]]), small)):
            assert a.det() != ZERO
            assert packed_det(a.data, zero_image(a), 1) is None


def test_packed_det_of_a_zero_block_before_a_refused_one_is_zero():
    # blocks go smallest first, so a zero block smaller than the refused one
    # gives 0, and one larger than it comes too late
    refused = gate_block(1023, GATE)
    for zero in (PolyMatrix([[ZERO]]), m22(T, Q, T, Q)):
        a = block_sum(refused, zero)
        got = packed_det(a.data, zero_image(a), 1)
        assert got == ZERO and isinstance(got, LaurentPoly)
    rng = random.Random(4)
    singular4 = PolyMatrix(singular(rng, connected_block(rng, 4, 3, (0, 1)), "equal rows"))
    a = block_sum(singular4, refused)
    assert a.det() == ZERO and packed_det(a.data, zero_image(a), 1) is None


def pencil_rows(a, b, s):
    """The rows of a - s b, built."""
    return [[x - s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_packed_det_of_a_pencil_is_the_det_of_a_minus_s_b(block_routes):
    # seeded pencils of 3 to 6 rows, s = +-1, each with entries where a =
    # s b, which cancel, and some with a row that cancels completely: when
    # every block packs, packed_det(a, b, s) is PolyMatrix.det of a - s b,
    # which it never builds for a block of 3 or more rows; a and b are left
    # as they were
    rng = random.Random(3232)
    seen = collections.Counter()
    for trial in range(120):
        size, s = 3 + trial % 4, (1, -1)[trial // 4 % 2]
        a = connected_block(rng, size, 3, (-1, 1), (0, 1))
        b = [[x if rng.random() < 0.6 else ZERO for x in row]
             for row in connected_block(rng, size, 3, (-1, 1), (-1, 0))]
        for i in range(size):
            for j in range(size):
                if b[i][j] and rng.random() < 0.2:
                    a[i][j] = s * b[i][j]
                    seen["cancelled entries"] += 1
        if trial % 3 == 0:
            r = rng.randrange(size)
            if any(b[r]):
                a[r] = [s * y for y in b[r]]
            else:
                b[r] = [s * x for x in a[r]]
        before = ([row[:] for row in a], [row[:] for row in b])
        want = PolyMatrix(pencil_rows(a, b, s)).det()
        block_routes.clear()
        got = packed_det(a, b, s)
        assert (a, b) == before
        if got is None:
            assert block_routes["unpacked"] >= 1
            seen["unpacked"] += 1
            continue
        assert got == want, (trial, size, s)
        seen["zero" if got == ZERO else "packed", s] += 1
        if trial % 3 == 0:
            assert got == ZERO
    assert seen["cancelled entries"] >= 100, seen
    assert all(seen[kind, s] >= 10 for kind in ("packed", "zero") for s in (1, -1)), seen


def test_packed_det_of_a_pencil_splits_on_the_union_pattern(block_routes):
    # a and b have different patterns: a upper triangular, which splits
    # into 1 x 1 blocks, and b strictly lower triangular but for its corner
    # entry (0, 3), which splits into smaller blocks than 4 x 4 too, but the
    # union is one 4 x 4 block, which packs; and a 1 x 1 block where a = s b
    # is a zero block that comes before a refused one, so the refused block
    # is never tried
    rng = random.Random(3233)
    full = connected_block(rng, 4, 3, (0, 1), (0, 1))
    a = [[x if j >= i else ZERO for j, x in enumerate(row)] for i, row in enumerate(full)]
    b = [[x if j < i else ZERO for j, x in enumerate(row)] for i, row in enumerate(full)]
    b[0][3] = T * Q
    for s in (1, -1):
        want = PolyMatrix(pencil_rows(a, b, s)).det()
        block_routes.clear()
        assert packed_det(a, b, s) == want != ZERO
        assert block_routes == {"packed": 1}
    refused = gate_block(1023, GATE)
    for s in (1, -1):
        a = block_sum(refused, PolyMatrix([[s * T]])).data
        b = zero_image(PolyMatrix(a))
        b[3][3] = T
        block_routes.clear()
        got = packed_det(a, b, s)
        assert got == ZERO and isinstance(got, LaurentPoly) and not block_routes
        b[3][3] = ZERO
        assert packed_det(a, b, s) is None and block_routes == {"unpacked": 1}


def sylvester_hadamard(k):
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def bound_block(m, d):
    """c * (cyclic permutation) with c = 2^m - 1 and t-power entries, and
    its determinant: one coefficient, c^d, equal to the Hadamard bound B."""
    c = 2 ** m - 1
    rows = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        rows[i][(i + 1) % d] = LaurentPoly.monomial(c, 2 * i - 3, i % 2)
    return PolyMatrix(rows), LaurentPoly.monomial((-1) ** (d - 1) * c ** d, d * (d - 4), d // 2)


def hadamard_block(m):
    """Sylvester's 4 x 4 Hadamard matrix times c = 2^m - 1, column j times
    t^j, and its determinant: rows orthogonal on the torus, so |det| =
    16 c^4 is the bound, with a row t-span of 3."""
    c = 2 ** m - 1
    h = sylvester_hadamard(2)
    rows = [[LaurentPoly.monomial(c * h[i][j], j, i - 1) for j in range(4)] for i in range(4)]
    return PolyMatrix(rows), LaurentPoly.monomial(16 * c ** 4, 6, 2)


@pytest.fixture
def packing_closed(monkeypatch):
    """No block packs, so the collapse to Z[q^+-1] takes every block that
    the packing gate would have taken."""
    monkeypatch.setattr(laurent, "PACKED_ROW_BITS", 0)


# The slots are bit_length(B) + 1 bits wide, one more than the read-back
# needs on these blocks, on either route.
BOUND_BLOCKS = pytest.mark.parametrize("m, d", ((22, 3), (16, 4), (31, 7), (8, 12)))


@BOUND_BLOCKS
def test_packed_det_meets_its_bound(block_routes, m, d):
    a, want = bound_block(m, d)
    assert a.det() == want
    assert block_routes == {"packed": 1}


@BOUND_BLOCKS
def test_collapsed_det_meets_its_bound(block_routes, packing_closed, m, d):
    a, want = bound_block(m, d)
    assert a.det() == want
    assert block_routes == {"collapsed": 1}


@pytest.mark.parametrize("m", (3, 9))
def test_packed_det_meets_its_bound_across_a_t_span(block_routes, m):
    a, want = hadamard_block(m)
    assert a.det() == diagonal_bareiss_det(a) == want
    assert block_routes == {"packed": 1}


@pytest.mark.parametrize("m", (3, 9))
def test_collapsed_det_meets_its_bound_across_a_t_span(block_routes, packing_closed, m):
    a, want = hadamard_block(m)
    assert a.det() == diagonal_bareiss_det(a) == want
    assert block_routes == {"collapsed": 1}


def test_collapse_gate_counts_the_row_t_span(block_routes, packing_closed):
    # K = 32 from B = ceil(sqrt(2 * 2^60)), and row 0 spans one t-degree:
    # with the packing gate closed, the collapsed coefficients are
    # K * (1 + 1) = 64 bits wide, so the block collapses, where a gate on
    # K * s = 32 would refuse it
    a = PolyMatrix([[ZERO, ONE, T],
                    [ZERO, ZERO, LaurentPoly.monomial(2 ** 30, 0, 1)],
                    [T ** 3, ZERO, ZERO]])
    assert block_shape(a.data)[:2] == (32, 1)
    got = a.det()
    assert got == diagonal_bareiss_det(a) == LaurentPoly.monomial(2 ** 30, 3, 1)
    assert block_routes == {"collapsed": 1}


def test_collapsed_det_of_a_huge_t_power_costs_nothing(block_routes):
    # both gates read exponents before any shift: a row spanning 10**12
    # t-degrees is refused, and a row whose only entry is t^(10**12) shifts
    # to a constant and packs
    huge = LaurentPoly.monomial(2 ** 40, 10 ** 12, 0)
    refused = PolyMatrix([[ONE + Q, huge, ZERO], [ZERO, T - Q, Q], [T, ONE, 2 * ONE]])
    shifted = PolyMatrix([[ZERO, huge, ZERO], [ZERO, T - Q, Q], [T, ONE, 2 * ONE]])
    for a in (refused, shifted):
        assert a.det() == unsplit_det(a) == diagonal_bareiss_det(a)
    assert refused.det() == (ONE + Q) * (2 * T - 3 * Q) + huge * T * Q
    assert shifted.det() == huge * T * Q
    assert block_routes == {"refused": 2, "packed": 2}


def test_det_with_a_zero_line_in_the_trailing_block_divides_nothing(divisors):
    rng = random.Random(11)
    for kind in ("zero row", "zero column"):
        assert random_singular_matrix(rng, 5, kind).det() == ZERO
    # rank one: the block left after the first step is all zero, in the
    # Laurent ring and packed into ints alike
    col = [T, ONE, Q ** -1, 2 * ONE]
    row = [ONE, -T, Q, T * Q]
    a = PolyMatrix([[x * y for y in row] for x in col])
    assert a.det() == ZERO
    assert polymatrix._bareiss_det([r[:] for r in a.data]) == ZERO
    assert divisors == []


def irreducible_block(rng, size, zero_diagonal=False):
    """A random size x size block whose nonzero pattern is strongly connected:
    the cycle 0 -> 1 -> ... -> size-1 -> 0 is nonzero, other entries are
    random and may be 0, and the diagonal is all 0 if asked."""
    rows = random_poly_matrix(rng, size, lo=-2).data
    for i in range(size):
        if size > 1:
            rows[i][(i + 1) % size] = LaurentPoly.monomial(rng.choice((1, -2, 3)),
                                                           rng.randint(-2, 2), rng.randint(-2, 2))
        if zero_diagonal:
            rows[i][i] = ZERO
    return rows


def hidden_blocks(rng, blocks, triangular):
    """The blocks on the diagonal, random entries above them if triangular
    (zeros otherwise), and the whole conjugated by a random permutation."""
    d = sum(len(b) for b in blocks)
    rows = [[ZERO] * d for _ in range(d)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[start + i][start:start + len(b)] = row
            if triangular:
                for j in range(start + len(b), d):
                    rows[start + i][j] = random_poly_matrix(rng, 1, lo=-1)[0, 0]
        start += len(b)
    perm = list(range(d))
    rng.shuffle(perm)
    return PolyMatrix(rows).conjugate_by_permutation(perm)


def test_det_splits_hidden_blocks_like_the_unsplit_bareiss(bareiss_sizes, block_routes):
    rng = random.Random(20261019)
    seen = collections.Counter()
    for trial in range(120):
        sizes = [rng.choice((1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 4))]
        zero_diagonal = trial % 3 == 0
        blocks = [irreducible_block(rng, s, zero_diagonal and s > 1) for s in sizes]
        a = hidden_blocks(rng, blocks, triangular=trial % 2 == 1)
        del bareiss_sizes[:]
        block_routes.clear()
        got = a.det()
        assert got == unsplit_det(a) == diagonal_bareiss_det(a)
        if got:
            # every block found is a hidden one, smallest first, and each of
            # 3 or more rows takes its own route
            assert bareiss_sizes == sorted(s for s in sizes if s > 1)
            assert block_routes == collections.Counter(block_route(b) for b in blocks if len(b) > 2)
            seen["nonzero", zero_diagonal] += 1
        else:
            seen["zero"] += 1
    assert seen["nonzero", True] >= 20 and seen["nonzero", False] >= 40 and seen["zero"] >= 5


def test_det_of_a_zero_one_by_one_block_runs_no_bareiss(bareiss_sizes, divisors):
    rng = random.Random(7)
    for triangular in (False, True):
        blocks = [irreducible_block(rng, 4), [[ZERO]], irreducible_block(rng, 3)]
        a = hidden_blocks(rng, blocks, triangular)
        assert a.det() == ZERO
        assert bareiss_sizes == [] and divisors == []
        assert unsplit_det(a) == ZERO
        del divisors[:]


def test_det_runs_bareiss_on_the_three_by_three_blocks_only(bareiss_sizes, block_routes):
    rng = random.Random(33)
    while True:
        blocks = [irreducible_block(rng, 3), irreducible_block(rng, 3)]
        if all(PolyMatrix(b).det() for b in blocks):
            break
    del bareiss_sizes[:]
    block_routes.clear()
    a = hidden_blocks(rng, blocks, triangular=False)
    got = a.det()
    assert bareiss_sizes == [3, 3]
    assert block_routes == {"packed": 2}
    assert got == unsplit_det(a) == PolyMatrix(blocks[0]).det() * PolyMatrix(blocks[1]).det()


def test_split_det_sends_each_block_its_own_route(bareiss_sizes, block_routes):
    # five hidden blocks, one per route: a 1 x 1 block is its own entry, a
    # 2 x 2 block stays in the Laurent ring, and of the three 3 x 3 blocks
    # one packs into ints, one (75-bit slots, a q-span of GATE) collapses
    # to Z[q^+-1] and one (3-bit slots) is refused by both gates
    rng = random.Random(34)
    blocks = [irreducible_block(rng, 3), gate_block(73, GATE).data,
              gate_block(1, GATE).data, [[ONE + T, Q], [-Q, ONE - T]], [[2 * T * Q]]]
    assert [block_route(b) for b in blocks[:3]] == ["packed", "collapsed", "refused"]
    want = math.prod((PolyMatrix(b).det() for b in blocks), start=ONE)
    assert want
    del bareiss_sizes[:]
    block_routes.clear()
    a = hidden_blocks(rng, blocks, triangular=True)
    assert a.det() == want == unsplit_det(a)
    assert sorted(bareiss_sizes) == [2, 3, 3, 3]
    assert block_routes == {"packed": 1, "collapsed": 1, "refused": 1}


@pytest.mark.parametrize("a", (PolyMatrix.identity(1), PolyMatrix.identity(5),
                               PolyMatrix([[T - Q]]), PolyMatrix([[ZERO]])),
                         ids=("I1", "I5", "1x1", "zero 1x1"))
def test_det_of_identities_and_one_by_one_matrices(bareiss_sizes, a):
    assert a.det() == unsplit_det(a)
    assert bareiss_sizes == []


def assert_same_partition(rows):
    got = polymatrix._strong_components(rows)
    assert all(block == sorted(block) for block in got)
    assert sorted(v for block in got for v in block) == list(range(len(rows)))
    want = tarjan_components(rows)
    assert set(map(frozenset, got)) == set(map(frozenset, want))
    return len(got)


def test_strong_components_match_tarjan_on_random_digraphs():
    # zero and nonzero diagonals: a vertex with no loop is still its own block
    rng = random.Random(1962)
    for d in range(1, 41):
        for density in (0.0, 0.03, 0.08, 0.15, 0.3, 0.5):
            for diagonal in (0, 1):
                rows = [[int(rng.random() < density) for _ in range(d)] for _ in range(d)]
                for i in range(d):
                    rows[i][i] = diagonal
                assert_same_partition(rows)


@pytest.mark.parametrize("invariant", ("alexander", "krammer"))
def test_closure_determinants_match_the_unsplit_bareiss(invariant):
    # det(rho(w) - s I) on seeded words, and its blocks against Tarjan's; a
    # word that misses a generator once freely reduced splits its closure
    # matrix, and so do some others
    rng = random.Random(1972)
    split = whole = 0
    for n in range(3, 7):
        rep = (inv._alexander_data if invariant == "alexander" else inv._krammer_data)(n)[0]
        for _ in range(10 if n < 6 else 5):
            word = BraidWord(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                                 for _ in range(rng.randint(2, 8))])
            s = -1 if invariant == "krammer" and len(word.letters) % 2 else 1
            m = reps.image_of_word(rep, word) - PolyMatrix.identity(rep.dim).scale(s)
            assert m.det() == unsplit_det(m), (n, str(word))
            if assert_same_partition(m.data) > 1:
                split += 1
            else:
                whole += 1
    assert split >= 5 and whole >= 5, (split, whole)


def test_transpose_sharp_substitute():
    a = m22(T, Q, ZERO, ONE)
    assert transpose(a)[0, 1] == ZERO
    s = a.sharp()
    assert s[0, 0] == ONE and s[1, 1] == T
    assert s[1, 0] == a[0, 1]
    with pytest.raises(ValueError, match=r"^sharp needs a square matrix, got 2x3$"):
        PolyMatrix.zeros(2, 3).sharp()
    sub = a.substitute(Q, T)
    assert sub[0, 0] == Q and sub[0, 1] == T


def test_direct_sum_and_permutation():
    a = m22(1, 2, 3, 4)
    s = a.direct_sum(PolyMatrix.identity(1))
    assert s.rows == 3 and s[2, 2] == ONE and s[0, 2] == ZERO
    p = s.conjugate_by_permutation([1, 2, 0])
    assert p[1, 1] == LaurentPoly.const(1)
    assert p.det() == s.det()


def test_tensor_product():
    a = m22(1, 1, 0, 1)
    b = m22(T, 0, 0, Q)
    k = tensor_product(a, b)
    assert k.rows == 4
    assert k[0, 0] == T and k[0, 2] == T and k[1, 3] == Q
    c = m22(0, 1, 1, 0)
    d = m22(1, 2, 3, 4)
    assert tensor_product(a * c, b * d) == tensor_product(a, b) * tensor_product(c, d)


def test_sym_ext_bases():
    assert sym_basis(3, 2) == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
    assert ext_basis(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_sym_power_of_jordan_block():
    u = m22(1, 1, 0, 1)
    s = sym_power(u, 2)
    assert s == PolyMatrix([[ONE, 2 * ONE, ONE],
                            [ZERO, ONE, ONE],
                            [ZERO, ZERO, ONE]])


def test_sym_ext_functorial():
    rng = random.Random(7)
    for _ in range(30):
        a = random_int_matrix(rng, 3, -2, 2)
        b = random_int_matrix(rng, 3, -2, 2)
        assert sym_power(a * b, 2) == sym_power(a, 2) * sym_power(b, 2)
        assert ext_power(a * b, 2) == ext_power(a, 2) * ext_power(b, 2)


def test_ext_power_top_is_det():
    rng = random.Random(13)
    for _ in range(20):
        a = random_int_matrix(rng, 3)
        top = ext_power(a, 3)
        assert top.rows == 1 and top[0, 0] == a.det()


def test_sym_ext_powers_match_oracles():
    rng = random.Random(20261018)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_poly_matrix(rng, n, lo=-1)
        assert sym_power(a, 0) == ext_power(a, 0) == PolyMatrix([[ONE]])
        for m in range(1, 5):
            assert sym_power(a, m) == permutation_sym_power(a, m), (n, m)
            if m <= n:
                assert ext_power(a, m) == minor_ext_power(a, m), (n, m)


def test_exp_nilpotent():
    x = PolyMatrix([[ZERO, 2 * ONE, ZERO],
                    [ZERO, ZERO, ONE],
                    [ZERO, ZERO, ZERO]])
    e = exp_nilpotent(x)
    assert e[0, 1] == 2 * ONE and e[0, 2] == ONE
    assert e * exp_nilpotent(-x) == PolyMatrix.identity(3)
    with pytest.raises(ArithmeticError):
        exp_nilpotent(PolyMatrix.identity(2))


def test_exp_nilpotent_one_by_one():
    assert exp_nilpotent(PolyMatrix([[ZERO]])) == PolyMatrix.identity(1)
    with pytest.raises(ArithmeticError, match="not nilpotent"):
        exp_nilpotent(PolyMatrix([[T]]))


def test_exp_rejects_inexact_division():
    # exp of this matrix has a 3/2 entry, which is outside the ring
    x = PolyMatrix([[ZERO, ONE, ONE],
                    [ZERO, ZERO, ONE],
                    [ZERO, ZERO, ZERO]])
    with pytest.raises(ArithmeticError,
                       match=r"^a\^2 is not divisible by 2!; exp does not stay in the ring$"):
        exp_nilpotent(x)


def raising_matrix(m, c):
    # c times the sl2 raising operator on the (m+1)-dimensional module;
    # its exponential has binomial entries, so it stays integral
    n = m + 1
    rows = [[LaurentPoly.const(c * (m - i)) if j == i + 1 else ZERO
             for j in range(n)] for i in range(n)]
    return PolyMatrix(rows)


def test_exp_inverse_for_raising_matrices():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(1, 6)
        c = rng.randint(-3, 3)
        x = raising_matrix(m, c)
        assert exp_nilpotent(x) * exp_nilpotent(-x) == PolyMatrix.identity(m + 1)


def test_char_poly():
    a = m22(T, 0, 0, Q)
    assert char_poly(a) == [T * Q, -(T + Q), ONE]
    assert char_poly_from_roots([T, Q]) == char_poly(a)
    assert char_poly(PolyMatrix.identity(3)) == [-ONE, 3 * ONE, -3 * ONE, ONE]
    assert char_poly(PolyMatrix([[T]])) == [-T, ONE]


def assert_char_poly_matches_bareiss(a):
    # a polynomial of degree <= n is pinned down by its values at n+1 points
    n = a.rows
    coeffs = char_poly(a)
    assert len(coeffs) == n + 1 and coeffs[n] == ONE
    for k in range(n + 1):
        value = ZERO
        for c in reversed(coeffs):
            value = value * k + c
        assert value == (PolyMatrix.identity(n).scale(k) - a).det()


@pytest.mark.parametrize("n", range(3, 7))
def test_char_poly_matches_bareiss_on_lk(n):
    rep = lk(n, "new")
    for g in rep.gen_images[:2]:
        assert_char_poly_matches_bareiss(g)


def test_char_poly_matches_bareiss_random():
    rng = random.Random(19840101)
    for _ in range(60):
        assert_char_poly_matches_bareiss(random_poly_matrix(rng, rng.randint(1, 5), lo=-1))


def test_generalized_char_poly_fixture():
    c = m22(0, 1, 1, 0)
    lam = [T, Q]
    # det([[t, 1], [1, q]]) = t*q - 1
    assert generalized_char_poly(c, lam) == T * Q - ONE


def test_generalized_char_poly_dual_route_random():
    rng = random.Random(20260819)
    for _ in range(200):
        n = rng.randint(1, 4)
        c = random_poly_matrix(rng, n)
        lam = [LaurentPoly.monomial(rng.choice((1, -1)),
                                    rng.randint(-2, 2), rng.randint(-2, 2))
               for _ in range(n)]
        assert generalized_char_poly(c, lam) == cofactor_char_poly(c, lam)


def test_generalized_char_poly_shape_errors():
    with pytest.raises(ValueError):
        generalized_char_poly(m22(1, 0, 0, 1), [ONE])


def test_json_round_trip():
    a = m22(T, Q ** -1, 0, 3)
    assert matrix_from_json(a.to_json()) == a


def test_str_and_latex():
    a = m22(T, 0, 0, 1)
    assert str(a) == "[t, 0]\n[0, 1]"
    assert a.to_latex().startswith("\\begin{pmatrix}")


def test_integer_det_matches_rational_elimination():
    # dense, sparse (split into blocks), rank-deficient and all-zero-line
    # int matrices, entries up to 2^200
    rng = random.Random(2121)
    kinds = collections.Counter()
    for trial in range(200):
        size = 1 + trial % 7
        top = (2, 1000, 1 << 200)[trial // 7 % 3]
        density = (1.0, 0.5, 0.25)[trial // 21 % 3]
        rows = [[rng.randint(-top, top) if rng.random() < density else 0 for _ in range(size)]
                for _ in range(size)]
        if trial % 5 == 0 and size > 1:
            rows[-1] = [3 * x - y for x, y in zip(rows[0], rows[1])]
        want = fraction_det(rows)
        kinds["zero" if want == 0 else "nonzero"] += 1
        assert integer_det([list(row) for row in rows]) == want, (trial, rows)
    assert min(kinds.values()) >= 20, kinds


def test_integer_and_laurent_dets_share_one_elimination_and_keep_their_ring(monkeypatch):
    # a dense rank-1 matrix, whose trailing block empties after step 0; a
    # singular sparse one, a 2 x 2 block above a singular 3 x 3 block; and
    # one whose first pivot in either ring is (0, 1), one column swap, which
    # gives a negative determinant.  integer_det gives an int and det a
    # LaurentPoly, each block runs through the one polymatrix._bareiss with
    # its ring's pivot size (det packs its blocks of 3 rows into ints, and
    # keeps its 2 x 2 blocks in the Laurent ring), and neither writes its
    # argument
    seen = []
    bareiss = polymatrix._bareiss

    def counting_bareiss(m, size, update):
        seen.append((len(m), size))
        return bareiss(m, size, update)

    monkeypatch.setattr(polymatrix, "_bareiss", counting_bareiss)
    cases = (([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 0, [3]),
             ([[2, 1, 0, 0, 5], [1, 3, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1],
               [0, 0, 1, 2, 1]], 0, [2, 3]),
             ([[0, 1, 2], [1, 3, 4], [2, 1, 1]], -3, [3]))
    for rows, want, blocks in cases:
        kept = [row[:] for row in rows]
        del seen[:]
        got = integer_det(rows)
        assert type(got) is int and got == want and rows == kept
        assert seen == [(b, int.bit_length) for b in blocks]
        a = PolyMatrix(rows)
        del seen[:]
        got = a.det()
        assert type(got) is LaurentPoly and got == LaurentPoly.const(want)
        assert a == PolyMatrix(kept)
        assert seen == [(b, len if b == 2 else int.bit_length) for b in blocks]


def test_dense_det_matches_the_oracle_without_the_split(monkeypatch):
    # a matrix with no zero entry is one strongly connected block, so det
    # takes it whole and never builds the split
    def no_split(rows):
        raise AssertionError("the split ran on a dense matrix")

    monkeypatch.setattr(polymatrix, "_strong_components", no_split)
    rng = random.Random(2201)
    for n in range(1, 7):
        for _ in range(8):
            rows = [[ZERO] * n for _ in range(n)]
            for row in rows:
                for j in range(n):
                    while not row[j]:
                        row[j] = random_poly_matrix(rng, 1, lo=-1)[0, 0]
            a = PolyMatrix(rows)
            assert a.det() == diagonal_bareiss_det(a), a


def test_inverse_matches_cayley_hamilton_on_random_unit_det_matrices():
    rng = random.Random(2202)
    for k in range(84):
        a = random_unit_det_matrix(rng, 1 + k % 7)
        assert a.inverse() == cayley_hamilton_inverse(a), a


def test_inverse_errors_match_the_cayley_hamilton_oracle():
    # a non-unit determinant is shown as (-1)^n det whatever rows the
    # elimination pivots on, and a singular matrix fails as such
    rng = random.Random(2203)
    for k in range(40):
        n = 1 + k % 5
        rows = [row[:] for row in random_unit_det_matrix(rng, n).data]
        rng.shuffle(rows)
        i = rng.randrange(n)
        if k % 2 or n == 1:
            factor = rng.choice((2 * ONE, T + 2, T - Q, ZERO))
            rows[i] = [x * factor for x in rows[i]]
        else:
            rows[i] = list(rows[(i + 1) % n])
        a = PolyMatrix(rows)
        with pytest.raises(ArithmeticError) as got:
            a.inverse()
        with pytest.raises(ArithmeticError) as want:
            cayley_hamilton_inverse(a)
        assert str(got.value) == str(want.value)
