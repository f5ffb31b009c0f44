import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.laurent import ONE, Q, T, ZERO, LaurentPoly, parse_poly
from braidrep.polymatrix import (PolyMatrix, char_poly, char_poly_from_roots,
                                 exp_nilpotent, ext_basis, ext_power,
                                 generalized_char_poly, sym_basis, sym_power,
                                 tensor_product)
from braidrep import reps
from braidrep.reps import lk
from oracles import cofactor_char_poly, minor_ext_power, permutation_sym_power


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


def test_transpose_sharp_substitute():
    a = m22(T, Q, ZERO, ONE)
    assert a.transpose()[0, 1] == ZERO
    s = a.sharp()
    assert s[0, 0] == ONE and s[1, 1] == T
    assert s[1, 0] == a[0, 1]
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
    with pytest.raises(ArithmeticError):
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
    assert PolyMatrix.from_json(a.to_json()) == a


def test_str_and_latex():
    a = m22(T, 0, 0, 1)
    assert str(a) == "[t, 0]\n[0, 1]"
    assert a.to_latex().startswith("\\begin{pmatrix}")
