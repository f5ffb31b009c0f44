"""Acceptance gate: one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Everything here is symbolic identity over Z[t^+-1, q^+-1];
there are no tolerances anywhere.

Two checks deliberately pin down near-miss variants of intermediate values
(a three-entry variant of the five strand change of basis, and a determinant
expression with a spurious middle term).  Both variants look plausible but
are refuted by machine check, and the refutation is part of the gate: the
suite asserts exactly where the variant breaks and that the computed value
satisfies the defining identities the variant fails.
"""

import random

import pytest

from braidrep import invariants as inv
from braidrep import reps
from braidrep.braid import BraidWord, check_braid_relations
from braidrep.laurent import (ONE, PolyFraction, Q, T, LaurentPoly, exact_div,
                              parse_poly)
from braidrep.polymatrix import (PolyMatrix, char_poly, char_poly_from_roots, ext_power,
                                 sym_power)
from oracles import (bigelow_to_new_bridge, change_of_basis_blocks, cofactor_char_poly,
                     generalized_char_poly)

W = BraidWord


def mat(rows):
    return PolyMatrix([[parse_poly(e) if isinstance(e, str) else LaurentPoly.coerce(e)
                        for e in r] for r in rows])


TWISTED_LAMBDAS = {
    2: ["-t", "1"],
    3: ["t^2", "-t", "1"],
    4: ["-t^3", "q*t^2", "-q^-1*t", "1"],
    5: ["t^4", "-t^3", "t^2", "-t", "1"],
}


def lambda_family(dim):
    if dim in TWISTED_LAMBDAS:
        return [parse_poly(s) for s in TWISTED_LAMBDAS[dim]]
    # lambda_r = (-t)^(n-r) is balanced for every dimension
    n = dim - 1
    return [(-T) ** (n - r) for r in range(dim)]


def test_c01_braid_relations_all_constructors():
    built = []
    for n in range(2, 7):
        built.append(reps.burau_unreduced(n))
        built.append(reps.burau_reduced(n, "standard"))
        built.append(reps.burau_reduced(n, "conjugated"))
        built.append(reps.lk(n, "new"))
        built.append(reps.lk(n, "bigelow"))
        if n >= 3:
            built.append(reps.sym2_quantized(n))
    for dim in range(2, 9):
        for form in ("standard", "sharp"):
            built.append(reps.qpascal_rep(lambda_family(dim), form))
    for m in range(1, 6):
        built.append(reps.lie_rep(power=m))
    for rep in built:
        report = check_braid_relations(rep)
        if rep.strands == 2:
            # B_2 has no relations: the report has no cases, so it does not pass
            assert not report.entries and not report.passed, rep.label
        else:
            assert report.passed, "%s\n%s" % (rep.label, report)


def test_c02_lk_equals_conjugated_quantized_symmetric_square():
    for n in (3, 4, 5, 6):
        report = reps.verify_lk_equivalence(n)
        assert report.passed, str(report)
    # entry-exact displays for the small cases
    k3 = reps.lk(3, "new")
    assert k3.gen_images[0] == mat([["t^2*q", "0", "t^2 - t"],
                                    ["0", "0", "t"],
                                    ["0", "1", "1 - t"]])
    assert k3.gen_images[1] == mat([["0", "t", "0"],
                                    ["1", "1 - t", "0"],
                                    ["0", "t^2*q - t*q", "t^2*q"]])
    k4 = reps.lk(4, "new")
    assert k4.gen_images[1] == mat([
        ["0", "t", "0", "0", "0", "0"],
        ["1", "1 - t", "0", "0", "0", "0"],
        ["0", "t^2*q - t*q", "t^2*q", "0", "0", "t^2 - t"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "t"],
        ["0", "0", "0", "0", "1", "1 - t"]])
    k5 = reps.lk(5, "new")
    assert k5.gen_images[2][5, 3] == parse_poly("t^2*q - t*q")
    assert k5.gen_images[2][5, 9] == parse_poly("t^2 - t")
    # and the conjugation reproduces them generator by generator
    for n in (3, 4, 5):
        c, cinv = reps.change_of_basis(n)
        s = reps.sym2_quantized(n)
        k = reps.lk(n, "new")
        for a, b in zip(s.gen_images, k.gen_images):
            assert c * a * cinv == b


def test_c03_change_of_basis_closed_forms():
    c3, _ = reps.change_of_basis(3)
    assert c3 == mat([["1", "-1", "0"], ["0", "1", "0"], ["0", "-1", "1"]])
    c4, _ = reps.change_of_basis(4)
    assert c4 == mat([
        ["1", "-1", "0", "0", "0", "0"],
        ["0", "1", "0", "-1", "0", "0"],
        ["0", "-1", "1", "1", "-1", "0"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "-1", "1", "0"],
        ["0", "0", "0", "0", "-1", "1"]])
    for n in range(3, 9):
        c, cinv = reps.change_of_basis(n)
        dim = n * (n - 1) // 2
        assert c * cinv == PolyMatrix.identity(dim)
        assert cinv * c == PolyMatrix.identity(dim)
        assert change_of_basis_blocks(n) == (c, cinv)
    # definitive verdict on the five strand matrix: the variant carrying
    # three extra entries in the (1,4)/(2,4) columns is NOT a change of
    # basis (not inverse to the summation matrix, does not intertwine),
    # while the computed matrix satisfies both defining identities
    c5, c5inv = reps.change_of_basis(5)
    variant = [row[:] for row in c5.data]
    variant[1][6] = -ONE
    variant[2][6] = ONE
    variant[2][7] = -ONE
    variant = PolyMatrix(variant)
    diff = [(i, j) for i in range(10) for j in range(10)
            if variant[i, j] != c5[i, j]]
    assert diff == [(1, 6), (2, 6), (2, 7)]
    assert variant * c5inv != PolyMatrix.identity(10)
    s5 = reps.sym2_quantized(5)
    k5 = reps.lk(5, "new")
    assert any(variant * s5.gen_images[i] != k5.gen_images[i] * variant
               for i in range(4))
    for i in range(4):
        assert c5 * s5.gen_images[i] * c5inv == k5.gen_images[i]


def test_c04_generator_spectra():
    for n in (3, 4, 5, 6):
        assert reps.verify_spectrum(n).passed
        m = (n - 1) * (n - 2) // 2
        k = reps.lk(n, "new")
        roots = [T ** 2 * Q] + [-T] * (n - 2) + [ONE] * m
        assert char_poly(k.gen_images[0]) == char_poly_from_roots(roots)
        s = reps.sym2_quantized(n).gen_images[0].substitute(T, ONE)
        roots = [T ** 2] + [-T] * (n - 2) + [ONE] * m
        assert char_poly(s) == char_poly_from_roots(roots)


def test_c05_trefoil_fixtures():
    trefoil2 = W.parse("1 1 1", 2)
    assert inv.alexander(trefoil2).normalized == parse_poly("t^2 - t + 1")
    assert inv.alexander(W.parse("1 2 2 2", 3)).normalized == parse_poly("t^2 - t + 1")
    k2 = inv.krammer_fraction(trefoil2)
    assert k2.collapsed == parse_poly("t^4*q^2 - t^2*q + 1")
    # three strand closure: numerator and denominator determinants
    sweep = reps.image_of_word(reps.lk(3, "new"), W.parse("1 2", 3))
    det1 = (sweep - PolyMatrix.identity(3)).det()
    assert det1 == parse_poly("t^6*q^2 - 1")
    word_img = reps.image_of_word(reps.lk(3, "new"), W.parse("1 1 1 2", 3))
    det2 = (word_img - PolyMatrix.identity(3)).det()
    assert det2 == parse_poly("t^12*q^4 - 1")
    # definitive verdict on the determinant: the variant expression with a
    # middle term differs from the computed determinant by a nonzero
    # polynomial that vanishes at q=1 and at t=1 (so the specialization
    # checks below cannot see it), and fails the product factorization
    variant = parse_poly("t^12*q^4 - 1") - parse_poly("t^6*q") * \
        (ONE - Q) * (ONE - T) * (ONE - T * Q)
    gap = variant - det2
    assert not gap.is_zero()
    assert gap == -parse_poly("t^6*q") * (ONE - Q) * (ONE - T) * (ONE - T * Q)
    assert gap.eval_rational(1, 7) == 0 and gap.eval_rational(7, 1) == 0
    assert det2 == (parse_poly("t^6*q^2") - ONE) * (parse_poly("t^6*q^2") + ONE)
    assert exact_div(variant, parse_poly("t^6*q^2 - 1")) is None
    k3 = inv.krammer_fraction(W.parse("1 1 1 2", 3))
    assert k3.fraction == PolyFraction(det2, det1)
    assert k3.collapsed == parse_poly("t^6*q^2 + 1")
    # specializations
    assert inv.specialize(k3, q_value=1) == PolyFraction.coerce(parse_poly("t^6 + 1"))
    assert inv.specialize(k3, t_value=1) == PolyFraction.coerce(parse_poly("q^2 + 1"))
    t6 = inv.specialize(k3, q_value=1)
    t2k2 = inv.specialize(k2, q_value=1) * PolyFraction.coerce(T ** 2 + ONE)
    assert t6 == t2k2
    # intermediate matrix entry-exact
    a = reps.sym2_quantized(3).image("1 1 1 2")
    assert a.data[0] == [
        parse_poly("t^4*q - t^3*q - t^3 + t^2"),
        parse_poly("t^6*q^3 + t^6*q^2 - 2*t^5*q^2 - 2*t^5*q + t^4*q^2 + 2*t^4*q + t^4 - t^3*q - t^3"),
        parse_poly("t^8*q^3 - t^7*q^3 - t^7*q^2 + 2*t^6*q^2 + t^6*q - t^5*q^2 - t^5*q + t^4*q")]
    assert a.data[1] == [
        parse_poly("-t^2 + t"),
        parse_poly("-t^4*q + t^3*q + t^3 - t^2*q - t^2"),
        parse_poly("t^5*q - t^4*q + t^3*q")]
    assert a.data[2] == [ONE, parse_poly("-t*q - t"), parse_poly("t^2*q")]


def test_c06_markov_conjugation_and_stabilization():
    rng = random.Random(31415926)
    for n in (3, 4):
        for _ in range(20):
            word = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                         for _ in range(rng.randint(1, 6))])
            g = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                      for _ in range(rng.randint(1, 4))])
            report = inv.markov1_test(word, [g])
            assert report.passed, "word %s conj %s\n%s" % (word, g, report)
    for _ in range(20):
        n = rng.randint(2, 3)
        word = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 5))])
        up = W(n + 1, list(word.letters) + [n])
        assert inv.alexander(word).normalized == inv.alexander(up).normalized


def test_c07_burau_stability():
    for n in (3, 4, 5, 6):
        report = reps.verify_stability(n)
        assert report.passed, str(report)


def test_c08_exterior_square():
    conj = reps.burau_reduced(4, "conjugated")
    wedge = [ext_power(g, 2) for g in conj.gen_images]
    assert wedge[0] == mat([["-t", "0", "0"], ["0", "-t", "t"], ["0", "0", "1"]])
    assert wedge[1] == mat([["-t", "t", "0"], ["0", "1", "0"], ["0", "1", "-t"]])
    assert wedge[2] == mat([["1", "0", "0"], ["1", "-t", "0"], ["0", "0", "-t"]])
    report = reps.verify_ext_square()
    assert report.passed, str(report)
    labels = [e[0] for e in report.entries]
    assert any("expected failure" in lab for lab in labels)
    assert any("char polys separate" in lab for lab in labels)


def test_c09_qpascal_family():
    # displayed triangular factors for dims 3..5
    assert reps.qpascal_sigma1(2) == mat([
        ["1", "q + 1", "1"], ["0", "1", "1"], ["0", "0", "1"]])
    assert reps.qpascal_sigma1(3) == mat([
        ["1", "q^2 + q + 1", "q^2 + q + 1", "1"],
        ["0", "1", "q + 1", "1"],
        ["0", "0", "1", "1"],
        ["0", "0", "0", "1"]])
    one_q_q2 = "q^3 + q^2 + q + 1"          # (1+q)(1+q^2)
    mid = "q^4 + q^3 + 2*q^2 + q + 1"       # (1+q^2)(1+q+q^2)
    assert reps.qpascal_sigma1(4) == mat([
        ["1", one_q_q2, mid, one_q_q2, "1"],
        ["0", "1", "q^2 + q + 1", "q^2 + q + 1", "1"],
        ["0", "0", "1", "q + 1", "1"],
        ["0", "0", "0", "1", "1"],
        ["0", "0", "0", "0", "1"]])
    # at q = 1 the triangular factor is the exponential of the raising
    # operator of the corresponding sl2 symmetric power
    assert reps.verify_humphry(7).passed
    # the twisted family satisfies the braid relations (checked in
    # criterion 1); the balance condition is necessary: violating it is
    # rejected, and the assembled matrices genuinely fail the relation
    with pytest.raises(ValueError):
        reps.qpascal_rep([T, ONE, ONE])
    lam = PolyMatrix.diagonal([T, ONE, ONE])
    d = reps.qpascal_dmatrix(2)
    s1 = reps.qpascal_sigma1(2) * d.sharp() * lam
    s2 = lam.sharp() * d * reps.qpascal_sigma2(2)
    assert s1 * s2 * s1 != s2 * s1 * s2


def test_c10_generalized_char_poly():
    rng = random.Random(271828)
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                p = LaurentPoly()
                for _ in range(rng.randint(0, 2)):
                    p = p + LaurentPoly.monomial(rng.randint(-3, 3),
                                                 rng.randint(0, 2),
                                                 rng.randint(0, 2))
                row.append(p)
            rows.append(row)
        c = PolyMatrix(rows)
        lam = [LaurentPoly.monomial(rng.choice((1, -1)),
                                    rng.randint(-2, 2), rng.randint(-2, 2))
               for _ in range(n)]
        direct = generalized_char_poly(c, lam)
        assert direct == (c + PolyMatrix.diagonal(lam)).det()
        assert direct == cofactor_char_poly(c, lam)


def test_c11_notation_bridge():
    # definitive verdict: the two parameter conventions agree exactly under
    # the stated substitution for every generator, n = 3..5 (no sign
    # discrepancy anywhere, row 4 included)
    for n in (3, 4, 5):
        report = bigelow_to_new_bridge(n)
        assert report.passed, str(report)
        assert len(report.entries) == n - 1
