import random

import pytest

from braidrep import reps
from braidrep.braid import BraidWord, check_braid_relations
from braidrep.laurent import (ONE, Q, T, ZERO, LaurentPoly, parse_poly,
                              q_binomial)
from braidrep.polymatrix import (PolyMatrix, char_poly, char_poly_from_roots,
                                 sym_basis, sym_power)
from oracles import change_of_basis_blocks, inverse_qpascal_sigma2, table_burau_reduced


def mat(rows):
    return PolyMatrix([[parse_poly(e) if isinstance(e, str) else LaurentPoly.coerce(e)
                        for e in r] for r in rows])


# ----------------------------------------------------------------------
# Burau


def test_unreduced_burau_matrices():
    b3 = reps.burau_unreduced(3)
    assert b3.gen_images[0] == mat([["1 - t", "t", "0"],
                                    ["1", "0", "0"],
                                    ["0", "0", "1"]])
    assert b3.gen_images[1] == mat([["1", "0", "0"],
                                    ["0", "1 - t", "t"],
                                    ["0", "1", "0"]])


def test_reduced_burau_standard_form():
    r = reps.burau_reduced(4, "standard")
    assert r.gen_images[0] == mat([["-t", "0", "0"], ["-1", "1", "0"], ["0", "0", "1"]])
    assert r.gen_images[1] == mat([["1", "-t", "0"], ["0", "-t", "0"], ["0", "-1", "1"]])
    assert r.gen_images[2] == mat([["1", "0", "0"], ["0", "1", "-t"], ["0", "0", "-t"]])


def test_reduced_burau_conjugated_form():
    r = reps.burau_reduced(4, "conjugated")
    assert r.gen_images[0] == mat([["-t", "t", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    assert r.gen_images[1] == mat([["1", "0", "0"], ["1", "-t", "t"], ["0", "0", "1"]])
    assert r.gen_images[2] == mat([["1", "0", "0"], ["0", "1", "0"], ["0", "1", "-t"]])


@pytest.mark.parametrize("n", range(2, 17))
def test_reduced_burau_is_the_first_quantized_power(n):
    conjugated = reps.burau_reduced(n, "conjugated").gen_images
    assert conjugated == reps._quantized_sym_gens(n, 1)
    d = PolyMatrix.diagonal([(-T) ** -j for j in range(n - 1)])
    d_inv = PolyMatrix.diagonal([(-T) ** j for j in range(n - 1)])
    standard = reps.burau_reduced(n, "standard").gen_images
    assert standard == [d * g.transpose() * d_inv for g in conjugated]
    assert conjugated == table_burau_reduced(n, "conjugated")
    assert standard == table_burau_reduced(n, "standard")


def test_reduced_burau_two_strands():
    assert reps.burau_reduced(2).gen_images[0] == mat([["-t"]])
    assert reps.burau_reduced(2, "conjugated").gen_images[0] == mat([["-t"]])


def test_reduced_burau_word_image():
    r = reps.burau_reduced(3, "conjugated")
    assert r.image("1 2 2 2") == mat([["t^3 - t^2", "-t^4"],
                                      ["t^2 - t + 1", "-t^3"]])


def test_sigma_accessor():
    r = reps.burau_reduced(3)
    assert r.sigma(1) == r.gen_images[0]
    assert r.sigma(-1) == r.gen_images[0].inverse()
    with pytest.raises(ValueError):
        r.sigma(0)
    with pytest.raises(ValueError):
        r.sigma(3)


WORD_INVERSE_CASES = {
    "burau_unreduced(4)": lambda: reps.burau_unreduced(4),
    "burau_reduced(4,standard)": lambda: reps.burau_reduced(4, "standard"),
    "burau_reduced(4,conjugated)": lambda: reps.burau_reduced(4, "conjugated"),
    "lk(4)": lambda: reps.lk(4),
    "sym2_quantized(4)": lambda: reps.sym2_quantized(4),
    "qpascal(t^2,-t,1)": lambda: reps.qpascal_rep([parse_poly("t^2"), -T, ONE]),
    "lie_rep(strands=4)": lambda: reps.lie_rep(strands=4),
    "lie_rep(power=3)": lambda: reps.lie_rep(power=3),
}


@pytest.mark.parametrize("build", WORD_INVERSE_CASES.values(), ids=WORD_INVERSE_CASES.keys())
def test_word_image_times_inverse_word_image_is_identity(build):
    rep = build()
    rng = random.Random(2024)
    eye = PolyMatrix.identity(rep.dim)
    for _ in range(6):
        letters = [rng.choice((-1, 1)) * rng.randint(1, rep.strands - 1)
                   for _ in range(rng.randint(1, 7))]
        w = BraidWord(rep.strands, letters)
        assert reps.image_of_word(rep, w) * reps.image_of_word(rep, w.inverse()) == eye, w


def test_inverses_are_computed_only_for_inverse_letters(monkeypatch):
    calls = []
    inverse = PolyMatrix.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(PolyMatrix, "inverse", counted)
    rep = reps.lk(4)
    reps.burau_reduced(5)
    reps.qpascal_rep([(-T) ** (16 - r) for r in range(17)])
    reps.qpascal_sigma2(16)
    assert len(calls) == 0
    # sigma_2^-1 twice and sigma_1^-1 once: one inversion per distinct letter
    reps.image_of_word(rep, "1 -2 -2 -1 3")
    assert len(calls) == 2
    # the representation keeps the inverses it computed
    assert reps.image_of_word(rep, "-1 -2 2 -2") == reps.image_of_word(rep, "-1 -2")
    assert len(calls) == 2
    assert rep.sigma(-1) * rep.sigma(1) == PolyMatrix.identity(rep.dim)
    assert len(calls) == 2


def test_singular_generator_fails_only_when_inverted():
    g = mat([["1", "1"], ["1", "1"]])
    rep = reps.Representation(2, [g], "singular")
    assert rep.image("1 1 1") == g * g * g
    with pytest.raises(ArithmeticError, match="singular over the Laurent ring"):
        rep.sigma(-1)
    with pytest.raises(ArithmeticError, match="singular over the Laurent ring"):
        rep.image("1 -1")
    # a failed inversion is not kept: each request raises again
    with pytest.raises(ArithmeticError, match="singular over the Laurent ring"):
        rep.sigma(-1)


def test_burau_determinant_is_minus_t():
    for n in (2, 3, 4, 5):
        for g in reps.burau_unreduced(n).gen_images:
            assert g.det() == -T


# ----------------------------------------------------------------------
# Lawrence-Krammer


def test_lk_three_strands():
    k3 = reps.lk(3, "new")
    assert k3.gen_images[0] == mat([["t^2*q", "0", "t^2 - t"],
                                    ["0", "0", "t"],
                                    ["0", "1", "1 - t"]])
    assert k3.gen_images[1] == mat([["0", "t", "0"],
                                    ["1", "1 - t", "0"],
                                    ["0", "t^2*q - t*q", "t^2*q"]])


def test_lk_four_strands():
    k4 = reps.lk(4, "new")
    assert k4.gen_images[0] == mat([
        ["t^2*q", "0", "t^2 - t", "0", "t^2 - t", "0"],
        ["0", "0", "t", "0", "0", "0"],
        ["0", "1", "1 - t", "0", "0", "0"],
        ["0", "0", "0", "0", "t", "0"],
        ["0", "0", "0", "1", "1 - t", "0"],
        ["0", "0", "0", "0", "0", "1"]])
    assert k4.gen_images[1] == mat([
        ["0", "t", "0", "0", "0", "0"],
        ["1", "1 - t", "0", "0", "0", "0"],
        ["0", "t^2*q - t*q", "t^2*q", "0", "0", "t^2 - t"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "t"],
        ["0", "0", "0", "0", "1", "1 - t"]])
    assert k4.gen_images[2] == mat([
        ["1", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "t", "0", "0"],
        ["0", "0", "0", "0", "t", "0"],
        ["0", "1", "0", "1 - t", "0", "0"],
        ["0", "0", "1", "0", "1 - t", "0"],
        ["0", "0", "0", "t^2*q - t*q", "t^2*q - t*q", "t^2*q"]])


def test_lk_five_strands_interior_generator():
    k5 = reps.lk(5, "new")
    assert k5.gen_images[2] == mat([
        ["1", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "t", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "t", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "1 - t", "0", "0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "1 - t", "0", "0", "0", "0", "0"],
        ["0", "0", "0", "t^2*q - t*q", "t^2*q - t*q", "t^2*q", "0", "0", "0", "t^2 - t"],
        ["0", "0", "0", "0", "0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "0", "0", "0", "t"],
        ["0", "0", "0", "0", "0", "0", "0", "0", "1", "1 - t"]])


def test_lk_two_strand_edge():
    assert reps.lk(2, "new").gen_images[0] == mat([["t^2*q"]])
    assert reps.lk(2, "bigelow").gen_images[0] == mat([["-t*q^2"]])


def test_lk_basis_order():
    assert reps.lk_basis(4) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_parameter_swap_bridges_the_two_notations(n):
    assert reps.bigelow_to_new_bridge(n).passed


# ----------------------------------------------------------------------
# quantized symmetric square


def test_sym2_quantized_three_strands():
    s3 = reps.sym2_quantized(3)
    assert s3.gen_images[0] == mat([["t^2*q", "-t^2*q - t^2", "t^2"],
                                    ["0", "-t", "t"],
                                    ["0", "0", "1"]])
    assert s3.gen_images[1] == mat([["1", "0", "0"],
                                    ["1", "-t", "0"],
                                    ["1", "-t*q - t", "t^2*q"]])


def test_sym2_quantized_four_strands():
    s4 = reps.sym2_quantized(4)
    assert s4.gen_images[0] == mat([
        ["t^2*q", "-t^2*q - t^2", "t^2", "0", "0", "0"],
        ["0", "-t", "t", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "-t", "t", "0"],
        ["0", "0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "0", "1"]])
    assert s4.gen_images[1] == mat([
        ["1", "0", "0", "0", "0", "0"],
        ["1", "-t", "0", "t", "0", "0"],
        ["1", "-t*q - t", "t^2*q", "t*q + t", "-t^2*q - t^2", "t^2"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "1", "-t", "t"],
        ["0", "0", "0", "0", "0", "1"]])
    assert s4.gen_images[2] == mat([
        ["1", "0", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0", "0"],
        ["0", "1", "0", "-t", "0", "0"],
        ["0", "0", "1", "0", "-t", "0"],
        ["0", "0", "1", "0", "-t*q - t", "t^2*q"]])


def test_sym2_quantized_needs_three_strands():
    with pytest.raises(ValueError):
        reps.sym2_quantized(2)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_sym2_quantized_classical_limit(n):
    # at q = 1 every generator is the plain symmetric square of the
    # conjugated reduced Burau matrix
    quantum = reps.sym2_quantized(n)
    classical = reps.burau_reduced(n, "conjugated")
    for gq, gc in zip(quantum.gen_images, classical.gen_images):
        at_q1 = gq.substitute(T, ONE)
        assert at_q1 == sym_power(gc, 2)


# ----------------------------------------------------------------------
# change of basis


def test_change_of_basis_three_strands():
    c, cinv = reps.change_of_basis(3)
    assert c == mat([["1", "-1", "0"], ["0", "1", "0"], ["0", "-1", "1"]])
    assert cinv == mat([["1", "1", "0"], ["0", "1", "0"], ["0", "1", "1"]])


def test_change_of_basis_four_strands():
    c, cinv = reps.change_of_basis(4)
    assert c == mat([
        ["1", "-1", "0", "0", "0", "0"],
        ["0", "1", "0", "-1", "0", "0"],
        ["0", "-1", "1", "1", "-1", "0"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "-1", "1", "0"],
        ["0", "0", "0", "0", "-1", "1"]])
    assert cinv == mat([
        ["1", "1", "0", "1", "0", "0"],
        ["0", "1", "0", "1", "0", "0"],
        ["0", "1", "1", "1", "1", "0"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "1", "1", "0"],
        ["0", "0", "0", "1", "1", "1"]])


def test_change_of_basis_inverse_five_strands():
    # columns of the inverse record which e^s_(k,r) sum to w_(i,j)
    _, cinv = reps.change_of_basis(5)
    assert cinv == mat([
        ["1", "1", "0", "1", "0", "0", "1", "0", "0", "0"],
        ["0", "1", "0", "1", "0", "0", "1", "0", "0", "0"],
        ["0", "1", "1", "1", "1", "0", "1", "1", "0", "0"],
        ["0", "0", "0", "1", "0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "1", "1", "0", "1", "1", "0", "0"],
        ["0", "0", "0", "1", "1", "1", "1", "1", "1", "0"],
        ["0", "0", "0", "0", "0", "0", "1", "0", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "1", "1", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "1", "1", "1", "0"],
        ["0", "0", "0", "0", "0", "0", "1", "1", "1", "1"]])


@pytest.mark.parametrize("n", range(3, 9))
def test_change_of_basis_pair_is_inverse(n):
    c, cinv = reps.change_of_basis(n)
    dim = (n - 1) * n // 2
    assert c * cinv == PolyMatrix.identity(dim)
    assert cinv * c == PolyMatrix.identity(dim)


@pytest.mark.parametrize("n", range(3, 9))
def test_change_of_basis_block_form_matches_columns(n):
    assert change_of_basis_blocks(n) == reps.change_of_basis(n)


def five_strand_near_miss():
    """The matrix differing from C_5 in three entries of the last block column.

    It looks like a change of basis but is not inverse to the summation
    matrix and does not intertwine the two representations.
    """
    c, cinv = reps.change_of_basis(5)
    wrong = [row[:] for row in c.data]
    wrong[1][6] = -ONE   # row (1,2), column (1,4)
    wrong[2][6] = ONE    # row (2,2), column (1,4)
    wrong[2][7] = -ONE   # row (2,2), column (2,4)
    return PolyMatrix(wrong), c, cinv


def test_near_miss_basis_change_is_detected():
    wrong, c, cinv = five_strand_near_miss()
    diff = [(i, j) for i in range(10) for j in range(10)
            if wrong[i, j] != c[i, j]]
    assert diff == [(1, 6), (2, 6), (2, 7)]
    assert wrong * cinv != PolyMatrix.identity(10)
    s5 = reps.sym2_quantized(5)
    k5 = reps.lk(5, "new")
    mismatches = [i for i in range(4)
                  if wrong * s5.gen_images[i] != k5.gen_images[i] * wrong]
    assert mismatches, "the altered matrix should fail to intertwine"


# ----------------------------------------------------------------------
# the central equivalence and spectra


@pytest.mark.parametrize("n", (3, 4, 5))
def test_lk_is_conjugated_quantized_symmetric_square(n):
    assert reps.verify_lk_equivalence(n).passed


def test_conjugation_reproduces_lk_entrywise():
    c, cinv = reps.change_of_basis(3)
    s3 = reps.sym2_quantized(3)
    k3 = reps.lk(3, "new")
    for i in (0, 1):
        assert c * s3.gen_images[i] * cinv == k3.gen_images[i]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_generator_spectra(n):
    assert reps.verify_spectrum(n).passed


def test_lk_sigma1_char_poly_fixture():
    k4 = reps.lk(4, "new")
    want = char_poly_from_roots([T ** 2 * Q, -T, -T, ONE, ONE, ONE])
    assert char_poly(k4.gen_images[0]) == want


def test_sym2_sigma1_char_poly_fixture():
    s4 = reps.sym2_quantized(4)
    want = char_poly_from_roots([T ** 2, -T, -T, ONE, ONE, ONE])
    assert char_poly(s4.gen_images[0].substitute(T, ONE)) == want


# ----------------------------------------------------------------------
# stability and the exterior square


@pytest.mark.parametrize("n", (3, 4))
def test_stability(n):
    assert reps.verify_stability(n).passed


def test_ext_square():
    assert reps.verify_ext_square().passed


# ----------------------------------------------------------------------
# q-Pascal representations


def test_pascal_triangle_matrices():
    assert reps.qpascal_sigma1(2).substitute(T, ONE) == mat([
        ["1", "2", "1"], ["0", "1", "1"], ["0", "0", "1"]])
    assert reps.qpascal_sigma1(3).substitute(T, ONE) == mat([
        ["1", "3", "3", "1"], ["0", "1", "2", "1"],
        ["0", "0", "1", "1"], ["0", "0", "0", "1"]])


def test_q_pascal_top_row():
    row0 = reps.qpascal_sigma1(4).data[0]
    assert row0[0] == ONE and row0[4] == ONE
    assert row0[1] == parse_poly("q^3 + q^2 + q + 1")
    assert row0[2] == parse_poly("q^4 + q^3 + 2*q^2 + q + 1")
    assert row0[3] == parse_poly("q^3 + q^2 + q + 1")


def test_qpascal_sigma2_entry_formula():
    s2m = reps.qpascal_sigma2(3)
    for k in range(4):
        for m in range(4):
            if m <= k:
                c = q_binomial(k, m).substitute(T, Q ** -1).num
                e = (k - m) * (k - m - 1) // 2
                expect = c.times_term(1 if (k + m) % 2 == 0 else -1, 0, -e)
                assert s2m.data[k][m] == expect
            else:
                assert s2m.data[k][m] == ZERO


@pytest.mark.parametrize("n", range(1, 13))
def test_qpascal_sigma2_matches_the_inverse_route(n):
    assert reps.qpascal_sigma2(n) == inverse_qpascal_sigma2(n)


def test_qpascal_sigma2_diagonal_conjugation_is_signed_binomial():
    d3 = reps.qpascal_dmatrix(3)
    clean = d3 * reps.qpascal_sigma2(3) * d3.inverse()
    for k in range(4):
        for m in range(4):
            if m <= k:
                sign = 1 if (k + m) % 2 == 0 else -1
                assert clean.data[k][m] == q_binomial(k, m).times_term(sign)
            else:
                assert clean.data[k][m] == ZERO


def test_two_dimensional_twisted_rep():
    l0, l1 = parse_poly("-t"), ONE
    rep = reps.qpascal_rep([l0, l1])
    assert rep.gen_images[0] == PolyMatrix([[l0, l1], [ZERO, l1]])
    assert rep.gen_images[1] == PolyMatrix([[l1, ZERO], [-l0, l0]])


def test_three_dimensional_twisted_rep():
    l0, l1, l2 = parse_poly("t^2"), parse_poly("-t"), ONE
    rep = reps.qpascal_rep([l0, l1, l2])
    assert rep.gen_images[0] == PolyMatrix([
        [l0 * Q, (1 + Q) * l1, l2], [ZERO, l1, l2], [ZERO, ZERO, l2]])
    assert rep.gen_images[1] == PolyMatrix([
        [l2, ZERO, ZERO], [-l1, l1, ZERO], [l0, -l0 * (1 + Q), l0 * Q]])


def test_sharp_form_matches_quantized_symmetric_square():
    rep = reps.qpascal_rep([parse_poly("t^2"), parse_poly("-t"), ONE], form="sharp")
    s3 = reps.sym2_quantized(3)
    assert rep.gen_images[0] == s3.gen_images[0]
    assert rep.gen_images[1] == s3.gen_images[1]


# ----------------------------------------------------------------------
# the quantized symmetric power S^p_q of reduced Burau


def test_transvection_q_at_q1_is_the_symmetric_power():
    # the reference is sym_power's product-of-linear-forms expansion
    rng = random.Random(20261018)
    for _ in range(60):
        m = rng.randint(2, 4)
        i, j = rng.sample(range(m), 2)
        s = rng.choice((ONE, -ONE, T, -T))
        p = rng.randint(0, 5)
        shear = PolyMatrix.identity(m)
        shear.data[i][j] = s
        quantum = reps._transvection_q(m, i, j, s, p)
        assert quantum.substitute(T, ONE) == sym_power(shear, p), (m, i, j, s, p)


@pytest.mark.parametrize("p", (1, 2, 3, 4))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_quantized_symmetric_power(n, p):
    gens = reps._quantized_sym_gens(n, p)
    assert check_braid_relations(reps.Representation(n, gens, "symq")).passed
    assert all(g.det().is_unit() for g in gens)
    classical = table_burau_reduced(n, "conjugated")
    assert [g.substitute(T, ONE) for g in gens] == [sym_power(c, p) for c in classical]


def _slot_mutant(n, p):
    # scale the slots that hold the active index by q^(r-1) instead of q^C(r,2)
    gens = reps._quantized_sym_gens(n, p)
    basis = sym_basis(n - 1, p)
    out = []
    for k, g in enumerate(gens):
        exps = [max(tup.count(k) - 1, 0) - tup.count(k) * (tup.count(k) - 1) // 2
                for tup in basis]
        out.append(g * PolyMatrix.diagonal([Q ** e for e in exps]))
    return out


@pytest.mark.parametrize("n", (3, 4))
def test_slot_exponent_mutant_breaks_the_braid_relations(n):
    # r - 1 and C(r, 2) agree for r <= 2, so the mutant differs only from p = 3 on
    assert _slot_mutant(n, 2) == reps._quantized_sym_gens(n, 2)
    for p in (3, 4):
        mutant = reps.Representation(n, _slot_mutant(n, p), "mutant")
        assert not check_braid_relations(mutant).passed, p


@pytest.mark.parametrize("p", range(1, 8))
def test_qpascal_family_is_the_three_strand_quantized_power(p):
    lam = [(-T) ** (p - r) for r in range(p + 1)]
    sharp = reps.qpascal_rep(lam, form="sharp")
    assert sharp.gen_images == reps._quantized_sym_gens(3, p)


LAMBDA_SPECS = (
    ["-t", "1"],
    ["t^2", "-t", "1"],
    ["-t^3", "q*t^2", "-q^-1*t", "1"],
    ["t^4", "-t^3", "t^2", "-t", "1"],
    ["-t^5", "t^4", "-t^3", "t^2", "-t", "1"],
    ["t^6", "-t^5", "t^4", "-t^3", "t^2", "-t", "1"],
    ["-t^7", "t^6", "-t^5", "t^4", "-t^3", "t^2", "-t", "1"],
)


@pytest.mark.parametrize("spec", LAMBDA_SPECS, ids=[str(len(s)) for s in LAMBDA_SPECS])
def test_qpascal_braid_relations(spec):
    lam = [parse_poly(s) for s in spec]
    for form in ("standard", "sharp"):
        assert check_braid_relations(reps.qpascal_rep(lam, form)).passed


def test_unbalanced_diagonal_rejected():
    with pytest.raises(ValueError) as e:
        reps.qpascal_rep([T, ONE, ONE])
    assert "unbalanced" in str(e.value)
    with pytest.raises(ValueError):
        reps.validate_lambda([T + ONE, ONE])


def test_unbalanced_diagonal_really_breaks_the_relation():
    # the rejected data genuinely fails: assembling the matrices anyway
    # gives sigma1 sigma2 sigma1 != sigma2 sigma1 sigma2
    lam = PolyMatrix.diagonal([T, ONE, ONE])
    d = reps.qpascal_dmatrix(2)
    s1 = reps.qpascal_sigma1(2) * d.sharp() * lam
    s2 = lam.sharp() * d * reps.qpascal_sigma2(2)
    assert s1 * s2 * s1 != s2 * s1 * s2


def test_humphry_powers():
    assert reps.verify_humphry(7).passed


@pytest.mark.parametrize("max_power", (0, -1))
def test_humphry_without_powers_is_rejected(max_power):
    with pytest.raises(ValueError, match="max_power >= 1"):
        reps.verify_humphry(max_power)


# ----------------------------------------------------------------------
# representations from Lie data


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_natural_lie_data_gives_reduced_burau(n):
    lie = reps.lie_rep(strands=n)
    ref = reps.burau_reduced(n, "conjugated")
    assert lie.gen_images == ref.gen_images


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5))
def test_sl2_power_braid_relations(m):
    assert check_braid_relations(reps.lie_rep(power=m)).passed


def test_sl2_power_data_shape():
    es, xs, ys = reps.sl2_symmetric_power_data(3)
    assert es[0] == [3, 2, 1, 0] and es[1] == [0, 1, 2, 3]
    assert xs[0] == mat([["0", "3", "0", "0"], ["0", "0", "2", "0"],
                         ["0", "0", "0", "1"], ["0", "0", "0", "0"]])
    assert ys[0] == mat([["0", "0", "0", "0"], ["1", "0", "0", "0"],
                         ["0", "2", "0", "0"], ["0", "0", "3", "0"]])


def test_lie_cartan_elements_as_matrices():
    es, xs, ys = reps.natural_lie_data(3)
    as_matrices = [PolyMatrix.diagonal(e) for e in es]
    assert (reps.braid_from_lie_rep(as_matrices, xs, ys, 3).gen_images
            == reps.lie_rep(strands=3).gen_images)
    for bad in (PolyMatrix.diagonal([T, ONE]), mat([["1", "1"], ["0", "0"]])):
        with pytest.raises(ValueError):
            reps.braid_from_lie_rep([bad, as_matrices[1]], xs, ys, 3)


# ----------------------------------------------------------------------
# braid relations across constructors


@pytest.mark.parametrize("build", (
    lambda: reps.burau_unreduced(5),
    lambda: reps.burau_reduced(5, "standard"),
    lambda: reps.burau_reduced(5, "conjugated"),
    lambda: reps.lk(4, "new"),
    lambda: reps.lk(4, "bigelow"),
    lambda: reps.sym2_quantized(4),
), ids=("burau5", "reduced5", "conjugated5", "lk4", "lk4big", "sym2q4"))
def test_braid_relations(build):
    assert check_braid_relations(build()).passed


# ----------------------------------------------------------------------
# specific word images under the quantized symmetric square


def test_two_letter_word_image():
    s3 = reps.sym2_quantized(3)
    assert s3.image("1 2") == mat([["0", "0", "t^4*q"],
                                   ["0", "-t^2*q", "t^3*q"],
                                   ["1", "-t*q - t", "t^2*q"]])


def test_trefoil_with_tail_word_image():
    s3 = reps.sym2_quantized(3)
    a = s3.image("1 1 1 2")
    assert a.data[0] == [
        parse_poly("t^4*q - t^3*q - t^3 + t^2"),
        parse_poly("t^6*q^3 + t^6*q^2 - 2*t^5*q^2 - 2*t^5*q + t^4*q^2 + 2*t^4*q + t^4 - t^3*q - t^3"),
        parse_poly("t^8*q^3 - t^7*q^3 - t^7*q^2 + 2*t^6*q^2 + t^6*q - t^5*q^2 - t^5*q + t^4*q")]
    assert a.data[1] == [
        parse_poly("-t^2 + t"),
        parse_poly("-t^4*q + t^3*q + t^3 - t^2*q - t^2"),
        parse_poly("t^5*q - t^4*q + t^3*q")]
    assert a.data[2] == [parse_poly("1"), parse_poly("-t*q - t"), parse_poly("t^2*q")]
