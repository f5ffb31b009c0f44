import functools
import random

import pytest

from braidrep import reps
from braidrep.braid import BraidWord, check_braid_relations
from braidrep.laurent import (ONE, Q, T, ZERO, LaurentPoly, PolyFraction, parse_poly,
                              q_binomial, q_natural)
from braidrep.polymatrix import (PolyMatrix, char_poly, char_poly_from_roots,
                                 sym_basis, sym_power)
from oracles import (bigelow_to_new_bridge, cayley_hamilton_inverse, change_of_basis_blocks,
                     inverse_qpascal_sigma2, product_image_of_word, table_burau_reduced,
                     transpose, two_product_qpascal)


def mat(rows):
    return PolyMatrix([[parse_poly(e) if isinstance(e, str) else LaurentPoly.coerce(e)
                        for e in r] for r in rows])


def burau_weights(p):
    """Diagonal weights (-t)^r, r = 0..p, of the quantized p-th symmetric
    power of the conjugated reduced Burau representation."""
    return [(-T) ** r for r in range(p + 1)]


def balanced_lambdas(rng, p):
    """p + 1 random unit monomials with lambda_r * lambda_(p-r) constant."""
    c = (2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3))
    sign = 1 if p % 2 == 0 else rng.choice((1, -1))
    lam = [None] * (p + 1)
    for r in range(p // 2 + 1):
        a, b = (c[0] // 2, c[1] // 2) if 2 * r == p else (rng.randint(-4, 4), rng.randint(-4, 4))
        s = rng.choice((1, -1))
        lam[r] = LaurentPoly.monomial(s, a, b)
        lam[p - r] = LaurentPoly.monomial(s * sign, c[0] - a, c[1] - b)
    return lam


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
    assert conjugated == reps._quantized_sym_gens(n, burau_weights(1))
    d = PolyMatrix.diagonal([(-T) ** -j for j in range(n - 1)])
    d_inv = PolyMatrix.diagonal([(-T) ** j for j in range(n - 1)])
    standard = reps.burau_reduced(n, "standard").gen_images
    assert standard == [d * transpose(g) * d_inv for g in conjugated]
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
    # "1 -1" cancels before any matrix, so it inverts nothing; "1 -1 -1"
    # keeps an inverse letter
    assert rep.image("1 -1") == PolyMatrix.identity(2)
    with pytest.raises(ArithmeticError, match="singular over the Laurent ring"):
        rep.image("1 -1 -1")
    # a failed inversion is not kept: each request raises again
    with pytest.raises(ArithmeticError, match="singular over the Laurent ring"):
        rep.sigma(-1)


# every constructor and form on n strands; the 3-strand families take n as
# their size instead
CONSTRUCTORS = {
    "burau_unreduced": reps.burau_unreduced,
    "burau_reduced(standard)": functools.partial(reps.burau_reduced, form="standard"),
    "burau_reduced(conjugated)": functools.partial(reps.burau_reduced, form="conjugated"),
    "sym2_quantized": reps.sym2_quantized,
    "lk(new)": functools.partial(reps.lk, notation="new"),
    "lk(bigelow)": functools.partial(reps.lk, notation="bigelow"),
    "qpascal(standard)": lambda n: reps.qpascal_rep(balanced_lambdas(random.Random(n), n)),
    "qpascal(sharp)": lambda n: reps.qpascal_rep(balanced_lambdas(random.Random(n), n), "sharp"),
    "lie_rep(strands)": lambda n: reps.lie_rep(strands=n),
    "lie_rep(power)": lambda n: reps.lie_rep(power=n),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_word_image_matches_the_whole_matrix_product(name):
    # image_of_word cancels letters first; the oracle multiplies every one
    # of them, on plain words, words that cancel past far letters, and
    # u w u^-1
    rep = CONSTRUCTORS[name](4)
    rng = random.Random(15)
    gens = range(1, rep.strands)
    words = [[]] + [[s * i] for i in gens for s in (1, -1)]
    words += [[rng.choice((-1, 1)) * rng.choice(gens) for _ in range(rng.randint(2, 9))]
              for _ in range(8)]
    words += [[1, 3, -1, 2], [-3, 1, 1, 3, -1], [2, -1, 3, 1, -3, -2]]
    for _ in range(4):
        u = [rng.choice((-1, 1)) * rng.choice(gens) for _ in range(rng.randint(1, 3))]
        w = [rng.choice((-1, 1)) * rng.choice(gens) for _ in range(rng.randint(1, 4))]
        words.append(u + w + [-x for x in reversed(u)])
    cancelled = 0
    for letters in words:
        # the 3-strand families drop the letters of sigma_3
        w = BraidWord(rep.strands, [x for x in letters if abs(x) < rep.strands])
        assert reps.image_of_word(rep, w) == product_image_of_word(rep, w), w
        cancelled += len(w.free_reduce()) < len(w)
    assert cancelled >= 3


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_inverse_letters_match_the_cayley_hamilton_oracle(name):
    # every generator on n <= 6 strands (q-Pascal up to 9 diagonal entries,
    # the 3-strand families taking n as their size), inverted by
    # Gauss-Jordan elimination and by Berkowitz plus Cayley-Hamilton
    sizes = range(2, 9) if name.startswith("qpascal") else range(2, 7)
    for n in sizes:
        if name == "sym2_quantized" and n < 3:
            continue
        rep = CONSTRUCTORS[name](n)
        for i in range(1, rep.strands):
            assert rep.sigma(-i) == cayley_hamilton_inverse(rep.sigma(i)), (n, i)


@pytest.mark.parametrize("name", ("burau_reduced(conjugated)", "lk(new)"))
def test_word_image_is_fresh(name):
    # one constructor goes by rows, the other by columns
    rep = CONSTRUCTORS[name](4)
    for text in ("2", "-2", "1 -2", "-2 3 1 2"):
        gens = [PolyMatrix(rep.sigma(x).data) for x in (1, -2, 3)]
        first = reps.image_of_word(rep, text)
        second = reps.image_of_word(rep, text)
        for row in first.data:
            row[:] = [Q ** 7] * len(row)
        assert [rep.sigma(x) for x in (1, -2, 3)] == gens
        assert second == reps.image_of_word(rep, text) == product_image_of_word(rep, text)


def changed_lines(g):
    """The rows and the columns where g differs from the identity."""
    rows, cols = set(), set()
    for i in range(g.rows):
        for j in range(g.cols):
            if g[i, j] != (ONE if i == j else ZERO):
                rows.add(i)
                cols.add(j)
    return rows, cols


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_inverse_letters_change_the_lines_of_their_generator(name, n):
    # word images apply a letter only on the lines its generator changes
    rep = CONSTRUCTORS[name](n)
    for i in range(1, rep.strands):
        assert changed_lines(rep.sigma(-i)) == changed_lines(rep.sigma(i)), i


def lk_transposed_plus_burau(n):
    """lk(n)^T (+) conjugated reduced Burau: the transposes satisfy the braid
    relations too, and the Burau half changes fewer rows than columns, so
    word images go by rows and meet rows that are a unit or monomial
    multiple of another row."""
    return reps.Representation(
        n, [transpose(a).direct_sum(b) for a, b in
            zip(reps.lk(n).gen_images, reps.burau_reduced(n, "conjugated").gen_images)],
        "lk^T+burau(n=%d)" % n)


@pytest.mark.parametrize("build, by_rows", (
    (lambda: reps.lk(3), False),
    (lambda: reps.lk(4), False),
    (lambda: reps.burau_reduced(5, "conjugated"), True),
    (lambda: lk_transposed_plus_burau(4), True),
), ids=("lk(3)", "lk(4)", "burau_reduced(5,conjugated)", "lk(4)^T+burau"))
def test_writing_one_line_of_a_word_image_changes_no_other(build, by_rows):
    # a changed line with a single entry 1 is the old line itself, shared,
    # so the returned image must hold a list of its own for every row
    rep = build()
    assert rep._orient() == by_rows
    rng = random.Random(26)
    for _ in range(12):
        letters = [rng.choice((-1, 1)) * rng.randint(1, rep.strands - 1)
                   for _ in range(rng.randint(1, 10))]
        want = product_image_of_word(rep, BraidWord(rep.strands, letters)).data
        image = reps.image_of_word(rep, BraidWord(rep.strands, letters))
        r = rng.randrange(rep.dim)
        image.data[r][:] = [Q ** 7] * rep.dim
        assert [row for i, row in enumerate(image.data) if i != r] == want[:r] + want[r + 1:]
        image = reps.image_of_word(rep, BraidWord(rep.strands, letters))
        c = rng.randrange(rep.dim)
        for i, row in enumerate(image.data):
            row[c] = Q ** (7 + i)
        assert [row[c] for row in image.data] == [Q ** (7 + i) for i in range(rep.dim)]
        assert ([row[:c] + row[c + 1:] for row in image.data]
                == [row[:c] + row[c + 1:] for row in want])


@pytest.mark.parametrize("build, per_letter", (
    (lambda: reps.burau_reduced(7, "conjugated"), 6),
    (lambda: reps.lk(4), 5 * 6),
    (lambda: reps.lk(3), 3),
    (lambda: reps.lk(4), 2 * 6),
), ids=("burau_reduced(7,conjugated)", "lk(4)", "lk(3),moved-lines", "lk(4),moved-lines"))
def test_word_image_applies_only_the_changed_lines(monkeypatch, build, per_letter):
    rep = build()
    rng = random.Random(20)
    letters = [rng.choice((-1, 1)) * rng.randint(1, rep.strands - 1) for _ in range(20)]
    for i in range(1, rep.strands):
        rep.sigma(-i)
    kernel = reps.sum_of_products
    calls = []

    def counted(pairs):
        calls.append(pairs)
        return kernel(pairs)

    def whole_product(*args):
        raise AssertionError("image_of_word multiplied whole matrices")

    monkeypatch.setattr(reps, "sum_of_products", counted)
    monkeypatch.setattr(PolyMatrix, "__mul__", whole_product)
    image = reps.image_of_word(rep, BraidWord(rep.strands, letters))
    monkeypatch.undo()
    assert 0 < len(calls) <= per_letter * (len(letters) - 1)
    assert image == product_image_of_word(rep, BraidWord(rep.strands, letters))


@pytest.mark.parametrize("call, good, bad", (
    (lambda v: BraidWord(3, [1, v]), True, 2.5),
    (lambda v: BraidWord(v, [1]), 3, 3.0),
    (lambda v: T ** v, 2, 2.5),
    (lambda v: PolyFraction(T) ** v, True, 1.9),
    (lambda v: PolyMatrix([[T]]) ** v, 2, 2.7),
    (lambda v: q_natural(v), 2, 2.9),
    (lambda v: q_binomial(3, v), True, 1.2),
    (lambda v: q_binomial(v, 1), 3, 3.7),
    (lambda v: reps.lk(v), 3, 3.5),
    (lambda v: reps.burau_reduced(v), 3, 3.9),
    (lambda v: reps.braid_from_lie_rep([[v]], [], [], 2), True, 1.5),
    (lambda v: reps.Representation(v, [PolyMatrix([[T]])], "one"), 2, 2.0),
), ids=("braid-letter", "braid-strands", "poly-power", "fraction-power", "matrix-power",
        "q_natural", "q_binomial-k", "q_binomial-n", "lk", "burau_reduced", "lie-weight",
        "Representation"))
def test_sizes_must_be_integers(call, good, bad):
    # ints and bools are accepted; a float raises instead of being truncated
    call(good)
    with pytest.raises(TypeError):
        call(bad)


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
    assert bigelow_to_new_bridge(n).passed


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
    gens = reps._quantized_sym_gens(n, burau_weights(p))
    assert check_braid_relations(reps.Representation(n, gens, "symq")).passed
    assert all(g.det().is_unit() for g in gens)
    classical = table_burau_reduced(n, "conjugated")
    assert [g.substitute(T, ONE) for g in gens] == [sym_power(c, p) for c in classical]


def _slot_mutant(n, p):
    # scale the slots that hold the active index by q^(r-1) instead of q^C(r,2)
    gens = reps._quantized_sym_gens(n, burau_weights(p))
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
    assert _slot_mutant(n, 2) == reps._quantized_sym_gens(n, burau_weights(2))
    for p in (3, 4):
        mutant = reps.Representation(n, _slot_mutant(n, p), "mutant")
        assert not check_braid_relations(mutant).passed, p


@pytest.mark.parametrize("p", range(1, 8))
def test_qpascal_family_is_the_three_strand_quantized_power(p):
    lam = [(-T) ** (p - r) for r in range(p + 1)]
    sharp = reps.qpascal_rep(lam, form="sharp")
    assert sharp.gen_images == reps._quantized_sym_gens(3, burau_weights(p))


def test_qpascal_rule_matches_the_two_product_construction():
    rng = random.Random(14)
    for trial in range(48):
        lam = balanced_lambdas(rng, 1 + trial % 8)
        for form in ("standard", "sharp"):
            built = [str(g) for g in reps.qpascal_rep(lam, form).gen_images]
            assert built == [str(g) for g in two_product_qpascal(lam, form)], (lam, form)


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


# ----------------------------------------------------------------------
# the mirror rule sigma_k^-1 = J bar(sigma_(n-k)) J^-1


def _mirror_permutation(rep):
    """J: pairs (j, k) -> (n+1-k, n+1-j) for lk, each multiset index
    i -> m-1-i for sym2q (m = n - 1), the index reversal otherwise."""
    n = rep.strands
    if rep.label.startswith("lk("):
        basis, image = reps.lk_basis(n), lambda jk: (n + 1 - jk[1], n + 1 - jk[0])
    elif rep.label.startswith("sym2q("):
        basis, image = sym_basis(n - 1, 2), lambda tup: tuple(sorted(n - 2 - i for i in tup))
    else:
        return list(range(rep.dim - 1, -1, -1))
    index = {b: i for i, b in enumerate(basis)}
    return [index[image(b)] for b in basis]


def _mirror_rule_holds(rep):
    """For each k whether sigma_k^-1 = J bar(sigma_(n-k)) J^-1, bar sending
    t -> t^-1 and q -> q^-1."""
    n = rep.strands
    perm = _mirror_permutation(rep)
    return [rep.sigma(-k) == rep.sigma(n - k).substitute(T ** -1, Q ** -1)
            .conjugate_by_permutation(perm) for k in range(1, n)]


MIRROR_CASES = {
    "qpascal(%s)" % form: functools.partial(
        reps.qpascal_rep, balanced_lambdas(random.Random(3), 4), form)
    for form in ("standard", "sharp")}
MIRROR_CASES["lie_rep(strands=4)"] = functools.partial(reps.lie_rep, strands=4)
MIRROR_CASES["lie_rep(power=3)"] = functools.partial(reps.lie_rep, power=3)
for _n in (3, 4, 5):
    MIRROR_CASES["burau_unreduced(%d)" % _n] = functools.partial(reps.burau_unreduced, _n)
    MIRROR_CASES["sym2_quantized(%d)" % _n] = functools.partial(reps.sym2_quantized, _n)
    for _form in ("standard", "conjugated"):
        MIRROR_CASES["burau_reduced(%d,%s)" % (_n, _form)] = functools.partial(
            reps.burau_reduced, _n, _form)
    for _notation in ("new", "bigelow"):
        MIRROR_CASES["lk(%d,%s)" % (_n, _notation)] = functools.partial(reps.lk, _n, _notation)


@pytest.mark.parametrize("build", MIRROR_CASES.values(), ids=MIRROR_CASES.keys())
def test_inverse_letters_follow_the_mirror_rule(build):
    assert all(_mirror_rule_holds(build()))


def test_mirror_rule_fails_for_arbitrary_lie_data():
    # exp(Y) diag((-t)^w) exp(-X) mirrors only when the module data does
    x = PolyMatrix.zeros(3)
    y = PolyMatrix.zeros(3)
    x.data[0][1], x.data[1][2] = 2 * ONE, ONE
    y.data[1][0], y.data[2][1] = ONE, 4 * ONE
    rep = reps.braid_from_lie_rep([[2, 1, 0], [0, 1, 2]], [x], [y], 3)
    assert not all(_mirror_rule_holds(rep))
