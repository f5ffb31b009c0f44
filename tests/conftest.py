"""Shared hypothesis strategies for the exact-arithmetic property tests, and
fixtures that record the divisions a determinant or the fraction arithmetic
makes."""

import pytest
from hypothesis import strategies as st

from braidrep import laurent, polymatrix
from braidrep.laurent import LaurentPoly, exact_div


def _record_divisors(monkeypatch, module):
    seen = []

    def counting_exact_div(a, b):
        seen.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(module, "exact_div", counting_exact_div)
    return seen


@pytest.fixture
def divisors(monkeypatch):
    """The divisor of every exact division PolyMatrix.det makes, in order."""
    return _record_divisors(monkeypatch, polymatrix)


@pytest.fixture
def bareiss_sizes(monkeypatch):
    """The size of every block PolyMatrix.det hands to Bareiss, in order,
    over the Laurent ring, Z[q^+-1] or the integers."""
    seen = []
    for name in ("_bareiss_det", "_integer_bareiss_det"):
        monkeypatch.setattr(polymatrix, name, _counting(seen, getattr(polymatrix, name)))
    return seen


def _counting(seen, bareiss):
    def counting_bareiss(m):
        seen.append(len(m))
        return bareiss(m)
    return counting_bareiss


@pytest.fixture
def fraction_divisors(monkeypatch):
    """The divisor of every exact division a PolyFraction canonical form
    tries, in order."""
    return _record_divisors(monkeypatch, laurent)


def term_tuples(max_coeff=9, span=3):
    return st.tuples(
        st.integers(min_value=-max_coeff, max_value=max_coeff),
        st.integers(min_value=-span, max_value=span),
        st.integers(min_value=-span, max_value=span),
    )


@st.composite
def laurent_polys(draw, max_terms=4, span=3):
    p = LaurentPoly()
    for c, et, eq in draw(st.lists(term_tuples(span=span), max_size=max_terms)):
        p = p + LaurentPoly.monomial(c, et, eq)
    return p


@st.composite
def nonzero_polys(draw, max_terms=3):
    p = draw(laurent_polys(max_terms=max_terms))
    if p.is_zero():
        c = draw(st.integers(min_value=1, max_value=5))
        et = draw(st.integers(min_value=-2, max_value=2))
        p = p + LaurentPoly.monomial(c, et)
    return p


@st.composite
def unit_monomials(draw):
    sign = 1 if draw(st.booleans()) else -1
    et = draw(st.integers(min_value=-3, max_value=3))
    eq = draw(st.integers(min_value=-3, max_value=3))
    return LaurentPoly.monomial(sign, et, eq)
