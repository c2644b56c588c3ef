"""Unit-split factorization witnesses and the polynomial helper type."""

import pytest
import ring_references as ref

from cleanmatrix.errors import NoFactorization, NotApplicable, OwnerMismatch
from cleanmatrix.factorization import (
    FactorizationWitness,
    Poly,
    _residue_coprime,
    star_factorize,
    verify_factorization,
)
from cleanmatrix.literals import parse_element, parse_ring
from cleanmatrix.quadratics import MonicQuadratic, find_roots_auto, find_roots_enumerate
from cleanmatrix.rings import (
    galois_field,
    integers,
    localized_integers,
    make_ring,
    mod_prime_power,
    truncated_poly,
    truncated_skew,
)

Z = make_ring(integers())
ZL2 = make_ring(localized_integers(2))
Z4 = make_ring(mod_prime_power(2, 2))
Z8 = make_ring(mod_prime_power(2, 3))
GF4 = make_ring(galois_field(2, 2))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))
T3 = make_ring(truncated_poly(galois_field(2, 1), 3))
T32 = make_ring(truncated_poly(galois_field(3, 1), 2))


def quad(ring, a1, a0):
    return MonicQuadratic(ring, ring.from_int(a1), ring.from_int(a0))


def test_poly_basics():
    p = Poly(Z8, [Z8.el(1), Z8.el(2), Z8.el(1)])
    assert p.degree() == 2
    assert p.coeff(0) == Z8.el(1)
    assert p.coeff(5) == Z8.zero
    assert Poly(Z8, [Z8.zero]).is_zero()
    assert Poly(Z8, []).degree() == -1
    assert p.mul(Poly.one(Z8)) == p


def test_poly_trims_leading_zeros():
    p = Poly(Z8, [Z8.el(1), Z8.zero, Z8.zero])
    assert p.degree() == 0
    assert p.coeffs == (Z8.el(1),)


def test_poly_eval_left_and_text():
    p = Poly(Z8, [Z8.el(3), Z8.el(2), Z8.el(1)])
    assert p.text() == "t^2+2*t+3"
    assert Poly(Z8, [Z8.zero, Z8.el(1)]).text() == "t"
    assert Poly(Z8, []).text() == "0"


@pytest.mark.parametrize("spec, coeffs, text", [
    ("Zmod(2,3)", [1, 7, 1], "t^2-t+1"),
    ("Zmod(2,3)", [6, 0, 7], "-t^2+6"),  # 6 and -2 tie
    ("Zmod(2,3)", [7, 1], "t+7"),
    ("Zmod(2,3)", [7], "7"),
    ("Zloc(2)", [1, -1, 1], "t^2-t+1"),
    ("Zloc(2)", [-2, 0, -1], "-t^2-2"),
])
def test_poly_text_picks_the_shorter_signed_form(spec, coeffs, text):
    # each term as format_quadratic writes it: the shorter of +c and -(-c),
    # the plus form on a tie
    R = parse_ring(spec)
    assert Poly(R, [R.from_int(c) for c in coeffs]).text() == text


@pytest.mark.parametrize("spec, a1, a0, text, top_text", [
    ("GF(2,2)", "1+w", "1", "t^2+(1+w)*t+1", "(1+w)*t^2+1"),
    ("Trunc(GF(2,2),2)", "1+w*y", "w", "t^2+(1+w*y)*t+w", "(1+w*y)*t^2+w"),
    ("SkewTrunc(GF(2,2),1,2)", "w+w*x", "1+x", "t^2+(w+w*x)*t+1+x",
     "(w+w*x)*t^2+1+x"),
    ("Zloc(2)", "-1/3", "-1", "t^2-1/3*t-1", "-1/3*t^2-1"),
    ("Zmod(2,3)", "6", "5", "t^2+6*t+5", "6*t^2+5"),
])
def test_poly_text_parenthesizes_compound_coefficients(spec, a1, a0, text, top_text):
    # a sum or difference multiplying a power of t gets parentheses; a
    # leading minus alone does not, and a constant term never needs them
    R = parse_ring(spec)
    c1, c0 = parse_element(R, a1), parse_element(R, a0)
    assert Poly(R, [c0, c1, R.one]).text() == text
    assert Poly(R, [c0, R.zero, c1]).text() == top_text


def test_poly_noncommutative_coefficient_order():
    # coefficients multiply in ring order: (a x^i)(b x^j) keeps a on the left
    x = SK16.variable()
    w = SK16.embed(SK16.base.generator())
    p = Poly(SK16, [x])  # constant polynomial with skew constant
    q = Poly(SK16, [w])
    assert p.mul(q).coeffs == (SK16.mul(x, w),)
    assert q.mul(p).coeffs == (SK16.mul(w, x),)
    assert p.mul(q) != q.mul(p)


def test_trivial_split_unit_at_zero():
    f = quad(Z8, 0, 1)  # f(0) = 1 a unit
    w = star_factorize(f)
    assert w.g1 == Poly.one(Z8)
    assert w.g0.coeffs == (f.a0, f.a1, Z8.one)
    assert w.starred
    assert verify_factorization(f, w)


def test_trivial_split_unit_at_one():
    f = quad(Z8, 0, -2)  # f(0) = -2 in J, f(1) = -1 a unit
    w = star_factorize(f)
    assert w.g0 == Poly.one(Z8)
    assert w.h0 == Poly.one(Z8)
    assert verify_factorization(f, w)


def test_root_pair_split_pinned():
    f = quad(Z8, -1, -2)  # roots 2 in J, 7 in 1+J
    w = star_factorize(f)
    # g0 = t - t1 (the 1+J root), g1 = t + a1 + t1; h1 = t - t0, h0 = t + a1 + t0
    assert w.g0.coeffs == (Z8.el(1), Z8.one)  # t - 7 = t + 1
    assert w.g1.coeffs == (Z8.el(6), Z8.one)  # t - 1 + 7 = t + 6
    assert w.h1.coeffs == (Z8.el(6), Z8.one)  # t - 2
    assert w.h0.coeffs == (Z8.el(1), Z8.one)  # t - 1 + 2
    assert w.starred
    assert verify_factorization(f, w)


def test_no_factorization_over_localized():
    f = quad(ZL2, -1, -4)  # disc 17: no roots, both evaluations in J
    with pytest.raises(NoFactorization) as exc:
        star_factorize(f)
    assert exc.value.witness is f


def test_not_applicable_over_integers():
    with pytest.raises(NotApplicable):
        star_factorize(quad(Z, 0, 1))


def test_verify_rejects_wrong_products():
    f = quad(Z8, -1, -2)
    w = star_factorize(f)
    bad = FactorizationWitness(g0=w.g1, g1=w.g1, h0=w.h0, h1=w.h1, starred=False)
    assert verify_factorization(f, bad) is False
    # unit evaluations must be checked too: t * (t + a1) multiplies back to f
    # when a0 = 0 but g0(0) = 0 is not a unit
    g = quad(Z8, 2, 0)
    t_poly = Poly(Z8, [Z8.zero, Z8.one])
    rest = Poly(Z8, [Z8.el(2), Z8.one])
    cheat = FactorizationWitness(g0=t_poly, g1=rest, h0=t_poly, h1=rest,
                                 starred=False)
    assert verify_factorization(g, cheat) is False


def test_verify_rejects_foreign_ring():
    f = quad(Z8, -1, -2)
    w = star_factorize(f)
    alien = FactorizationWitness(
        g0=Poly.one(Z4), g1=w.g1, h0=w.h0, h1=w.h1, starred=False
    )
    with pytest.raises(OwnerMismatch):
        verify_factorization(f, alien)


def test_starred_flag_checks_residue_coprimality():
    # over GF(4) coefficients both residue factors can be t + w: products and
    # all four unit evaluations pass, but the starred coprimality check fails
    w_el = SK16.embed(SK16.base.generator())
    lin = Poly(SK16, [w_el, SK16.one])  # t + w
    prod = lin.mul(lin)  # t^2 + w^2 in characteristic 2
    f = MonicQuadratic(SK16, prod.coeff(1), prod.coeff(0))
    plain = FactorizationWitness(g0=lin, g1=lin, h0=lin, h1=lin, starred=False)
    assert verify_factorization(f, plain) is True
    starred = FactorizationWitness(g0=lin, g1=lin, h0=lin, h1=lin, starred=True)
    assert verify_factorization(f, starred) is False


def test_factorize_iff_roots_z8_exhaustive():
    elems = Z8.enumerate_elements("All")
    for a1 in elems:
        for a0 in elems:
            f = MonicQuadratic(Z8, a1, a0)
            trivial = Z8.is_unit(a0) or Z8.is_unit(
                Z8.add(Z8.add(Z8.one, a1), a0)
            )
            rep = find_roots_auto(f, ("J", "1+J"))
            has_roots = rep.root_in_j is not None
            try:
                w = star_factorize(f)
                assert trivial or has_roots
                assert verify_factorization(f, w)
            except NoFactorization:
                assert not trivial and not has_roots


def test_factorize_skew_root_pairs():
    # distinguished quadratics over the skew ring, and over two truncations
    # whose roots are lifted, factor through the enumerated root pair
    for R in (SK16, T3, T32):
        for w0 in R.enumerate_elements("Radical"):
            for w1 in R.enumerate_elements("Radical"):
                f = MonicQuadratic.from_radical_params(R, w0, w1)
                w = star_factorize(f)
                assert w.starred
                assert verify_factorization(f, w)
                # nontrivial split: linear times linear
                assert w.g0.degree() == 1
                assert w.g1.degree() == 1
                rep = find_roots_enumerate(f, ("J", "1+J"))
                t0, t1 = rep.root_in_j, rep.root_in_1_plus_j
                expected = [
                    Poly(R, [R.neg(t1), R.one]), Poly(R, [R.add(f.a1, t1), R.one]),
                    Poly(R, [R.add(f.a1, t0), R.one]), Poly(R, [R.neg(t0), R.one]),
                ]
                assert [w.g0, w.g1, w.h0, w.h1] == expected


@pytest.mark.parametrize("spec", ["Trunc(GF(2,4),8)", "SkewTrunc(GF(2,4),1,8)"])
def test_factor_truncated_above_enum_cap_lifts(spec, refuse_scans):
    R = parse_ring(spec)
    f = MonicQuadratic(R, parse_element(R, "1+x"), parse_element(R, "w*x"))
    assert ref.in_w(f)
    w = star_factorize(f)
    assert verify_factorization(f, w)
    assert w.g0.degree() == 1 and w.h0.degree() == 1
    assert "All" not in R._enum_cache


def _monic_quadratic_pairs(R):
    """Every (p0, p1) of degree at most 2 over R with p0 p1 monic of degree
    2: the t^4 and t^3 coefficients vanish and the t^2 coefficient is 1."""
    els = R.enumerate_elements("All")
    z, o, mul, add = R.zero, R.one, R.mul, R.add
    for a2 in els:
        for b2 in els:
            if mul(a2, b2) != z:
                continue
            for a1 in els:
                for b1 in els:
                    if add(mul(a1, b2), mul(a2, b1)) != z:
                        continue
                    m = mul(a1, b1)
                    for a0 in els:
                        for b0 in els:
                            if add(add(mul(a0, b2), m), mul(a2, b0)) == o:
                                yield Poly(R, [a0, a1, a2]), Poly(R, [b0, b1, b2])


@pytest.mark.parametrize("spec", ["Zmod(2,2)", "Zmod(2,3)", "GF(2,2)",
                                  "Trunc(GF(2),3)", "SkewTrunc(GF(2,2),1,2)"])
def test_residue_coprimality_matches_euclid(spec):
    # the degree argument and its 2x2 determinant against the extended
    # Euclid, on every factor pair of a monic quadratic of degree <= 2 each
    R = parse_ring(spec)
    view = R.residue_view()
    seen = set()
    for p0, p1 in _monic_quadratic_pairs(R):
        fp = p0.mul(p1)
        f = MonicQuadratic(R, fp.coeff(1), fp.coeff(0))
        coprime = _residue_coprime(view, p0, p1)
        assert coprime == ref.residue_coprime_euclid(view, p0, p1), (p0, p1)
        for starred in (False, True):
            w = FactorizationWitness(g0=p0, g1=p1, h0=p1, h1=p0, starred=starred)
            verdict = verify_factorization(f, w)
            assert verdict == ref.verify_factorization_euclid(f, w), (p0, p1)
            seen.add((coprime, starred, verdict))
    # both coprimality answers occur, and each decides a starred verdict
    assert {(True, True, True), (False, True, False)} <= seen
