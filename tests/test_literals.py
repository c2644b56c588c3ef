"""Ring-spec and element literal parsing, and format round-trips."""

import pytest

from cleanmatrix.errors import CleanMatrixError, ParseError, TooLarge
from cleanmatrix.literals import (
    MAX_DEPTH,
    matrix_to_literals,
    parse_element,
    parse_matrix,
    parse_ring,
    parse_ring_spec,
)
from cleanmatrix.rings import (
    galois_field,
    integers,
    localized_integers,
    make_ring,
    mod_prime_power,
    truncated_poly,
    truncated_skew,
)


def test_parse_ring_specs():
    assert parse_ring_spec("Z") == integers()
    assert parse_ring_spec("Zloc(2)") == localized_integers(2)
    assert parse_ring_spec("Zmod(2,3)") == mod_prime_power(2, 3)
    assert parse_ring_spec("GF(9)") == galois_field(9, 1)  # validation is later
    assert parse_ring_spec("GF(3,2)") == galois_field(3, 2)
    assert parse_ring_spec("Trunc(GF(2),2)") == truncated_poly(galois_field(2, 1), 2)
    assert parse_ring_spec("SkewTrunc(GF(2,2),1,2)") == truncated_skew(
        galois_field(2, 2), 1, 2
    )
    assert parse_ring_spec(" Zmod( 2 , 3 ) ") == mod_prime_power(2, 3)


def test_parse_ring_builds_and_validates():
    assert parse_ring("Zmod(2,3)") is make_ring(mod_prime_power(2, 3))
    from cleanmatrix.errors import InvalidSpec

    with pytest.raises(InvalidSpec):
        parse_ring("GF(9)")  # 9 is not prime; GF(3,2) spells the field


def test_parse_ring_spec_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_ring_spec("Frac(2)")
    assert "unknown ring family" in str(exc.value)
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        parse_ring_spec("Zmod(2,3) extra")
    with pytest.raises(ParseError):
        parse_ring_spec("Zmod(2")
    with pytest.raises(ParseError):
        parse_ring_spec("Z(3)")


def test_parse_element_integers():
    Z = parse_ring("Z")
    assert parse_element(Z, "-7") == Z.el(-7)
    assert parse_element(Z, "2+3*4") == Z.el(14)
    assert parse_element(Z, "(2+3)*4") == Z.el(20)
    assert parse_element(Z, "2^5") == Z.el(32)
    assert parse_element(Z, "-2^2") == Z.el(-4)  # unary minus binds outside


def test_parse_element_fractions():
    ZL2 = parse_ring("Zloc(2)")
    from fractions import Fraction

    assert parse_element(ZL2, "1/3") == ZL2.el(Fraction(1, 3))
    assert parse_element(ZL2, "-5/3") == ZL2.el(Fraction(-5, 3))
    with pytest.raises(Exception):
        parse_element(ZL2, "1/2")  # denominator divisible by p


def test_parse_element_galois():
    GF4 = parse_ring("GF(2,2)")
    w = GF4.generator()
    assert parse_element(GF4, "w") == w
    assert parse_element(GF4, "1+w") == GF4.add(GF4.one, w)
    assert parse_element(GF4, "w^2") == GF4.mul(w, w)
    assert parse_element(GF4, "w^2+w") == GF4.one  # w^2 = 1 + w
    with pytest.raises(ParseError):
        parse_element(parse_ring("GF(2)"), "w")


def test_parse_element_truncated():
    T3 = parse_ring("Trunc(GF(2),3)")
    y = T3.variable()
    assert parse_element(T3, "y") == y
    assert parse_element(T3, "x") == y  # either letter names the variable
    assert parse_element(T3, "1+y+y^2") == T3.add(T3.add(T3.one, y), T3.mul(y, y))
    assert parse_element(T3, "y^3") == T3.zero  # truncated away
    SK16 = parse_ring("SkewTrunc(GF(2,2),1,2)")
    x = SK16.variable()
    wc = SK16.embed(SK16.base.generator())
    assert parse_element(SK16, "w*x") == SK16.mul(wc, x)
    assert parse_element(SK16, "x*w") == SK16.mul(x, wc)
    assert parse_element(SK16, "x*w") != parse_element(SK16, "w*x")
    with pytest.raises(ParseError):
        parse_element(parse_ring("Zmod(2,2)"), "y")


def test_parse_element_errors():
    Z8 = parse_ring("Zmod(2,3)")
    with pytest.raises(ParseError):
        parse_element(Z8, "")
    with pytest.raises(ParseError):
        parse_element(Z8, "2+")
    with pytest.raises(ParseError):
        parse_element(Z8, "q")
    with pytest.raises(ParseError):
        parse_element(Z8, "2 2")
    with pytest.raises(ParseError):
        parse_element(Z8, "#")


def test_parse_matrix():
    Z8 = parse_ring("Zmod(2,3)")
    A = parse_matrix(Z8, "[[1,2],[3,4]]")
    assert A.entries() == (Z8.el(1), Z8.el(2), Z8.el(3), Z8.el(4))
    assert parse_matrix(Z8, " [ [ 1 , 2 ] , [ 3 , 4 ] ] ") == A
    with pytest.raises(ParseError):
        parse_matrix(Z8, "[[1,2],[3]]")
    with pytest.raises(ParseError):
        parse_matrix(Z8, "[[1,2],[3,4]")


def test_matrix_to_literals_round_trip():
    SK16 = parse_ring("SkewTrunc(GF(2,2),1,2)")
    x = SK16.variable()
    w = SK16.embed(SK16.base.generator())
    A = parse_matrix(SK16, "[[w,1+w*x],[x,0]]")
    lits = matrix_to_literals(A)
    B = parse_matrix(SK16, f"[[{lits[0][0]},{lits[0][1]}],[{lits[1][0]},{lits[1][1]}]]")
    assert B == A
    assert A.a == w
    assert A.c == x


@pytest.mark.parametrize(
    "spec",
    ["Zmod(2,3)", "Zmod(3,2)", "GF(2,2)", "GF(3,2)", "Trunc(GF(2),3)",
     "SkewTrunc(GF(2,2),1,2)"],
)
def test_format_reparses_to_same_element_exhaustive(spec):
    R = parse_ring(spec)
    for e in R.enumerate_elements("All"):
        assert parse_element(R, R.format_element(e)) == e


def test_format_reparses_localized_samples():
    ZL3 = parse_ring("Zloc(3)")
    from fractions import Fraction

    for payload in (0, 1, -1, 7, Fraction(5, 2), Fraction(-4, 7), Fraction(9, 2)):
        e = ZL3.el(payload)
        assert parse_element(ZL3, ZL3.format_element(e)) == e


@pytest.mark.parametrize("text", ["2\u00b2", "\u0661", "1+\u0663", "\uff11"])
def test_only_ascii_digits_are_digits(text):
    # str.isdigit accepts these; the grammar's digits are 0-9
    with pytest.raises(ParseError):
        parse_element(parse_ring("Zmod(2,3)"), text)
    with pytest.raises(ParseError):
        parse_ring_spec(f"Zmod(2,{text})")


def test_deep_nesting_is_a_parse_error():
    # MAX_DEPTH counts open parentheses and unary minuses together
    Z8 = parse_ring("Zmod(2,3)")
    d = MAX_DEPTH
    at_bound = [
        ("(" * d + "3" + ")" * d, 3),
        ("-" * d + "3", 3),
        ("-" * (d - 1) + "3", -3),
        ("-(" * (d // 2) + "3" + ")" * (d // 2), 3),
        ("1+" + "(" * d + "2*3" + ")" * d, 7),
    ]
    for text, value in at_bound:
        assert parse_element(Z8, text) == Z8.el(value)
        assert parse_matrix(Z8, f"[[{text},0],[0,{text}]]").a == Z8.el(value)
    past = ["(" * (d + 1) + "3" + ")" * (d + 1), "-" * (d + 1) + "3",
            "(" * d + "-3" + ")" * d, "-" * d + "(3)", "(" * d + "2*(3)" + ")" * d,
            "(" * 400 + "1" + ")" * 400, "-" * 2000 + "1"]
    for text in past:
        for parse, literal in ((parse_element, text), (parse_matrix, f"[[0,{text}],[0,1]]")):
            with pytest.raises(ParseError) as exc:
                parse(Z8, literal)
            assert str(exc.value) == "literal nested too deeply"
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_ring_spec("Trunc(" * 1000 + "GF(2)" + ",2)" * 1000)
    spec = "Trunc(" * d + "GF(2)" + ",2)" * d
    assert parse_ring_spec(spec).n == 2
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_ring_spec("Trunc(" + spec + ",2)")


@pytest.mark.parametrize(
    "spec", ["Zmod(2,3)", "GF(2,2)", "GF(3,2)", "SkewTrunc(GF(2,2),1,2)", "Zloc(3)", "Z"]
)
def test_power_matches_repeated_product(spec):
    R = parse_ring(spec)
    for text in ("2", "-3", "1+w", "w*x+1", "1/2"):
        try:
            base = parse_element(R, text)
        except CleanMatrixError:
            continue  # not an element of this ring
        expect = R.one
        for e in range(13):
            assert parse_element(R, f"({text})^{e}") == expect
            expect = R.mul(expect, base)


def test_huge_exponent_on_a_finite_ring_is_fast():
    GF4 = parse_ring("GF(2,2)")
    # w has order 3 and 10^8 = 1 mod 3; the old loop multiplied 10^8 times
    assert parse_element(GF4, "w^100000000") == GF4.generator()
    SK16 = parse_ring("SkewTrunc(GF(2,2),1,2)")
    assert parse_element(SK16, "x^100000000") == SK16.zero


def test_entries_too_large_to_print():
    Z, ZL3 = parse_ring("Z"), parse_ring("Zloc(3)")
    assert parse_element(Z, "(-1)^100000000001") == Z.el(-1)
    assert parse_element(Z, "0^100000000000") == Z.zero
    assert parse_element(ZL3, "1^100000000000") == ZL3.one
    digits = "9" * 4300  # the longest literal the interpreter converts
    assert Z.format_element(parse_element(Z, digits)) == digits
    with pytest.raises(ParseError, match="too long"):
        parse_element(Z, digits + "9")
    # refused before the power is computed: more than 4300 digits for sure
    for R, text in ((Z, "2^14301"), (Z, "10^5000"), (ZL3, "(1/2)^14301"), (ZL3, "7^10000")):
        with pytest.raises(TooLarge):
            parse_element(R, text)
    # a product or sum is refused at the first step past the bound, not after
    # multiplying on: 800 such factors took half a minute when computed in full
    for R, text in ((Z, "*".join(["10^4000"] * 800)), (ZL3, "10^4000/7*10^4000"),
                    (ZL3, "+".join(f"1/{p}^4000" for p in (5, 7, 11, 13, 17)))):
        with pytest.raises(TooLarge):
            parse_element(R, text)
    assert parse_element(Z, "10^2000*10^2000") == Z.el(10**4000)
    assert parse_element(ZL3, "10^4000*(1/10)^4000") == ZL3.one
    # computed, then refused when printed
    for R, text in ((Z, "2^14300"), (Z, "10^4400"), (ZL3, "(1/2)^14300")):
        a = parse_element(R, text)
        with pytest.raises(TooLarge):
            R.format_element(a)
