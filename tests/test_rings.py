"""Ring construction, arithmetic axioms, and family-specific behavior."""

import importlib
import math
import random
import time
from fractions import Fraction

import pytest
import ring_references as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmatrix import galois, rings
from cleanmatrix.clean import decide_strongly_clean
from cleanmatrix.errors import (
    InfiniteRing,
    InternalContractViolation,
    InvalidSpec,
    NotAUnit,
    NotLocal,
    OwnerMismatch,
    TooLarge,
)
from cleanmatrix.literals import parse_ring
from cleanmatrix.matrices import Mat2
from cleanmatrix.piregular import decide_strongly_pi_regular
from cleanmatrix.quadratics import MonicQuadratic, left_eval
from cleanmatrix.rings import (
    ENUM_CAP,
    GF_DEGREE_CAP,
    TABLE_CAP,
    Element,
    FiniteRing,
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
Z9 = make_ring(mod_prime_power(3, 2))
GF2 = make_ring(galois_field(2, 1))
GF4 = make_ring(galois_field(2, 2))
GF8 = make_ring(galois_field(2, 3))
GF9 = make_ring(galois_field(3, 2))
T2 = make_ring(truncated_poly(galois_field(2, 1), 2))
T3 = make_ring(truncated_poly(galois_field(2, 1), 3))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))
SK16_PLAIN = make_ring(truncated_skew(galois_field(2, 2), 0, 2))

FINITE_RINGS = [Z4, Z8, Z9, GF2, GF4, GF8, GF9, T2, T3, SK16, SK16_PLAIN]
# larger fields, odd-characteristic truncations and a 256-element truncation
INDEX_RINGS = [
    parse_ring(spec)
    for spec in ("GF(2,8)", "GF(3,3)", "GF(5,2)", "GF(7,2)", "Trunc(GF(3),3)",
                 "SkewTrunc(GF(3,2),1,2)", "Trunc(GF(2,2),4)")
]
# every table-backed ring, one above the table cap, and an opposite ring
OP_RINGS = FINITE_RINGS + [make_ring(mod_prime_power(2, 20)), SK16.opposite()]


def test_make_ring_caches_instances():
    assert make_ring(mod_prime_power(2, 2)) is Z4
    assert make_ring(truncated_skew(galois_field(2, 2), 1, 2)) is SK16


@pytest.mark.parametrize(
    "bad",
    [
        lambda: mod_prime_power(4, 1),
        lambda: mod_prime_power(2, 0),
        lambda: galois_field(6, 2),
        lambda: galois_field(2, 0),
        lambda: localized_integers(9),
        lambda: truncated_poly(galois_field(2, 1), 0),
        lambda: truncated_skew(galois_field(2, 2), 2, 2),
        lambda: truncated_skew(galois_field(2, 2), -1, 2),
        lambda: truncated_poly(integers(), 2),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(InvalidSpec):
        make_ring(bad())


def test_sizes():
    assert Z.size() is None
    assert Z4.size() == 4
    assert Z8.size() == 8
    assert GF9.size() == 9
    assert T3.size() == 8
    assert SK16.size() == 16


def test_mod_prime_power_arithmetic():
    a, b = Z8.el(5), Z8.el(7)
    assert Z8.add(a, b) == Z8.el(4)
    assert Z8.mul(a, b) == Z8.el(3)
    assert Z8.neg(Z8.el(3)) == Z8.el(5)
    assert Z8.invert(Z8.el(3)) == Z8.el(3)
    with pytest.raises(NotAUnit):
        Z8.invert(Z8.el(2))


def test_galois_field_moduli():
    w4 = GF4.generator()
    assert GF4.mul(w4, w4) == GF4.add(GF4.one, w4)  # w^2 = 1 + w
    w8 = GF8.generator()
    w8_3 = GF8.mul(GF8.mul(w8, w8), w8)
    assert w8_3 == GF8.add(GF8.one, w8)  # w^3 = 1 + w
    w9 = GF9.generator()
    assert GF9.mul(w9, w9) == GF9.from_int(2)  # w^2 = -1


def test_galois_field_modulus_is_the_first_irreducible():
    # the modulus fixes every GF payload numbering and log table
    small = [(p, m) for p in range(2, 65) if rings._is_prime(p)
             for m in range(1, 13) if p**m <= 4096]
    for p, m in small + [(2, 20), (2, 24)]:
        assert galois._find_modulus(p, m) == ref.first_irreducible(p, m), (p, m)
    # and a reducible one, (t + 1)^2, leaves no primitive element for the logs
    F = rings.GaloisFieldRing(rings.galois_field(2, 2))
    F.modulus = (1, 0, 1)
    with pytest.raises(InternalContractViolation):
        F._logs


def test_galois_field_degree_is_capped():
    # the largest admitted degree builds fast, for p = 2 and for large primes
    # whose binomials t^m + c are all reducible (4 | 24 and p = 3 mod 4, or
    # 3 | 24 and 3 not dividing p - 1), which the modulus search skips whole
    for p in (2, 65537, 2**31 - 1):
        start = time.perf_counter()
        R = rings.GaloisFieldRing(galois_field(p, GF_DEGREE_CAP))
        assert time.perf_counter() - start < 5
        assert galois._fp_is_irreducible(R.modulus, p)
        assert R.modulus[1] != 0  # not a binomial
    for spec in (galois_field(2, GF_DEGREE_CAP + 1),
                 truncated_poly(galois_field(3, 4096), 2)):
        with pytest.raises(TooLarge, match="above the cap"):
            make_ring(spec)
    # binomial moduli: t^2 + 1 over GF(3); mod 65537, -1 and -2 are squares, -3 is not
    assert galois._find_modulus(3, 2) == (1, 0, 1)
    assert galois._find_modulus(65537, 16) == (3,) + (0,) * 15 + (1,)
    big = 2**61 - 1  # 3 mod 4: no t^4 + c is irreducible
    assert galois._fp_is_irreducible(galois._find_modulus(big, 4), big)


def test_prime_test_is_exact_below_its_bound():
    # deterministic Miller-Rabin against trial division
    for n in range(10**5):
        trial = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert rings._is_prime(n) == trial, n
    # a strong pseudoprime to bases 2, 3, 5 and 7, and a Carmichael number
    assert not rings._is_prime(3215031751)
    assert not rings._is_prime(561)
    assert rings._is_prime(10**18 + 3) and rings._is_prime(2**64 - 59)
    # the bound is the least strong pseudoprime to bases 2-41; it is refused
    assert rings._PRIME_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(InvalidSpec, match=str(rings._PRIME_BOUND)):
        rings._is_prime(rings._PRIME_BOUND)


def test_frobenius_is_pth_power():
    w = GF4.generator()
    assert GF4.frobenius(w, 1) == GF4.mul(w, w)
    assert GF4.frobenius(w, 2) == w  # order of the field automorphism group
    for e in GF9.enumerate_elements("All"):
        assert GF9.frobenius(e, 1) == GF9.mul(GF9.mul(e, e), e)


def test_localized_integers_membership():
    half_denominator = ZL2.el(__import__("fractions").Fraction(1, 3))
    assert ZL2.is_unit(half_denominator)
    with pytest.raises(ValueError):
        ZL2.el(__import__("fractions").Fraction(1, 2))
    assert ZL2.in_radical(ZL2.el(6))
    assert not ZL2.in_radical(ZL2.el(3))
    inv = ZL2.invert(ZL2.el(3))
    assert ZL2.mul(inv, ZL2.el(3)) == ZL2.one


def test_integers_not_local():
    with pytest.raises(NotLocal):
        Z.is_unit(Z.el(2))
    with pytest.raises(NotLocal):
        Z.in_radical(Z.el(2))
    with pytest.raises(NotLocal):
        Z.residue_view()
    with pytest.raises(InfiniteRing):
        Z.enumerate_elements("All")


@pytest.mark.parametrize("R", FINITE_RINGS)
def test_unit_radical_trichotomy(R):
    for e in R.enumerate_elements("All"):
        assert R.is_unit(e) != R.in_radical(e)
    for j in R.enumerate_elements("Radical"):
        assert R.is_unit(R.add(R.one, j))


@pytest.mark.parametrize("R", FINITE_RINGS)
def test_invert_exhaustive(R):
    for u in R.enumerate_elements("Units"):
        v = R.invert(u)
        assert R.mul(u, v) == R.one
        assert R.mul(v, u) == R.one
    for j in R.enumerate_elements("Radical"):
        with pytest.raises(NotAUnit):
            R.invert(j)


@pytest.mark.parametrize("R", FINITE_RINGS)
def test_residue_view_is_homomorphism(R):
    view = R.residue_view()
    elems = R.enumerate_elements("All")
    for a in elems[: min(len(elems), 6)]:
        for b in elems:
            assert view.reduce(R.add(a, b)) == view.field.add(
                view.reduce(a), view.reduce(b)
            )
            assert view.reduce(R.mul(a, b)) == view.field.mul(
                view.reduce(a), view.reduce(b)
            )
    for c in view.field.enumerate_elements("All"):
        assert view.reduce(view.lift(c)) == c


def test_enumeration_orders_pinned():
    assert [Z4.format_element(e) for e in Z4.enumerate_elements("All")] == [
        "0", "1", "2", "3",
    ]
    assert [Z4.format_element(e) for e in Z4.enumerate_elements("Units")] == [
        "1", "3",
    ]
    assert [Z4.format_element(e) for e in Z4.enumerate_elements("Radical")] == [
        "0", "2",
    ]
    assert [
        Z4.format_element(e) for e in Z4.enumerate_elements("OnePlusRadical")
    ] == ["1", "3"]
    assert [GF4.format_element(e) for e in GF4.enumerate_elements("All")] == [
        "0", "w", "1", "1+w",
    ]
    assert [T2.format_element(e) for e in T2.enumerate_elements("OnePlusRadical")] == [
        "1", "1+y",
    ]


def test_skew_commutation_rule():
    x = SK16.variable()
    for r in SK16.base.enumerate_elements("All"):
        embedded = SK16.embed(r)
        left = SK16.mul(x, embedded)
        right = SK16.mul(SK16.embed(SK16.base.frobenius(r, 1)), x)
        assert left == right
    assert not SK16.is_commutative
    assert SK16_PLAIN.is_commutative


def test_plain_truncation_matches_zero_twist():
    # s = 0 twists by the identity, so the two constructions agree elementwise
    for a in SK16_PLAIN.enumerate_elements("All"):
        for b in SK16_PLAIN.enumerate_elements("All"):
            assert SK16_PLAIN.mul(a, b) == SK16_PLAIN.mul(b, a)


def test_truncated_invert_neumann():
    y = T3.variable()
    u = T3.add(T3.one, y)  # 1 + y
    v = T3.invert(u)
    assert T3.mul(u, v) == T3.one
    yy = T3.mul(y, y)
    assert v == T3.add(T3.add(T3.one, y), yy)  # geometric series mod y^3


def test_opposite_ring():
    op = SK16.opposite()
    a = SK16.embed(SK16.base.generator())
    x = SK16.variable()
    assert op.mul(a, x) == SK16.mul(x, a)
    assert op.opposite() is SK16
    assert op.spec_string() == "op(SkewTrunc(GF(2,2),1,2))"
    assert op.size() == 16
    for u in op.enumerate_elements("Units"):
        assert op.mul(u, op.invert(u)) == op.one


@pytest.mark.parametrize("R", FINITE_RINGS + [SK16.opposite()] + INDEX_RINGS)
def test_index_tables_match_arithmetic(R):
    # the index route against the element-level reference, on every entry;
    # the opposite ring's tables are its base ring's, with mul transposed
    base = R.element_ring
    tab = R.filled_tables()
    els, n = tab.elements, tab.size
    assert els == base.enumerate_elements("All")
    assert [a.idx for a in els] == list(range(n))
    for i, a in enumerate(els):
        assert els[tab.neg[i]] == ref.neg(base, a)
        if R.is_unit(a):
            assert els[tab.inv[i]] == ref.invert(base, a)
        else:
            with pytest.raises(NotAUnit):
                R.invert(a)
        for j, b in enumerate(els):
            assert els[tab.add[i * n + j]] == ref.add(base, a, b)
            product = ref.mul(base, a, b) if R is base else ref.mul(base, b, a)
            assert els[tab.mul[i * n + j]] == product
            assert R.mul(a, b) == product
    symmetric = all(
        tab.mul[i * n + j] == tab.mul[j * n + i] for i in range(n) for j in range(n)
    )
    assert symmetric == R.is_commutative


@pytest.mark.parametrize(
    "spec",
    ["Trunc(GF(2,4),8)", "Trunc(GF(2,24),2)", "SkewTrunc(GF(2,16),1,4)", "GF(2,20)"],
)
def test_direct_ops_above_table_cap_match_reference(spec):
    R = parse_ring(spec)
    F = R.residue_view().field
    rng = random.Random(spec)

    def field_sample():
        return F.el([rng.randrange(F.p) for _ in range(F.m)])

    def sample():
        if R is F:
            return field_sample()
        return R.el([field_sample().payload for _ in range(R.n)])

    elements = [sample() for _ in range(12)]
    for a, b in zip(elements, elements[1:]):
        assert R.add(a, b) == ref.add(R, a, b)
        assert R.mul(a, b) == ref.mul(R, a, b)
        assert R.neg(a) == ref.neg(R, a)
    units = [u for u in elements if R.is_unit(u)][:3]
    assert units
    for u in units:
        assert R.invert(u) == ref.invert(R, u)
    for c in (field_sample() for _ in range(4)):
        assert F.frobenius(c, 1) == ref.mul(F, c, c)  # every field here has p = 2
    assert R._tables is None and R._enum_cache == {}
    # no log table above TABLE_CAP
    assert (F._logs is None) == (F.size() > TABLE_CAP)


@pytest.mark.parametrize("spec", ["Trunc(GF(2,2),4)", "SkewTrunc(GF(2,2),1,3)", "GF(2,8)"])
def test_cold_decisions_fill_by_index(monkeypatch, refuse_element_fills, spec):
    monkeypatch.setattr(rings, "_RING_CACHE", {})  # fresh rings, every table cold
    R = parse_ring(spec)
    F = R.residue_view().field
    els = R.enumerate_elements("All")
    rng = random.Random(spec)
    radical = [a for a in els if R.in_radical(a)]
    statuses = set()
    for _ in range(60):
        a0, a1 = rng.choice(els), rng.choice(els)
        j0, j1 = rng.choice(radical), rng.choice(radical)
        # a companion matrix, one with residue eigenvalues 0 and 1, and any
        for A in (Mat2(R, R.zero, a0, R.one, a1),
                  Mat2(R, j0, R.zero, a0, R.add(R.one, j1)),
                  Mat2(R, *(rng.choice(els) for _ in range(4)))):
            statuses.add(decide_strongly_clean(A).status)
            statuses.add(decide_strongly_pi_regular(A).status)
    assert {"NontrivialClean", "Nontrivial"} <= statuses
    assert F._logs is not None
    assert any(k != rings._EMPTY for k in R._tables.mul)


def test_ring_above_table_cap_allocates_nothing():
    R = make_ring(mod_prime_power(2, 20))
    assert R.size() > TABLE_CAP
    a, b = R.el(12345), R.el(2**19 + 7)
    assert R.add(a, b) == R.el(12345 + 2**19 + 7)
    assert R.mul(a, b) == R.el(12345 * (2**19 + 7))
    assert R.sub(a, b) == R.el(12345 - 2**19 - 7)
    assert R.mul(R.invert(a), a) == R.one
    A = Mat2(R, R.el(3), R.el(2), R.el(4), R.el(1))
    assert decide_strongly_clean(A).status == "TrivialUnit"
    assert R._tables is None
    assert R._enum_cache == {}
    with pytest.raises(TooLarge):
        R.filled_tables()


@pytest.mark.parametrize(
    "spec", ["Trunc(GF(2,24),2)", "SkewTrunc(GF(2,24),1,2)"]
)
def test_truncation_over_huge_field(spec):
    # the twist is computed per coefficient, never tabulated over the field
    R = parse_ring(spec)
    x, w = R.variable(), R.base.generator()
    c = R.embed(w)
    assert R.mul(x, c) == R.mul(R.embed(R.sigma(w)), x)
    assert R.mul(R.add(R.one, x), c) == R.add(c, R.mul(x, c))
    assert R._tables is None and R.base._tables is None


@pytest.mark.parametrize("spec", ["Zmod(2,17)", "Zmod(2,64)", "Trunc(GF(2,4),8)"])
def test_enumeration_refused_above_cap(spec):
    R = parse_ring(spec)
    assert R.size() > ENUM_CAP
    for subset in ("All", "Units", "Radical", "OnePlusRadical"):
        with pytest.raises(TooLarge, match=r"has 2\^\d+ elements"):
            R.enumerate_elements(subset)
    assert R._enum_cache == {}


def test_galois_field_radical_and_ranks_need_no_enumeration():
    F = parse_ring("GF(2,20)")
    assert F.enumerate_elements("Radical") == (F.zero,)
    assert F.enumerate_elements("OnePlusRadical") == (F.one,)
    assert F.element_at(1) == F.el((0,) * 19 + (1,))
    with pytest.raises(IndexError):
        F.element_at(F.size())
    assert F._enum_cache == {}
    for G in (GF9, parse_ring("GF(2,4)"), parse_ring("GF(5,1)")):
        elems = G.enumerate_elements("All")
        assert [G.element_at(k) for k in range(len(elems))] == list(elems)


def test_owner_mismatch():
    with pytest.raises(OwnerMismatch):
        Z4.add(Z4.one, Z8.one)
    with pytest.raises(OwnerMismatch):
        Z4.el(1).__add__(Z8.el(1))


@pytest.mark.parametrize("R", OP_RINGS, ids=lambda R: R.spec_string())
def test_ops_reject_foreign_operands(R):
    # an enumerated element carries an index that is valid in most of these tables
    other = Z9 if R.element_ring is not Z9 else Z8
    foreign = other.enumerate_elements("All")[1]
    a = R.one
    f = MonicQuadratic(R, R.one, R.zero)

    def f_eval(lam):
        return left_eval(f, lam)

    for bad in (foreign, 1, None):
        for op in (R.add, R.sub, R.mul):
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                op(a, bad)
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                op(bad, a)
        for op in (R.neg, R.invert, R.is_unit, R.in_radical, f_eval):
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                op(bad)


# every family: table-backed, above the cap (Z/2^20, GF(2,20)), opposite, Z, Z_(p)
DOT_RINGS = OP_RINGS + [make_ring(galois_field(2, 20)), Z, ZL2]


def _sample(R, rng):
    """A random element of R; on a table-backed ring sometimes a copy with
    no index."""
    E = R.element_ring
    if E is Z:
        return Z.el(rng.randint(-50, 50))
    if E is ZL2:
        return ZL2.el(Fraction(rng.randint(-50, 50), rng.choice((1, 3, 5, 7))))
    if E._tables is None:
        return Element(E, _random_payload(E, rng))
    a = rng.choice(E.enumerate_elements("All"))
    return Element(E, a.payload) if rng.random() < 0.3 else a


@pytest.mark.parametrize("R", DOT_RINGS, ids=lambda R: R.spec_string())
def test_dot_is_a_sum_of_products(R):
    rng = random.Random(R.spec_string())
    for _ in range(200):
        a, b, c, d = (_sample(R, rng) for _ in range(4))
        assert R.dot(a, b, c, d) == R.add(R.mul(a, b), R.mul(c, d))
    if not R.is_commutative:
        x, w = SK16.variable(), SK16.embed(SK16.base.generator())
        assert R.dot(x, w, R.zero, R.zero) == R.mul(x, w) != R.mul(w, x)


@pytest.mark.parametrize("spec", ["Zmod(3,3)", "GF(2,4)", "SkewTrunc(GF(2,2),1,2)"])
def test_dot_fills_cold_tables_by_index(monkeypatch, refuse_element_fills, spec):
    monkeypatch.setattr(rings, "_RING_CACHE", {})  # a fresh ring, every table cold
    R = parse_ring(spec)

    def refuse(*args):
        raise AssertionError("dot fell back to add or mul")

    monkeypatch.setattr(FiniteRing, "add", refuse)
    monkeypatch.setattr(FiniteRing, "mul", refuse)
    t, rng = R._tables, random.Random(spec)
    assert set(t.mul) == set(t.add) == {rings._EMPTY}
    for _ in range(100):
        a, b, c, d = (_sample(R, rng) for _ in range(4))
        got = R.dot(a, b, c, d)
        x, y = ref._mul(R, a.payload, b.payload), ref._mul(R, c.payload, d.payload)
        assert got.payload == ref._add(R, x, y)
        i, j, u, v = (t.index_of(e) for e in (a, b, c, d))
        k, m = t.mul[i * t.size + j], t.mul[u * t.size + v]
        assert (t.elements[k].payload, t.elements[m].payload) == (x, y)
        assert t.elements[t.add[k * t.size + m]] is got


@pytest.mark.parametrize("R", DOT_RINGS, ids=lambda R: R.spec_string())
def test_dot_rejects_foreign_operands(R):
    other = Z9 if R.element_ring is not Z9 else Z8
    foreign = other.enumerate_elements("All")[1]  # carries an index
    for bad in (foreign, 1, None):
        for slot in range(4):
            args = [R.one] * 4
            args[slot] = bad
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                R.dot(*args)


@pytest.mark.parametrize("R", [Z, ZL2], ids=lambda R: R.spec_string())
def test_exact_ring_ops_reject_foreign_operands(R):
    # Zloc(3) elements have Zloc(2)'s payload form, Z's are bare ints
    ops = [R.neg, R.invert, R.ratio]
    if R is ZL2:
        ops.append(R.residue_view().reduce)
    for bad in (make_ring(localized_integers(3)).one, Z8.one, Z.one, 1, None):
        if bad is R.one:
            continue
        for op in (R.add, R.sub, R.mul):
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                op(R.one, bad)
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                op(bad, R.one)
        for op in ops:
            with pytest.raises(OwnerMismatch, match="does not belong to"):
                op(bad)


def test_localized_residue_is_the_enumerated_element():
    rv = ZL2.residue_view()
    zero, one = rv.field.enumerate_elements("All")
    assert rv.reduce(ZL2.el(Fraction(-3, 5))) is one
    assert rv.reduce(ZL2.el(Fraction(4, 7))) is zero


def _random_payload(R, rng, radical=False):
    """A payload of a finite ring drawn digit by digit; with radical, one whose
    residue is zero."""
    if R.family == "ModPrimePower":
        x = rng.randrange(R.modulus)
        return x - x % R.p if radical else x
    if R.family == "GaloisField":
        return (0,) * R.m if radical else tuple(rng.randrange(R.p) for _ in range(R.m))
    coeffs = [_random_payload(R.base, rng) for _ in range(R.n)]
    if radical:
        coeffs[0] = R.base.zero.payload
    return tuple(coeffs)


def _with_and_without_idx(R, rng):
    """(payload, idx) pairs: every element of a table-backed ring with its
    index and with none; above the table cap, sampled payloads likewise."""
    if R._tables is not None:
        payloads = [a.payload for a in R.enumerate_elements("All")]
    else:
        payloads = [_random_payload(R, rng, radical=k % 3 == 0) for k in range(24)]
    return [(x, idx) for x in payloads for idx in (R._ix(x), None)]


@pytest.mark.parametrize(
    "R",
    OP_RINGS + [parse_ring(s) for s in ("Zmod(65537,2)", "GF(2,20)", "Trunc(GF(2,4),8)")],
    ids=lambda R: R.spec_string(),
)
def test_residue_reduce_matches_unmemoised(R):
    # reduce, lift, is_unit and in_radical read one index digit; the reference
    # reads the payload.  A lookup records an index, so each call gets a fresh
    # element.
    rv = R.residue_view()
    base = R.element_ring
    F = rv.field
    assert F is ref.residue_field(base)
    rng = random.Random(base.spec_string())

    def fresh(ring, payload, idx):
        e = Element(ring, payload)
        e.idx = idx
        return e

    for x, idx in _with_and_without_idx(base, rng):
        expect = ref.reduce(base, fresh(base, x, None))
        got = rv.reduce(fresh(base, x, idx))
        assert got == expect and got.ring is F
        if F._tables is not None:  # the enumerated element, so ops hit the tables
            assert got is F.enumerate_elements("All")[got.idx]
        unit = ref.is_unit(base, fresh(base, x, None))
        assert R.is_unit(fresh(base, x, idx)) is unit
        assert R.in_radical(fresh(base, x, idx)) is not unit
    for x, idx in _with_and_without_idx(F, rng):
        expect = ref.lift(base, fresh(F, x, None))
        got = rv.lift(fresh(F, x, idx))
        assert got == expect and got.ring is base
        if base._tables is not None:
            assert got is base.enumerate_elements("All")[got.idx]
    other = Z9 if base is not Z9 else Z8
    for bad in (other.enumerate_elements("All")[1], 1, None):
        with pytest.raises(OwnerMismatch):
            rv.reduce(bad)
        with pytest.raises(OwnerMismatch):
            rv.lift(bad)


def test_element_dunders_match_ring_ops():
    a, b = Z9.el(4), Z9.el(7)
    assert a + b == Z9.add(a, b)
    assert a - b == Z9.sub(a, b)
    assert a * b == Z9.mul(a, b)
    assert -a == Z9.neg(a)
    assert a + 2 == Z9.el(6)
    assert 3 * a == Z9.el(3)
    assert a ** 3 == Z9.el(1)


@settings(max_examples=60)
@given(data=st.data(), ring=st.sampled_from(FINITE_RINGS))
def test_ring_axioms(data, ring):
    elems = ring.enumerate_elements("All")
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    c = data.draw(st.sampled_from(elems))
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(ring.add(a, b), c) == ring.add(ring.mul(a, c), ring.mul(b, c))
    assert ring.add(a, ring.neg(a)) == ring.zero
    assert ring.mul(ring.one, a) == a
    assert ring.mul(a, ring.one) == a


def test_package_exports_resolve_lazily():
    import cleanmatrix

    for name in cleanmatrix.__all__:
        value = getattr(cleanmatrix, name)
        if name == "errors":
            assert value is importlib.import_module("cleanmatrix.errors")
            continue
        module = importlib.import_module(f"cleanmatrix.{cleanmatrix._EXPORTS[name]}")
        assert value is getattr(module, name)
    assert len(set(cleanmatrix.__all__)) == len(cleanmatrix.__all__)
    assert set(dir(cleanmatrix)) == set(cleanmatrix.__all__)
    namespace = {}
    exec("from cleanmatrix import *", namespace)
    assert set(cleanmatrix.__all__) <= set(namespace)
    assert namespace["decide_strongly_clean"] is cleanmatrix.decide_strongly_clean
    with pytest.raises(AttributeError):
        cleanmatrix.no_such_name
    with pytest.raises(ImportError):
        exec("from cleanmatrix import no_such_name", {})


def test_monic_quadratic_rejects_foreign_coefficients():
    for a1, a0 in ((Z9.one, Z8.zero), (Z8.one, 1), (None, Z8.zero)):
        with pytest.raises(OwnerMismatch):
            MonicQuadratic(Z8, a1, a0)
    f = MonicQuadratic(Z8, Z8.one, Z8.zero)
    assert f == MonicQuadratic(Z8, Z8.el(1), Z8.el(0))
    assert hash(f) == hash(MonicQuadratic(Z8, Z8.el(1), Z8.el(0)))
    assert (f.ring, f.a1, f.a0) == (Z8, Z8.one, Z8.zero)


def _fraction_samples(p, rng, count=120):
    """Seeded rationals of Z_(p): zero, small and 80-bit numerators of both
    signs, denominators prime to p, some of them large."""
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(p), Fraction(-p, p + 1)]
    while len(out) < count:
        big = rng.random() < 0.3
        n = rng.randint(-(2**80), 2**80) if big else rng.randint(-60, 60)
        d = rng.randint(1, 2**40 if big else 30)
        if d % p:
            out.append(Fraction(n, d))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_localized_pair_arithmetic_matches_fractions(p):
    # every op on reduced pairs against the same op on Fractions, payload
    # for payload: (numerator, denominator) in lowest terms, d > 0
    R = make_ring(localized_integers(p))
    rng = random.Random(p)
    xs = _fraction_samples(p, rng)
    els = [R.el(x) for x in xs]
    for x, a in zip(xs, els):
        assert a.payload == (x.numerator, x.denominator)
        assert ref.fraction(a) == x
        assert R.format_element(a) == str(x)
        assert R.is_unit(a) == (x.numerator % p != 0) != R.in_radical(a)
        assert R.neg(a).payload == ((-x).numerator, (-x).denominator)
        if R.is_unit(a):
            y = ref.FRACTION_OPS["invert"](x)
            assert R.invert(a).payload == (y.numerator, y.denominator)
        else:
            with pytest.raises(NotAUnit):
                R.invert(a)
    for _ in range(600):
        i, j, k, m = (rng.randrange(len(xs)) for _ in range(4))
        for op in ("add", "sub", "mul"):
            y = ref.FRACTION_OPS[op](xs[i], xs[j])
            assert getattr(R, op)(els[i], els[j]).payload == (y.numerator, y.denominator)
        y = ref.FRACTION_OPS["dot"](xs[i], xs[j], xs[k], xs[m])
        assert R.dot(els[i], els[j], els[k], els[m]).payload == (y.numerator, y.denominator)


@pytest.mark.parametrize("p", [2, 3])
def test_localized_el_and_residue_view(p):
    R = make_ring(localized_integers(p))
    F, reduce, lift = R.residue_view()
    rng = random.Random(f"view{p}")
    for x in _fraction_samples(p, rng):
        a = R.el(x)
        assert R.frac(-7 * x.numerator, -7 * x.denominator) == a
        if x.denominator == 1:
            assert R.el(x.numerator) == a == R.from_int(x.numerator)
        residue = x.numerator * pow(x.denominator, -1, p) % p
        assert reduce(a) == F.el((residue,))
        assert lift(reduce(a)).payload == (residue, 1)
        assert R.in_radical(R.sub(a, lift(reduce(a))))
    with pytest.raises(ValueError, match="divisible by"):
        R.el(Fraction(1, p))
    with pytest.raises(ValueError):
        R.el("1/3")
