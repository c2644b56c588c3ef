"""Ring construction, arithmetic axioms, and family-specific behavior."""

import importlib
import random

import pytest
import ring_references as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmatrix import rings
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
    TABLE_CAP,
    Element,
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


def _some_elements(R):
    if R.size() <= TABLE_CAP:
        return R.enumerate_elements("All")
    return [R.el(k) for k in (0, 1, 2, 7, 12345, 2**19 + 7)]


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
        assert rings._find_modulus(p, m) == ref.first_irreducible(p, m), (p, m)
    # and a reducible one, (t + 1)^2, leaves no primitive element for the logs
    F = rings.GaloisFieldRing(rings.galois_field(2, 2))
    F.modulus = (1, 0, 1)
    with pytest.raises(InternalContractViolation):
        F._logs


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


@pytest.mark.parametrize("R", OP_RINGS, ids=lambda R: R.spec_string())
def test_residue_reduce_matches_unmemoised(R):
    rv = R.residue_view()
    base = R.element_ring
    plain = base._make_residue_view()  # a fresh view, never memoised
    F = rv.field
    memoised = F is not base and base._tables is not None
    for a in _some_elements(R):
        expect = plain.reduce(a)
        got = rv.reduce(a)
        assert got == expect and got.ring is F
        bare = Element(base, a.payload)  # no idx: the unmemoised path
        assert rv.reduce(bare) == expect and bare.idx is None
        if memoised:
            assert got is F.enumerate_elements("All")[got.idx]
            assert rv.reduce(a) is got
    for c in F.enumerate_elements("All"):
        expect = plain.lift(c)
        got = rv.lift(c)
        assert got == expect and got.ring is base
        bare = Element(F, c.payload)
        assert rv.lift(bare) == expect and bare.idx is None
        if memoised:
            assert got is base.enumerate_elements("All")[got.idx]
            assert rv.lift(c) is got
    if F is not base:
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
