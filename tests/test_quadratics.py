"""Quadratic root searches and root lifting."""

import itertools
import random
from fractions import Fraction

import pytest
import ring_references as ref

from cleanmatrix import quadratics
from cleanmatrix.clean import decide_strongly_clean
from cleanmatrix.companion import char_quadratic
from cleanmatrix.errors import (
    InfiniteRing,
    InternalContractViolation,
    NotApplicable,
    OwnerMismatch,
    TooLarge,
)
from cleanmatrix.factorization import star_factorize
from cleanmatrix.literals import parse_matrix, parse_ring
from cleanmatrix.matrices import Mat2
from cleanmatrix.quadratics import (
    MonicQuadratic,
    RootReport,
    element_is_nilpotent,
    find_roots_auto,
    find_roots_enumerate,
    find_roots_rational,
    left_eval,
    lift_root,
    lift_root_truncated,
    right_roots,
    w_roots,
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

Z = make_ring(integers())
ZL2 = make_ring(localized_integers(2))
Z8 = make_ring(mod_prime_power(2, 3))
GF4 = make_ring(galois_field(2, 2))
T3 = make_ring(truncated_poly(galois_field(2, 1), 3))
SK16 = make_ring(truncated_skew(galois_field(2, 2), 1, 2))
# SkewTrunc(GF(2,3),1,2) and its opposite, up to isomorphism (sigma^-1 = sigma^2)
SK64 = make_ring(truncated_skew(galois_field(2, 3), 1, 2))
SK64_OP = make_ring(truncated_skew(galois_field(2, 3), 2, 2))

# the finite rings of test_rings.py, two more truncations and the opposite of
# SkewTrunc(GF(2,3),1,2)
LIFT_RINGS = [
    make_ring(mod_prime_power(2, 2)),
    Z8,
    make_ring(mod_prime_power(3, 2)),
    make_ring(galois_field(2, 1)),
    GF4,
    make_ring(galois_field(2, 3)),
    make_ring(galois_field(3, 2)),
    make_ring(truncated_poly(galois_field(2, 1), 2)),
    T3,
    SK16,
    make_ring(truncated_skew(galois_field(2, 2), 0, 2)),
    make_ring(truncated_poly(galois_field(2, 2), 2)),
    make_ring(truncated_skew(galois_field(2, 2), 1, 3)),
    SK64_OP,
]
MID_RINGS = [
    "Zmod(2,8)",
    "Trunc(GF(2,2),4)",
    "SkewTrunc(GF(2,2),1,3)",
    "Zmod(5,2)",
    "GF(2,4)",
]


def quad(ring, a1, a0):
    return MonicQuadratic(ring, ring.from_int(a1), ring.from_int(a0))


def test_radical_params_round_trip():
    f = MonicQuadratic.from_radical_params(Z8, Z8.el(4), Z8.el(2))
    assert f.a1 == Z8.el(-3 % 8)
    assert f.a0 == Z8.el(-4 % 8)
    assert ref.in_w(f)
    assert Z8.neg(f.a0) == Z8.el(4)
    assert Z8.neg(Z8.add(Z8.one, f.a1)) == Z8.el(2)
    assert not ref.in_w(quad(Z8, 0, 0))
    assert not ref.in_w(quad(Z8, 1, 1))


def test_text_prefers_short_signs():
    assert quad(Z8, -1, -2).text() == "t^2-t+6"  # modular wraparound, tie -> plus
    assert quad(ZL2, -1, -2).text() == "t^2-t-2"
    assert quad(Z8, 0, 3).text() == "t^2+3"
    assert quad(Z8, 1, 0).text() == "t^2+t"


def test_one_minus_t_transform():
    f = MonicQuadratic.from_radical_params(Z8, Z8.el(4), Z8.el(2))
    g = ref.one_minus_t_transform(f)
    # g(t) = f(1 - t) pointwise over the commutative owner
    for lam in Z8.enumerate_elements("All"):
        assert left_eval(g, lam) == left_eval(f, Z8.sub(Z8.one, lam))
    # and g is again of the distinguished shape, with w1 = -(1 + a1) negated
    # and w0 = -a0 shifted by w1
    assert ref.in_w(g)
    assert Z8.add(Z8.one, g.a1) == Z8.neg(Z8.add(Z8.one, f.a1))
    assert Z8.neg(g.a0) == Z8.sub(Z8.neg(f.a0), Z8.add(Z8.one, f.a1))


def test_left_right_eval_differ_on_skew():
    x = SK16.variable()
    w = SK16.embed(SK16.base.generator())
    f = MonicQuadratic(SK16, SK16.mul(w, x), SK16.zero)
    lam = SK16.embed(SK16.base.generator())
    assert left_eval(f, lam) != ref.right_eval(f, lam)


@pytest.mark.parametrize("R", [SK16, SK64_OP, ZL2], ids=lambda R: R.spec_string())
def test_evals_match_the_expanded_quadratic(R):
    # lam (lam + a1) + a0 and (lam + a1) lam + a0 expand by distributivity alone
    els = (R.enumerate_elements("All") if R.is_finite
           else [R.el(Fraction(n, 3)) for n in range(-4, 5)])
    for a1 in els:
        for a0 in els[::3]:
            f = MonicQuadratic(R, a1, a0)
            for lam in els:
                sq = R.mul(lam, lam)
                assert left_eval(f, lam) == R.add(R.add(sq, R.mul(lam, a1)), a0)
                assert ref.right_eval(f, lam) == R.add(R.add(sq, R.mul(a1, lam)), a0)


def test_element_is_nilpotent():
    assert element_is_nilpotent(Z8, Z8.el(2))
    assert not element_is_nilpotent(Z8, Z8.el(3))
    assert element_is_nilpotent(ZL2, ZL2.zero)
    assert not element_is_nilpotent(ZL2, ZL2.el(2))
    assert element_is_nilpotent(GF4, GF4.zero)


def test_enumerate_roots_z8_pinned():
    f = quad(Z8, -1, -2)  # t^2 - t - 2 = (t - 2)(t + 1) over Z/8
    rep = find_roots_enumerate(f, ("J", "1+J", "unit", "nilpotent"))
    assert rep.root_in_j == Z8.el(2)
    assert rep.root_in_1_plus_j == Z8.el(7)
    assert rep.root_unit == Z8.el(7)
    assert rep.root_nilpotent == Z8.el(2)  # 2^3 = 0 in Z/8
    assert rep.method == "Enumeration"


def test_enumerate_nilpotent_subset():
    f = quad(Z8, -2, 0)  # roots 0 and 2; only 0 and 2 are nilpotent candidates
    rep = find_roots_enumerate(f, ("nilpotent",))
    assert rep.root_nilpotent == Z8.el(0)
    g = quad(Z8, -1, 0)  # roots 0 and 1
    assert find_roots_enumerate(g, ("nilpotent",)).root_nilpotent == Z8.el(0)


def test_enumerate_requires_finite():
    with pytest.raises(InfiniteRing):
        find_roots_enumerate(quad(ZL2, 1, 1))
    with pytest.raises(ValueError):
        find_roots_enumerate(quad(Z8, 1, 1), ("bogus",))


def test_rational_roots_integers():
    # no decider asks for roots over Z: the discriminant route serves Z_(p)
    for targets in (("unit", "nilpotent"), ("J", "1+J")):
        with pytest.raises(NotApplicable, match="needs Z_\\(p\\)"):
            find_roots_rational(quad(Z, -1, 0), targets)


def test_rational_roots_localized():
    # disc = 1 + 8 = 9: roots (1 +- 3)/2 = 2, -1
    f = quad(ZL2, -1, -2)
    rep = find_roots_rational(f, ("J", "1+J", "unit"))
    assert rep.root_in_j == ZL2.el(2)
    assert rep.root_in_1_plus_j == ZL2.el(-1)
    assert rep.root_unit == ZL2.el(-1)
    # disc = 1 + 16 = 17 is not a square: no roots at all
    g = quad(ZL2, -1, -4)
    rep = find_roots_rational(g, ("J", "1+J", "unit", "nilpotent"))
    assert rep.root_in_j is None
    assert rep.root_in_1_plus_j is None
    assert rep.root_unit is None
    # non-integer root still lands in Z_(2) when the denominator is odd
    h = MonicQuadratic(ZL2, ZL2.el(Fraction(-4, 3)), ZL2.el(Fraction(1, 3)))
    rep = find_roots_rational(h, ("J", "1+J", "unit"))
    assert rep.root_unit is not None
    with pytest.raises(NotApplicable):
        find_roots_rational(quad(Z8, 1, 1))


def test_find_roots_auto_dispatch():
    assert find_roots_auto(quad(Z8, -1, -2)).method == "Enumeration"
    assert find_roots_auto(quad(ZL2, -1, -2)).method == "Discriminant"
    with pytest.raises(NotApplicable):
        find_roots_auto(quad(Z, -1, 0), ("unit",))


def test_lift_root_truncated_pinned():
    y = T3.variable()
    w0 = T3.mul(y, y)  # y^2
    w1 = y
    root = lift_root_truncated(T3, w0, w1)
    f = MonicQuadratic.from_radical_params(T3, w0, w1)
    assert left_eval(f, root) == T3.zero
    assert T3.in_radical(root)


def test_lift_root_truncated_skew_exhaustive():
    for w0 in SK16.enumerate_elements("Radical"):
        for w1 in SK16.enumerate_elements("Radical"):
            root = lift_root_truncated(SK16, w0, w1)
            f = MonicQuadratic.from_radical_params(SK16, w0, w1)
            assert left_eval(f, root) == SK16.zero
            assert SK16.in_radical(root)


def test_lift_rejects_bad_inputs():
    with pytest.raises(NotApplicable):
        lift_root_truncated(Z8, Z8.el(2), Z8.el(4))
    with pytest.raises(NotApplicable):
        lift_root_truncated(T3, T3.one, T3.zero)


def test_right_roots_commutative_match_left():
    f = quad(Z8, -1, -2)
    left = find_roots_auto(f, ("J", "1+J"))
    right = right_roots(f, ("J", "1+J"))
    assert right.root_in_j == left.root_in_j
    assert right.root_in_1_plus_j == left.root_in_1_plus_j


def test_right_roots_skew_are_right_roots():
    hit = False
    for w0 in SK16.enumerate_elements("Radical"):
        for w1 in SK16.enumerate_elements("Radical"):
            f = MonicQuadratic.from_radical_params(SK16, w0, w1)
            rep = right_roots(f, ("J",))
            if rep.root_in_j is None:
                continue
            hit = True
            assert ref.right_eval(f, rep.root_in_j) == SK16.zero
    assert hit


# (subset, report slot): the four subsets every right_roots check asks for
_SLOTS = (("J", "root_in_j"), ("1+J", "root_in_1_plus_j"), ("unit", "root_unit"),
          ("nilpotent", "root_nilpotent"))
_TARGETS = tuple(t for t, _ in _SLOTS)


def _first_right_root(f, target):
    """The first right root of f in the enumeration order of `target`; on a
    finite local ring the nilpotents are J."""
    R = f.ring
    subset = {"J": "Radical", "1+J": "OnePlusRadical", "unit": "Units",
              "nilpotent": "Radical"}[target]
    for lam in R.enumerate_elements(subset):
        if ref.right_eval(f, lam) == R.zero:
            return lam
    return None


@pytest.mark.parametrize("spec, step", [("SkewTrunc(GF(2,2),1,2)", 1),
                                        ("SkewTrunc(GF(2,3),1,2)", 7)])
def test_right_roots_match_the_reference_scan(spec, step):
    # every f, or every step-th, not only those in W, where the left and the
    # right first hits coincide; here some of them differ
    R = parse_ring(spec)
    els = R.enumerate_elements("All")
    differ = 0
    for a1, a0 in list(itertools.product(els, repeat=2))[::step]:
        f = MonicQuadratic(R, a1, a0)
        rep = right_roots(f, _TARGETS)
        assert rep.method == "Enumeration"
        left = find_roots_enumerate(f, _TARGETS)
        for target, slot in _SLOTS:
            assert getattr(rep, slot) == _first_right_root(f, target), (f, target)
            differ += getattr(rep, slot) != getattr(left, slot)
    assert differ


def test_right_roots_are_left_roots_over_the_opposite():
    # psi carries a right root of t^2 + t a1 + a0 over R to a left root of
    # t^2 + t psi(a1) + psi(a0) over S, and keeps J, 1 + J, the units and
    # the nilpotents: each subset holds a root on both sides or on neither
    R, S = SK64, SK64_OP
    psi = ref.opposite_map(R, S)
    for a1, a0 in itertools.product(R.enumerate_elements("All"), repeat=2):
        f, g = MonicQuadratic(R, a1, a0), MonicQuadratic(S, psi(a1), psi(a0))
        rep, left = right_roots(f, _TARGETS), find_roots_enumerate(g, _TARGETS)
        for target, slot in _SLOTS:
            root = getattr(rep, slot)
            assert (root is None) == (getattr(left, slot) is None), (f, target)
            if root is not None:
                assert left_eval(g, psi(root)) == S.zero


def test_left_root_exists_throughout_w_skew():
    # every distinguished quadratic over the skew test ring has a left root in J
    # and a left root in 1 + J, and the transform swaps them
    for w0 in SK16.enumerate_elements("Radical"):
        for w1 in SK16.enumerate_elements("Radical"):
            f = MonicQuadratic.from_radical_params(SK16, w0, w1)
            rep = find_roots_auto(f, ("J", "1+J"))
            assert rep.root_in_j is not None
            assert rep.root_in_1_plus_j is not None
            g = ref.one_minus_t_transform(f)
            flipped = SK16.sub(SK16.one, rep.root_in_1_plus_j)
            assert left_eval(g, flipped) == SK16.zero


def _pi_lift_cases(R, u, w):
    # t^2 - t u - w: lifting from the residue roots ubar and 0 gives the
    # first unit and the first nilpotent root of the complete scan
    f = MonicQuadratic(R, R.neg(u), R.neg(w))
    rv = R.residue_view()
    rep = find_roots_enumerate(f, ("unit", "nilpotent"))
    return [(f, rv.lift(rv.reduce(u)), rep.root_unit), (f, R.zero, rep.root_nilpotent)]


def _w_lift_cases(R, w0, w1):
    # t^2 - t (1 + w1) - w0: lifting from 0 and 1 gives its roots in J and 1 + J
    f = MonicQuadratic.from_radical_params(R, w0, w1)
    rep = find_roots_enumerate(f, ("J", "1+J"))
    return [(f, R.zero, rep.root_in_j), (f, R.one, rep.root_in_1_plus_j)]


def _refuse(*args, **kwargs):
    raise AssertionError("lift_root enumerated a ring")


@pytest.mark.parametrize("R", LIFT_RINGS, ids=lambda R: R.spec_string())
def test_lift_root_matches_enumeration_exhaustive(R, monkeypatch):
    radical = R.enumerate_elements("Radical")
    cases = []
    for u in R.enumerate_elements("Units"):
        for w in radical:
            cases += _pi_lift_cases(R, u, w)
    for w0 in radical:
        for w1 in radical:
            cases += _w_lift_cases(R, w0, w1)
    for ring in {R, R.residue_view().field}:
        monkeypatch.setattr(ring, "enumerate_elements", _refuse)
    for f, start, root in cases:
        assert root is not None
        assert lift_root(f, start) == root


@pytest.mark.parametrize("spec", MID_RINGS)
def test_lift_root_matches_enumeration_sampled(spec):
    R = parse_ring(spec)
    rng = random.Random(20260)
    units = R.enumerate_elements("Units")
    radical = R.enumerate_elements("Radical")
    for _ in range(100):
        for f, start, root in _pi_lift_cases(R, rng.choice(units), rng.choice(radical)):
            assert root is not None
            assert lift_root(f, start) == root


def test_lift_root_rejects_non_root_start():
    f = quad(Z8, -1, -2)  # t^2 - t - 2 = (t - 2)(t + 1)
    assert lift_root(f, Z8.zero) == Z8.el(2)
    assert lift_root(f, Z8.one) == Z8.el(7)
    g = quad(Z8, -1, -1)  # residue t^2 + t + 1 has no root over F_2
    with pytest.raises(InternalContractViolation):
        lift_root(g, Z8.zero)
    with pytest.raises(InternalContractViolation):
        lift_root(quad(GF4, 1, 1), GF4.zero)  # v = 1: only the final check
    with pytest.raises(NotApplicable):
        lift_root(quad(ZL2, -1, -2), ZL2.zero)


@pytest.mark.parametrize("spec", ["Zmod(2,3)", "Zmod(3,2)"])
def test_w_roots_on_zmod_match_both_scans(spec):
    # w_roots scans J alone and reads the 1 + J root as -a1 - lamJ; both
    # roots must be those of the complete scan, on the quadratic of every
    # NontrivialClean matrix
    R = parse_ring(spec)
    els = R.enumerate_elements("All")
    seen = 0
    for a, b, c, d in itertools.product(els, repeat=4):
        A = Mat2(R, a, b, c, d)
        if decide_strongly_clean(A).status != "NontrivialClean":
            continue
        f = char_quadratic(A)
        rep = find_roots_enumerate(f, ("J", "1+J"))
        got = w_roots(f)
        assert got[:2] == (rep.root_in_j, rep.root_in_1_plus_j), A
        assert got[2] == "Enumeration"
        seen += 1
    j, q = len(R.enumerate_elements("Radical")), R.residue_view().field.size()
    assert seen == j**4 * (q * q + q)


def test_one_sided_root_raises_in_every_caller(monkeypatch):
    # w_roots checks that the J and 1 + J roots come together, whatever the
    # route: a Z_(p) route that finds a J root alone fails the clean decider
    # and the factorizer alike
    monkeypatch.setattr(
        quadratics, "find_roots_rational",
        lambda f, targets: RootReport(root_in_j=f.ring.zero, method="Discriminant"),
    )
    with pytest.raises(InternalContractViolation, match="one-sided"):
        decide_strongly_clean(parse_matrix(ZL2, "[[0,2],[1,1]]"))
    with pytest.raises(InternalContractViolation, match="one-sided"):
        star_factorize(quad(ZL2, -1, -2))


@pytest.mark.parametrize("spec", ["Zmod(2,3)", "Zmod(3,2)", "Zmod(5,2)", "Zmod(2,8)"])
def test_radical_root_is_the_enumerated_root(spec):
    # the payload scan of J returns the very element the complete scan of J
    # finds first, for every f in W, a0 = 0 (root 0) included
    R = parse_ring(spec)
    J = R.enumerate_elements("Radical")
    for w0, w1 in itertools.product(J, repeat=2):
        f = MonicQuadratic.from_radical_params(R, w0, w1)
        assert R.radical_root(f.a1, f.a0) is find_roots_enumerate(f, ("J",)).root_in_j


@pytest.mark.parametrize("spec", ["Zmod(2,3)", "Zmod(3,2)", "Zmod(5,2)"])
def test_radical_root_matches_the_scan_on_every_quadratic(spec):
    # outside W too: no root in J (a0 a unit), several roots in J (a1 in J)
    R = parse_ring(spec)
    els = R.enumerate_elements("All")
    for a1, a0 in itertools.product(els, repeat=2):
        f = MonicQuadratic(R, a1, a0)
        assert R.radical_root(a1, a0) is find_roots_enumerate(f, ("J",)).root_in_j


def test_radical_root_refuses_above_enum_cap(refuse_scans):
    R = parse_ring("Zmod(2,17)")
    with pytest.raises(TooLarge, match=r"has 2\^17 elements; enumeration stops at 65536"):
        R.radical_root(R.el(-1), R.el(0))
    with pytest.raises(OwnerMismatch):
        Z8.radical_root(Z8.el(1), R.el(0))


@pytest.mark.parametrize(
    "spec", ["Zmod(2,3)", "Zmod(2,5)", "Zmod(3,3)", "Zmod(5,2)", "Zmod(2,8)"]
)
def test_newton_root_is_the_scanned_root(spec):
    # on all of W: Newton's root from 0 is the J root the payload scan finds
    # first, and -a1 minus it is the 1 + J root, found here by a scan of the
    # residues 1, 1 + p, 1 + 2p, ...
    R = parse_ring(spec)
    p, m = R.p, R.modulus
    J = R.enumerate_elements("Radical")
    for w0, w1 in itertools.product(J, repeat=2):
        f = MonicQuadratic.from_radical_params(R, w0, w1)
        lam = R.newton_root(f.a1, f.a0, R.zero)
        assert lam is R.radical_root(f.a1, f.a0)
        b1, b0 = f.a1.payload, f.a0.payload
        mu = next(x for x in range(1, m, p) if (x * (x + b1) + b0) % m == 0)
        assert R.sub(R.neg(f.a1), lam) == R.el(mu)


@pytest.mark.parametrize("spec", ["Zmod(2,64)", "Zmod(3,40)", "Zmod(2,4096)"])
def test_newton_root_recovers_chosen_roots_within_the_step_bound(spec):
    # f = (t - lam)(t - mu) with lam in J and mu a unit: Newton's step from
    # 0 and from mu's residue returns each root within ceil(log2 k) + 1
    # steps, or raises; a chord step (a fixed a1^-1 for f'(lam)^-1) gains
    # about two 2-adic levels a step and passes the bound on Zmod(2,64)
    R = parse_ring(spec)
    p, m = R.p, R.modulus
    rng = random.Random(spec)
    for _ in range(40):
        lam = rng.randrange(0, m, p)
        mu = rng.randrange(0, m // p) * p + rng.randrange(1, p)
        a1, a0 = R.el(-(lam + mu)), R.el(lam * mu)
        assert R.newton_root(a1, a0, R.zero) == R.el(lam)
        assert R.newton_root(a1, a0, R.el(mu % p)) == R.el(mu)


def test_newton_root_rejects_a_start_that_is_no_simple_root():
    R = parse_ring("Zmod(3,2)")
    with pytest.raises(InternalContractViolation, match="not a simple root"):
        R.newton_root(R.el(-1), R.el(-2), R.zero)  # t^2 - t - 2: 0 is no root
    with pytest.raises(InternalContractViolation, match="not a simple root"):
        R.newton_root(R.el(-2), R.el(1), R.one)  # (t - 1)^2: a double root
    with pytest.raises(OwnerMismatch):
        R.newton_root(Z8.el(1), R.zero, R.zero)


@pytest.mark.parametrize("spec", ["Zloc(2)", "Zloc(3)", "Z"])
def test_find_roots_rational_matches_fraction_reference(spec):
    # integer-pair discriminant against the Fraction route, on quadratics
    # built from chosen rational roots and on random ones
    R = parse_ring(spec)
    targets = ("J", "1+J", "unit", "nilpotent")
    if spec == "Z":
        # the route serves Z_(p) only
        with pytest.raises(NotApplicable):
            find_roots_rational(quad(Z, -1, 0), targets)
        return
    rng = random.Random(spec)
    p, el = R.p, R.el
    dens = [d for d in range(1, 40) if d % p]

    def rational():
        big = rng.random() < 0.2
        return Fraction(rng.randint(-(2**70), 2**70) if big else rng.randint(-30, 30),
                        rng.choice(dens))

    for k in range(800):
        if k % 2:
            r1, r2 = rational(), rational()
            a1, a0 = -(r1 + r2), r1 * r2
        else:
            a1, a0 = rational(), rational()
        f = MonicQuadratic(R, el(a1), el(a0))
        rep = find_roots_rational(f, targets)
        want = dict.fromkeys(targets)
        for lam in ref.rational_roots(f):
            if lam.denominator % p == 0:
                continue
            kinds = {"J": lam.numerator % p == 0,
                     "1+J": (lam - 1).numerator % p == 0,
                     "unit": lam.numerator % p != 0, "nilpotent": lam == 0}
            for t in targets:
                if kinds[t] and want[t] is None:
                    want[t] = el(lam)
        got = {"J": rep.root_in_j, "1+J": rep.root_in_1_plus_j,
               "unit": rep.root_unit, "nilpotent": rep.root_nilpotent}
        assert {t: got[t] for t in targets} == want, (a1, a0)
