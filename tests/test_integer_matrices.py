"""Integer strong-cleanness classification against the idempotent oracle."""

import pytest
import ring_references as ref

from cleanmatrix.clean import decide_strongly_clean, verify_certificate
from cleanmatrix.errors import NotApplicable
from cleanmatrix.integer_matrices import (
    classify_integer,
    integer_clean_decision,
    integer_oracle,
)
from cleanmatrix.matrices import Mat2, conjugate
from cleanmatrix.rings import integers, make_ring, mod_prime_power

Z = make_ring(integers())
Z4 = make_ring(mod_prime_power(2, 2))


def m(a, b, c, d):
    return Mat2(Z, Z.el(a), Z.el(b), Z.el(c), Z.el(d))


def test_is_unimodular():
    assert ref.is_unimodular(m(2, 1, 1, 1))
    assert ref.is_unimodular(m(0, 1, -1, 0))
    assert not ref.is_unimodular(m(2, 0, 0, 1))
    with pytest.raises(NotApplicable):
        ref.is_unimodular(Mat2.identity(Z4))


def test_classify_trivial():
    assert classify_integer(m(2, 1, 1, 1)).tag == "TrivialUnit"
    assert classify_integer(m(0, 0, 5, 0)).tag == "TrivialOneMinusUnit"
    assert classify_integer(m(3, 0, 0, 5)).tag == "NotClean"


def test_classify_all_four_diag_classes():
    # idempotent: trace 1, det 0
    cls = classify_integer(m(3, 2, -3, -2))
    assert (cls.tag, cls.d1, cls.d2) == ("Diag", 1, 0)
    # negated idempotent: trace -1, det 0
    cls = classify_integer(m(-3, -2, 3, 2))
    assert (cls.tag, cls.d1, cls.d2) == ("Diag", -1, 0)
    # trace 3, det 2 -> diag(1, 2)
    cls = classify_integer(m(1, 0, 5, 2))
    assert (cls.tag, cls.d1, cls.d2) == ("Diag", 1, 2)
    # trace 1, det -2 -> diag(-1, 2)
    cls = classify_integer(m(-1, 0, 0, 2))
    assert (cls.tag, cls.d1, cls.d2) == ("Diag", -1, 2)


def test_classify_transform_diagonalizes():
    A = m(1, 0, 5, 2)
    cls = classify_integer(A)
    D = conjugate(cls.transform, A)
    assert D == Mat2.diag(Z, Z.el(1), Z.el(2))
    assert ref.is_unimodular(cls.transform)


def test_right_key_wrong_lattice_is_not_clean():
    # trace 1, det -2 hits the diag(-1, 2) class, but the primitive
    # eigenvectors (1,-1) and (1,2) span an index-3 sublattice
    A = m(0, 1, 2, 1)
    cls = classify_integer(A)
    assert cls.tag == "NotClean"
    assert integer_oracle(A) is False


def test_scalar_matrices():
    assert classify_integer(m(0, 0, 0, 0)).tag == "TrivialOneMinusUnit"
    assert classify_integer(m(1, 0, 0, 1)).tag == "TrivialUnit"
    # I - 2I = -I is unimodular, so 2I is still trivially clean
    assert classify_integer(m(2, 0, 0, 2)).tag == "TrivialOneMinusUnit"
    assert integer_oracle(m(2, 0, 0, 2)) is True
    # 3I has no unimodular side and no commuting idempotent helps
    assert classify_integer(m(3, 0, 0, 3)).tag == "NotClean"
    assert integer_oracle(m(3, 0, 0, 3)) is False


def test_oracle_pinned_cases():
    assert integer_oracle(m(3, 2, -3, -2)) is True  # idempotent itself
    assert integer_oracle(m(2, 1, 1, 1)) is True  # unimodular
    assert integer_oracle(m(3, 0, 0, 5)) is False
    assert integer_oracle(m(0, 1, 2, 1)) is False  # disc 9 but E not integral
    assert integer_oracle(m(-1, 3, 0, 2)) is True  # beta = 1/3 yet E integral
    assert integer_oracle(m(3, 0, 0, 0)) is False  # E integral but U singular
    assert integer_oracle(m(3, 0, 0, 1)) is False  # same, disc 4
    with pytest.raises(NotApplicable):
        integer_oracle(Mat2.identity(Z4))


def test_beta_non_integral_entries_can_still_work():
    # [[-1,3],[0,2]]: disc = 9, beta = +-1/3, E = [[0,1],[0,1]] is integral
    A = m(-1, 3, 0, 2)
    dec = integer_clean_decision(A)
    assert dec.status == "NontrivialClean"
    cert = dec.certificate
    assert cert.E == m(0, 1, 0, 1)
    assert verify_certificate(A, cert)


def test_decision_statuses_and_certificates():
    dec = integer_clean_decision(m(3, 2, -3, -2))
    assert dec.status == "NontrivialClean"
    assert dec.method == "IntegerClass"
    assert verify_certificate(m(3, 2, -3, -2), dec.certificate)
    t0, t1, P = dec.certificate.diag
    assert (t0.payload, t1.payload) == (1, 0)

    dec = integer_clean_decision(m(3, 0, 0, 5))
    assert dec.status == "NotClean"
    assert dec.witness.a1 == Z.el(-8)
    assert dec.witness.a0 == Z.el(15)

    # decide_strongly_clean dispatches integer matrices here
    assert decide_strongly_clean(m(3, 2, -3, -2)).method == "IntegerClass"


def test_classifier_agrees_with_oracle_small_window():
    # acceptance runs [-6, 6]; keep the unit-test window small and fast
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    A = m(a, b, c, d)
                    got = classify_integer(A).tag != "NotClean"
                    want = integer_oracle(A)
                    assert got == want, (a, b, c, d)


@pytest.mark.parametrize("decider", ["clean", "pi", "classify-int"])
def test_integer_certificate_checked_once(monkeypatch, capsys, decider):
    # classify_integer builds the transform; only its caller checks it
    import sys

    from cleanmatrix import cli, matrices, piregular

    calls = []
    original = matrices.diagonalizes

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cleanmatrix") and getattr(mod, "diagonalizes", None) is original:
            monkeypatch.setattr(mod, "diagonalizes", counted)
    A = m(3, 2, -3, -2)
    if decider == "clean":
        assert decide_strongly_clean(A).status == "NontrivialClean"
    elif decider == "pi":
        assert piregular.decide_strongly_pi_regular(A).status == "Nontrivial"
    else:
        assert cli.run(["classify-int", "--matrix", "[[3,2],[-3,-2]]"]) == 0
        assert "verified: true" in capsys.readouterr().out
    assert len(calls) == 1
