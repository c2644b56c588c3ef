"""The reader behind `verify`: rebuild a JSON document's matrix and
certificate and check them from scratch; a malformed document raises
ParseError.  A decide or pi document loads only the certificate checks."""

from .certificates import (
    CleanCertificate,
    PiCertificate,
    verify_certificate,
    verify_pi_certificate,
)
from .errors import CleanMatrixError, ParseError
from .literals import parse_element, parse_ring
from .matrices import Mat2, diagonalizes

_JSON_TYPES = {str: "string", int: "integer", bool: "boolean", list: "array",
               dict: "object"}


def _field(obj, key, kind=str):
    """obj[key] of a document under verification, checked to be of the given
    JSON type; ParseError otherwise."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object holding {key!r}")
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(f"{key!r} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _element(R, literal):
    if not isinstance(literal, str):
        raise ParseError(f"element literal must be a string, got {literal!r}")
    return parse_element(R, literal)


def _matrix_from_literals(R, nested):
    if not (
        isinstance(nested, list)
        and len(nested) == 2
        and all(isinstance(row, list) and len(row) == 2 for row in nested)
    ):
        raise ParseError("matrix must be a 2x2 array of element literals")
    (a, b), (c, d) = nested
    return Mat2(R, _element(R, a), _element(R, b), _element(R, c), _element(R, d))


def verify_doc(doc):
    """True or False for a document with a certificate, None for one without."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    command = doc.get("command")
    if command == "decide":
        R = parse_ring(_field(doc, "ring"))
        A = _matrix_from_literals(R, _field(doc, "matrix", list))
        if doc.get("certificate") is None:
            return None
        raw = _field(doc, "certificate", dict)
        diag = None
        if "diag" in raw:
            d = _field(raw, "diag", dict)
            diag = (
                _element(R, _field(d, "t0")),
                _element(R, _field(d, "t1")),
                _matrix_from_literals(R, _field(d, "P", list)),
            )
        cert = CleanCertificate(
            E=_matrix_from_literals(R, _field(raw, "E", list)),
            U=_matrix_from_literals(R, _field(raw, "U", list)),
            diag=diag,
        )
        return verify_certificate(A, cert)
    if command == "pi":
        R = parse_ring(_field(doc, "ring"))
        A = _matrix_from_literals(R, _field(doc, "matrix", list))
        if doc.get("certificate") is None:
            return None
        raw = _field(doc, "certificate", dict)
        kind = _field(raw, "kind")
        cert = PiCertificate(kind)
        if kind == "diag":
            cert.t0 = _element(R, _field(raw, "t0"))
            cert.t1 = _element(R, _field(raw, "t1"))
            cert.P = _matrix_from_literals(R, _field(raw, "P", list))
        elif kind == "nilpotent":
            cert.index = _field(raw, "index", int)
        return verify_pi_certificate(A, cert)
    if command == "factor":
        from .factorization import FactorizationWitness, Poly, verify_factorization
        from .quadratics import MonicQuadratic

        R = parse_ring(_field(doc, "ring"))
        poly_doc = _field(doc, "poly", dict)
        f = MonicQuadratic(
            R,
            _element(R, _field(poly_doc, "a1")),
            _element(R, _field(poly_doc, "a0")),
        )
        raw = doc.get("witness")
        if raw is None or not isinstance(raw, dict):
            return None
        def poly(key):
            return Poly(R, [_element(R, c) for c in _field(raw, key, list)])
        witness = FactorizationWitness(
            g0=poly("g0"), g1=poly("g1"), h0=poly("h0"), h1=poly("h1"),
            starred=_field(raw, "starred", bool),
        )
        return verify_factorization(f, witness)
    if command == "classify-int":
        R = parse_ring("Z")
        A = _matrix_from_literals(R, _field(doc, "matrix", list))
        if doc.get("tag") != "Diag":
            return None
        P = _matrix_from_literals(R, _field(doc, "transform", list))
        t0, t1 = R.el(_field(doc, "d1", int)), R.el(_field(doc, "d2", int))
        return diagonalizes(P, A, t0, t1)
    raise CleanMatrixError(f"nothing to verify in a {command!r} document")
