"""Command line front end.

Subcommands: decide (clean decomposition), pi (pi-regular decomposition),
factor (unit-split factorization), survey (ring-level verdict), classify-int
(integer similarity class), selftest (oracle agreement sweep, certificates
compared), and verify, which re-checks a JSON document produced by the other
subcommands.

Exit codes: 0 decided or verified, 2 negative verdict, 64 bad input.  JSON
output is stable: keys sorted, matrices as nested arrays of element literals
in the input grammar, and a verified flag that is set only after the
certificate has been re-checked from scratch.

Start-up is most of a call's cost, so only the parser, the literals and the
matrices are imported here; each command imports the deciders it runs in its
handler.  A decide call loads neither the pi decider nor the factorizer nor
the oracles, and the integer classifier only for a matrix over Z.

CLEANMATRIX_THREADS caps selftest parallelism: unset or 1 runs serially, a
larger value splits the sweep over a process pool of at most that many
workers, one per CPU and one per chunk at most; chunk merge order is fixed
either way, so output does not depend on the worker count.
"""

import argparse
import json
import os
import sys

from .errors import (
    CleanMatrixError,
    InternalContractViolation,
    NoFactorization,
    ParseError,
)
from .literals import (
    matrix_to_literals,
    parse_element,
    parse_matrix,
    parse_ring,
)
from .matrices import Mat2, diagonalizes

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="cleanmatrix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="strongly clean decision for one matrix")
    p.add_argument("--ring", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("pi", help="strongly pi-regular decision for one matrix")
    p.add_argument("--ring", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("factor", help="unit-split factorization of t^2+a1*t+a0")
    p.add_argument("--ring", required=True)
    p.add_argument("--poly", required=True, metavar="a1,a0")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("survey", help="ring-level verdict")
    p.add_argument("--ring", required=True)
    p.add_argument("--mode", choices=("clean", "pi"), default="clean")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify-int", help="integer similarity class")
    p.add_argument("--matrix", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("selftest", help="oracle agreement sweep")
    p.add_argument("--ring", default="Zmod(2,2)")

    p = sub.add_parser("verify")  # internal: re-check an emitted JSON document
    p.add_argument("--file", default="-", help="JSON document, - for stdin")
    return parser


def _emit(args, doc, lines):
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _split_poly_arg(text):
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return text[:i], text[i + 1 :]
    raise ParseError("expected two comma-separated coefficients a1,a0")


# ------------------------------------------------------------------- decide


def _clean_cert_doc(R, cert):
    doc = {"E": matrix_to_literals(cert.E), "U": matrix_to_literals(cert.U)}
    if cert.diag is not None:
        t0, t1, P = cert.diag
        doc["diag"] = {
            "t0": R.format_element(t0),
            "t1": R.format_element(t1),
            "P": matrix_to_literals(P),
        }
    return doc


def _cmd_decide(args):
    from .clean import decide_strongly_clean, verify_certificate

    R = parse_ring(args.ring)
    A = parse_matrix(R, args.matrix)
    dec = decide_strongly_clean(A)
    doc = {
        "command": "decide",
        "ring": R.spec_string(),
        "matrix": matrix_to_literals(A),
        "status": dec.status,
    }
    lines = [f"status: {dec.status}"]
    if dec.method is not None:
        doc["method"] = dec.method
        lines.append(f"method: {dec.method}")
    if dec.certificate is not None:
        cert = dec.certificate
        doc["certificate"] = _clean_cert_doc(R, cert)
        doc["verified"] = verify_certificate(A, cert)
        lines.append(f"E: {cert.E}")
        lines.append(f"U: {cert.U}")
        if cert.diag is not None:
            t0, t1, P = cert.diag
            lines.append(
                f"diag: t0={R.format_element(t0)} t1={R.format_element(t1)} P={P}"
            )
        lines.append(f"verified: {str(doc['verified']).lower()}")
    if dec.witness is not None:
        doc["witness"] = dec.witness.text()
        lines.append(f"witness: {dec.witness.text()}")
    _emit(args, doc, lines)
    return EXIT_NEGATIVE if dec.status == "NotClean" else EXIT_OK


# ----------------------------------------------------------------------- pi


def _pi_cert_doc(R, cert):
    doc = {"kind": cert.kind}
    if cert.kind == "diag":
        doc["t0"] = R.format_element(cert.t0)
        doc["t1"] = R.format_element(cert.t1)
        doc["P"] = matrix_to_literals(cert.P)
    elif cert.kind == "nilpotent":
        doc["index"] = cert.index
    return doc


def _cmd_pi(args):
    from .piregular import decide_strongly_pi_regular, verify_pi_certificate

    R = parse_ring(args.ring)
    A = parse_matrix(R, args.matrix)
    dec = decide_strongly_pi_regular(A)
    doc = {
        "command": "pi",
        "ring": R.spec_string(),
        "matrix": matrix_to_literals(A),
        "status": dec.status,
    }
    lines = [f"status: {dec.status}"]
    if dec.certificate is not None:
        doc["certificate"] = _pi_cert_doc(R, dec.certificate)
        doc["verified"] = verify_pi_certificate(A, dec.certificate)
        cert = dec.certificate
        if cert.kind == "diag":
            lines.append(
                f"diag: t0={R.format_element(cert.t0)} "
                f"t1={R.format_element(cert.t1)} P={cert.P}"
            )
        elif cert.kind == "nilpotent":
            lines.append(f"nilpotency index: {cert.index}")
        lines.append(f"verified: {str(doc['verified']).lower()}")
    if dec.witness is not None:
        doc["witness"] = dec.witness.text()
        lines.append(f"witness: {dec.witness.text()}")
    _emit(args, doc, lines)
    return EXIT_NEGATIVE if dec.status == "No" else EXIT_OK


# ------------------------------------------------------------------- factor


def _poly_literals(R, poly):
    return [R.format_element(c) for c in poly.coeffs]


def _cmd_factor(args):
    from .factorization import star_factorize, verify_factorization
    from .quadratics import MonicQuadratic

    R = parse_ring(args.ring)
    a1_text, a0_text = _split_poly_arg(args.poly)
    a1 = parse_element(R, a1_text)
    a0 = parse_element(R, a0_text)
    f = MonicQuadratic(R, a1, a0)
    doc = {
        "command": "factor",
        "ring": R.spec_string(),
        "poly": {"a1": R.format_element(a1), "a0": R.format_element(a0)},
        "f": f.text(),
    }
    try:
        witness = star_factorize(f)
    except NoFactorization:
        doc["status"] = "NoFactorization"
        doc["witness"] = f.text()
        _emit(args, doc, ["status: NoFactorization", f"f: {f.text()}"])
        return EXIT_NEGATIVE
    doc["status"] = "Factored"
    doc["witness"] = {
        "g0": _poly_literals(R, witness.g0),
        "g1": _poly_literals(R, witness.g1),
        "h0": _poly_literals(R, witness.h0),
        "h1": _poly_literals(R, witness.h1),
        "starred": witness.starred,
    }
    doc["verified"] = verify_factorization(f, witness)
    lines = [
        "status: Factored",
        f"f: {f.text()}",
        f"g0: {witness.g0.text()}",
        f"g1: {witness.g1.text()}",
        f"h1: {witness.h1.text()}",
        f"h0: {witness.h0.text()}",
        f"starred: {str(witness.starred).lower()}",
        f"verified: {str(doc['verified']).lower()}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


# ------------------------------------------------------------------- survey


def _cmd_survey(args):
    R = parse_ring(args.ring)
    if args.mode == "clean":
        from .clean import ring_is_strongly_clean

        verdict = ring_is_strongly_clean(R)
    else:
        from .piregular import ring_is_m2_pi_regular

        verdict = ring_is_m2_pi_regular(R)
    doc = {
        "command": "survey",
        "ring": R.spec_string(),
        "mode": args.mode,
        "answer": verdict.answer,
    }
    lines = [f"answer: {verdict.answer}"]
    if verdict.witness is not None:
        doc["witness"] = verdict.witness.text()
        lines.append(f"witness: {verdict.witness.text()}")
    _emit(args, doc, lines)
    return EXIT_OK if verdict.answer == "Yes" else EXIT_NEGATIVE


# ------------------------------------------------------------- classify-int


def _cmd_classify_int(args):
    from .integer_matrices import classify_integer

    R = parse_ring("Z")
    A = parse_matrix(R, args.matrix)
    cls = classify_integer(A)
    doc = {
        "command": "classify-int",
        "matrix": matrix_to_literals(A),
        "tag": cls.tag,
    }
    lines = [f"tag: {cls.tag}"]
    if cls.tag == "Diag":
        doc["d1"] = cls.d1
        doc["d2"] = cls.d2
        doc["transform"] = matrix_to_literals(cls.transform)
        doc["verified"] = diagonalizes(cls.transform, A, R.el(cls.d1), R.el(cls.d2))
        lines.append(f"diag: ({cls.d1}, {cls.d2})")
        lines.append(f"transform: {cls.transform}")
        lines.append(f"verified: {str(doc['verified']).lower()}")
    _emit(args, doc, lines)
    return EXIT_NEGATIVE if cls.tag == "NotClean" else EXIT_OK


# ----------------------------------------------------------------- selftest


def _pi_power(R, cert):
    """The least n for which A^n splits, read off A's pi certificate: 1 for
    a unit, the index for a nilpotent, and for A similar to diag(t0, t1),
    t0 a unit and t1 nilpotent, the least n with t1^n = 0."""
    if cert.kind == "unit":
        return 1
    if cert.kind == "nilpotent":
        return cert.index
    power, t = 1, cert.t1
    while t != R.zero:
        power, t = power + 1, R.mul(t, cert.t1)
    return power


def _selftest_chunk(spec_text, flat_indices):
    """Both deciders against both oracles, certificates compared: the clean
    status, and on a NontrivialClean matrix the idempotent E itself, which
    is unique there (E commutes with A, so A acts on the lines im E and
    ker E, as a non-unit and as a unit; over a finite ring the non-unit
    action is nilpotent, so im E = ker A^N and ker E = im A^N for large N),
    and the splitting power against brute_pi's.  A decision that fails its
    own certificate check counts as a mismatch."""
    from .bruteforce import brute_clean, brute_pi
    from .clean import decide_strongly_clean
    from .piregular import decide_strongly_pi_regular

    R = parse_ring(spec_text)
    els = R.enumerate_elements("All")
    n = len(els)
    clean_ok = pi_ok = 0
    mismatches = []
    for flat in flat_indices:
        i, rest = divmod(flat, n * n * n)
        j, rest = divmod(rest, n * n)
        k, l = divmod(rest, n)
        A = Mat2(R, els[i], els[j], els[k], els[l])
        try:
            dec, brute = decide_strongly_clean(A), brute_clean(A)
            agree = (dec.status == "NotClean") == (brute is None) and (
                dec.status != "NontrivialClean" or dec.certificate.E == brute.E
            )
        except InternalContractViolation:
            agree = False
        if agree:
            clean_ok += 1
        else:
            mismatches.append(("clean", flat))
        try:
            dec = decide_strongly_pi_regular(A)
            agree = dec.status != "No" and _pi_power(R, dec.certificate) == brute_pi(A)
        except InternalContractViolation:
            agree = False
        if agree:
            pi_ok += 1
        else:
            mismatches.append(("pi", flat))
    return clean_ok, pi_ok, len(flat_indices), mismatches


def _thread_count():
    raw = os.environ.get("CLEANMATRIX_THREADS", "1")
    try:
        return max(1, min(int(raw), os.cpu_count() or 1))
    except ValueError:
        return 1


def _cmd_selftest(args):
    R = parse_ring(args.ring)
    if not R.is_finite:
        raise CleanMatrixError("selftest needs a finite ring")
    from .bruteforce import _tables

    _tables(R)  # TooLarge above ORACLE_CAP, before sampling or enumerating
    size = R.size()
    total_all = size ** 4
    if total_all <= 6561:
        flat = list(range(total_all))
        scope = "exhaustive"
    else:
        import random

        rng = random.Random(0)
        flat = sorted(rng.sample(range(total_all), 1000))
        scope = "sampled"
    threads = _thread_count()
    if threads == 1:
        results = [_selftest_chunk(R.spec_string(), flat)]
    else:
        chunk_size = (len(flat) + threads - 1) // threads
        chunks = [
            flat[i : i + chunk_size] for i in range(0, len(flat), chunk_size)
        ]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(
                pool.map(_selftest_chunk, [R.spec_string()] * len(chunks), chunks)
            )
    clean_ok = sum(r[0] for r in results)
    pi_ok = sum(r[1] for r in results)
    total = sum(r[2] for r in results)
    mismatches = [m for r in results for m in r[3]]
    print(f"ring: {R.spec_string()}")
    print(f"scope: {scope}")
    print(f"matrices: {total}")
    print(f"clean agreements: {clean_ok}/{total}")
    print(f"pi agreements: {pi_ok}/{total}")
    for kind, flat_index in mismatches:
        print(f"mismatch: {kind} at matrix index {flat_index}")
    return EXIT_OK if not mismatches else EXIT_NEGATIVE


# ------------------------------------------------------------------- verify


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


def _verify_doc(doc):
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    command = doc.get("command")
    if command == "decide":
        from .clean import CleanCertificate, verify_certificate

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
        from .piregular import PiCertificate, verify_pi_certificate

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


def _cmd_verify(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}")
    verdict = _verify_doc(doc)
    print(json.dumps({"verified": verdict}, sort_keys=True))
    if verdict is False:
        return EXIT_NEGATIVE
    return EXIT_OK


# --------------------------------------------------------------------- main


_COMMANDS = {
    "decide": _cmd_decide,
    "pi": _cmd_pi,
    "factor": _cmd_factor,
    "survey": _cmd_survey,
    "classify-int": _cmd_classify_int,
    "selftest": _cmd_selftest,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CleanMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: devnull takes what is left, so the exit flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
