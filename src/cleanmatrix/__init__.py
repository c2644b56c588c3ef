"""Strongly clean and strongly pi-regular decompositions of 2x2 matrices
over concrete local rings, with exact, re-verifiable certificates.

The names below are loaded lazily (PEP 562): `import cleanmatrix` imports no
submodule, and the first access to a name imports only its defining module,
so a command line call compiles just the modules its command runs.
`from cleanmatrix import X`, `import *` and `cleanmatrix.errors` work as
with eager imports.
"""

from importlib import import_module

_MODULES = {
    "rings": (
        "Element", "LocalRing", "ResidueView", "RingSpec", "galois_field",
        "integers", "localized_integers", "make_ring", "mod_prime_power",
        "truncated_poly", "truncated_skew",
    ),
    "matrices": (
        "Mat2", "conjugate", "diag_mul", "diagonalizes", "invert2",
        "is_invertible", "matpow", "matvec", "outer", "residue_matrix",
        "rowvec_mul",
    ),
    "companion": (
        "CompanionForm", "check_companion_identity", "reduce_to_companion",
        "reduce_to_companion_pi",
    ),
    "quadratics": (
        "MonicQuadratic", "RootReport", "find_roots_auto",
        "find_roots_enumerate", "find_roots_rational", "left_eval", "lift_root",
        "lift_root_truncated", "pi_roots", "right_roots", "w_roots",
    ),
    "certificates": (
        "CleanCertificate", "PiCertificate", "element_is_nilpotent",
        "verify_certificate", "verify_pi_certificate",
    ),
    "clean": (
        "CleanDecision", "RingCleanVerdict", "decide_strongly_clean",
        "ring_is_strongly_clean",
    ),
    "piregular": (
        "PiDecision", "RingPiVerdict", "decide_strongly_pi_regular",
        "ring_is_m2_pi_regular",
    ),
    "factorization": (
        "FactorizationWitness", "Poly", "star_factorize", "verify_factorization",
    ),
    "integer_matrices": (
        "IntCleanClass", "classify_integer", "integer_clean_decision",
        "integer_oracle",
    ),
    "bruteforce": ("brute_clean", "brute_pi"),
    "literals": (
        "matrix_to_literals", "parse_element", "parse_matrix", "parse_ring",
        "parse_ring_spec",
    ),
}
# exported name -> defining module; the errors module is exported as itself
_EXPORTS = {name: mod for mod, names in _MODULES.items() for name in names}

__all__ = ["errors", *_EXPORTS]


def __getattr__(name):
    if name == "errors":
        return import_module(".errors", __name__)
    mod = _EXPORTS.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{mod}", __name__), name)


def __dir__():
    return list(__all__)
