"""Seeded input generation for the benchmark workloads.

Inputs are built as text: element literals in the package's grammar and
matrix literals [[a,b],[c,d]].  Nothing here imports cleanmatrix, so the
package only ever sees the generated literals.  Conjugated companion forms
are built symbolically: the product L U C U^-1 L^-1 is written out as a
literal expression with L, U elementary and their inverses known, and the
package's own parser evaluates it.

Every stream is a pure function of (seed, workload, ring): the same seed
gives the same inputs in the same order.
"""

import itertools
import random
from dataclasses import dataclass


# --------------------------------------------------------- element literals


def _poly_literal(coeffs, var):
    """sum c_i var^i for coefficient literals c_i; "0" when all vanish."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == "0":
            continue
        if i == 0:
            terms.append(c)
            continue
        power = var if i == 1 else f"{var}^{i}"
        if c == "1":
            terms.append(power)
        elif "+" in c or "-" in c or "*" in c:
            terms.append(f"({c})*{power}")
        else:
            terms.append(f"{c}*{power}")
    return "+".join(terms) or "0"


class FiniteLiterals:
    """Every element literal of a finite ring; `radical` is the subset
    with zero residue, the rest are units."""

    finite = True

    def __init__(self, spec, elements, radical):
        self.spec = spec
        self.elements = elements
        self.radical = radical

    def any(self, rng):
        return rng.choice(self.elements)

    def in_radical(self, rng):
        return rng.choice(self.radical)


def zmod(p, k):
    els = [str(i) for i in range(p**k)]
    return FiniteLiterals(f"Zmod({p},{k})", els, [e for e in els if int(e) % p == 0])


def _gf_coefficients(p, m):
    return [
        _poly_literal([str(c) for c in vec], "w")
        for vec in itertools.product(range(p), repeat=m)
    ]


def gf(p, m):
    els = _gf_coefficients(p, m)
    return FiniteLiterals(f"GF({p},{m})", els, ["0"])


def trunc(p, m, n, s=None):
    """Trunc(GF(p,m),n), or SkewTrunc(GF(p,m),s,n) when s is given."""
    base = f"GF({p})" if m == 1 else f"GF({p},{m})"
    coeffs = _gf_coefficients(p, m)
    if s is None:
        spec, var = f"Trunc({base},{n})", "y"
    else:
        spec, var = f"SkewTrunc({base},{s},{n})", "x"
    els, radical = [], []
    for vec in itertools.product(coeffs, repeat=n):
        lit = _poly_literal(list(vec), var)
        els.append(lit)
        if vec[0] == "0":
            radical.append(lit)
    return FiniteLiterals(spec, els, radical)


class LocalizedLiterals:
    """Fractions a/b of Zloc(p): small numerators, denominators prime to p."""

    finite = False

    def __init__(self, p, bound=6):
        self.spec = f"Zloc({p})"
        self.p = p
        self.bound = bound
        self.dens = [d for d in range(1, bound) if d % p]

    def _frac(self, num, rng):
        den = rng.choice(self.dens)
        return str(num) if den == 1 else f"{num}/{den}"

    def any(self, rng):
        return self._frac(rng.randint(-self.bound, self.bound), rng)

    def in_radical(self, rng):
        return self._frac(self.p * rng.randint(-2, 2), rng)


class IntegerLiterals:
    """Integers in [-bound, bound].  Z is not local, so it has no radical
    draws; integer_structured builds its shaped matrices instead."""

    finite = False
    spec = "Z"

    def __init__(self, bound=6):
        self.bound = bound

    def any(self, rng):
        return str(rng.randint(-self.bound, self.bound))



# --------------------------------------------------------- matrix literals


def _mul(a, b):
    if a == "0" or b == "0":
        return "0"
    if a == "1":
        return b
    if b == "1":
        return a
    return f"({a})*({b})"


def _add(a, b):
    if a == "0":
        return b
    if b == "0":
        return a
    return f"{a}+{b}"


def _matmul(X, Y):
    return tuple(
        tuple(_add(_mul(X[i][0], Y[0][j]), _mul(X[i][1], Y[1][j])) for j in range(2))
        for i in range(2)
    )


def _neg(a):
    return "0" if a == "0" else f"-({a})"


def conjugated(C, a, b):
    """Literal of P C P^-1 with P = L U, U = [[1,a],[0,1]], L = [[1,0],[b,1]]."""
    U, Ui = (("1", a), ("0", "1")), (("1", _neg(a)), ("0", "1"))
    L, Li = (("1", "0"), (b, "1")), (("1", "0"), (_neg(b), "1"))
    return _matmul(_matmul(_matmul(_matmul(L, U), C), Ui), Li)


def matrix_literal(M):
    (a, b), (c, d) = M
    return f"[[{a},{b}],[{c},{d}]]"


def structured(lits, rng):
    """A conjugated normal form chosen to reach the reduced decision paths:
    the clean companion [[0,w0],[1,1+w1]], the pi companion [[0,w],[1,r]],
    or a nilpotent [[0,w],[0,0]], each with w, w0, w1 in the radical."""
    shape = rng.random()
    if shape < 0.45:
        C = (("0", lits.in_radical(rng)), ("1", _add("1", lits.in_radical(rng))))
    elif shape < 0.9:
        C = (("0", lits.in_radical(rng)), ("1", lits.any(rng)))
    else:
        C = (("0", lits.in_radical(rng)), ("0", "0"))
    return conjugated(C, lits.any(rng), lits.any(rng))


def uniform(lits, rng):
    return ((lits.any(rng), lits.any(rng)), (lits.any(rng), lits.any(rng)))


def integer_structured(lits, rng):
    """Z has no companion reduction: conjugate each integer normal form
    (the four clean diagonal classes, the pi idempotents, a nilpotent) by a
    unimodular L U instead."""
    d1, d2 = rng.choice(((1, 0), (-1, 0), (1, 2), (-1, 2), (0, 0), (3, 0)))
    C = ((str(d1), "0"), ("0", str(d2)))
    if (d1, d2) == (0, 0):
        C = (("0", str(rng.choice((1, 2, -3)))), ("0", "0"))
    a, b = str(rng.randint(-3, 3)), str(rng.randint(-3, 3))
    return conjugated(C, a, b)


# --------------------------------------------------------- workload streams


@dataclass(frozen=True)
class Item:
    ring: str
    matrix: str


def _rng(seed, *parts):
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def exhaustive_stream(lits, seed, tag):
    """Every matrix over a finite ring, in a seeded order, repeated."""
    n = len(lits.elements)
    els = lits.elements
    rng = _rng(seed, tag, lits.spec)
    order = list(range(n**4))
    while True:
        rng.shuffle(order)
        for flat in order:
            i, rest = divmod(flat, n**3)
            j, rest = divmod(rest, n * n)
            k, m = divmod(rest, n)
            yield Item(lits.spec, matrix_literal(((els[i], els[j]), (els[k], els[m]))))


def mixed_stream(lits, seed, tag):
    """Half uniform matrices, half conjugated normal forms."""
    rng = _rng(seed, tag, lits.spec)
    shaped = integer_structured if lits.spec == "Z" else structured
    while True:
        M = uniform(lits, rng) if rng.random() < 0.5 else shaped(lits, rng)
        yield Item(lits.spec, matrix_literal(M))


def round_robin(streams):
    """One item from each ring in turn, so the ring mix never depends on
    where a time-bounded run stops."""
    for group in zip(*streams):
        yield from group


@dataclass(frozen=True)
class Workload:
    name: str
    rings: tuple
    exhaustive: bool
    oracle: bool  # run brute_clean / brute_pi (finite) or integer_oracle (Z)
    cli_share: float  # share of the run's wall clock spent in CLI processes
    cli_kinds: tuple  # commands drawn for the CLI stream, by weight
    digest_items: int  # in-process items covered by the output digest
    digest_docs: int  # CLI documents covered by the output digest

    def _streams(self, seed, tag):
        make = exhaustive_stream if self.exhaustive else mixed_stream
        return [make(lits, seed, tag) for lits in self.rings]

    def items(self, seed, tag="items"):
        return round_robin(self._streams(seed, tag))

    def cli_calls(self, seed):
        """(command, item) pairs, rings in turn.  A factor item carries the
        polynomial "a1,a0" in place of a matrix; a verify item is a
        placeholder, since verify re-checks the last emitted document."""
        rng = _rng(seed, self.name, "cli-kinds")
        kinds, weights = zip(*self.cli_kinds)
        streams = self._streams(seed, "cli")
        for i in itertools.count():
            lits = self.rings[i % len(self.rings)]
            item = next(streams[i % len(streams)])
            kind = rng.choices(kinds, weights)[0]
            if kind == "factor":
                item = Item(lits.spec, poly_literal(lits, rng))
            yield kind, item


def poly_literal(lits, rng):
    """Coefficients a1,a0 of t^2 + a1 t + a0: half from the family
    t^2 - t(1+w1) - w0 with w0, w1 in the radical, which needs root search,
    half uniform, which mostly splits trivially."""
    if rng.random() < 0.5:
        return f"-(1+{lits.in_radical(rng)}),-({lits.in_radical(rng)})"
    return f"{lits.any(rng)},{lits.any(rng)}"


# Every workload reports every end-to-end metric, CLI latency included, so
# each spends a share of its run in CLI children on its own kind of input;
# cli-calls is the one where they dominate and the only one that runs factor
# and verify.  BENCHMARK.json says why each workload is there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-sweep",
            (zmod(2, 2), trunc(2, 1, 2), gf(2, 2), zmod(2, 3), zmod(3, 2), trunc(2, 1, 3)),
            exhaustive=True,
            oracle=True,
            cli_share=0.3,
            cli_kinds=(("decide", 1), ("pi", 1)),
            digest_items=60,
            digest_docs=4,
        ),
        Workload(
            "mid-random",
            (zmod(2, 8), trunc(2, 2, 4), trunc(2, 2, 3, s=1), gf(2, 4), zmod(5, 2)),
            exhaustive=False,
            oracle=False,
            cli_share=0.3,
            cli_kinds=(("decide", 1), ("pi", 1)),
            digest_items=50,
            digest_docs=4,
        ),
        Workload(
            "local-exact",
            (LocalizedLiterals(2), LocalizedLiterals(3), IntegerLiterals()),
            exhaustive=False,
            oracle=True,
            cli_share=0.3,
            cli_kinds=(("decide", 1), ("pi", 1)),
            digest_items=150,
            digest_docs=4,
        ),
        Workload(
            "cli-calls",
            (zmod(2, 3), gf(2, 2), trunc(2, 1, 3), zmod(2, 8), trunc(2, 2, 2, s=1), LocalizedLiterals(2)),
            exhaustive=False,
            oracle=False,
            cli_share=0.6,
            cli_kinds=(("decide", 35), ("pi", 30), ("factor", 15), ("verify", 20)),
            digest_items=60,
            digest_docs=12,
        ),
    )
}
