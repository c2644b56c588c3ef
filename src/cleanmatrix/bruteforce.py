"""Brute-force ground truth on small finite rings.

Everything here runs on int-indexed operation tables, the ring's own fully
filled IndexTables, and shares no logic with the decision modules: kernels
are counted by meeting the two columns, and both oracles walk the kernel
chain of the powers.  The oracle shares only the certificates module with
the deciders, and imports neither of them: verify_certificate, applied to its
own output as a final cross-check.

(x, y) lies in the kernel of [[a, b], [c, d]] exactly when
(a x, c x) = (-(b y), -(d y)), so one pass over x counts the left sides and
one pass over y adds up the counts of the right sides: |ker| in 2|R| steps,
and the matrix is invertible exactly when |ker| = 1.

R^2 = ker(A^n) (+) im(A^n) for the least n >= 1 with |ker A^n| = |ker A^(n+1)|:
- the kernels are nested, and constant from the first n with
  ker A^n = ker A^(n+1); so the sizes agree at n exactly when
  ker A^n = ker A^(2n);
- that holds exactly when ker A^n meets im A^n in 0, since A^n v lies in
  ker A^n exactly when v lies in ker A^(2n);
- |ker A^n| |im A^n| = |R|^2 for a map of additive groups, so a zero meet
  makes ker A^n + im A^n all of R^2.
Each strict step of the chain at least doubles the kernel, so it stops
within log2 |R|^2 steps.  Call that n N.

The clean idempotent is the Fitting projection onto ker A^N along im A^N
(Nicholson, Strongly clean rings and Fitting's lemma, 1999).  E = 0 works
when A is invertible and E = I when I - A is; brute_clean takes these first.
Otherwise neither works, and every clean E is that projection:
- E commutes with A, and so does U = A - E; so A and U map the summands
  im E and ker E of R^2 into themselves, and U is invertible on each;
- a summand of R^2 over a local ring is free; as E is not 0 or I, im E and
  ker E are free of rank one, and A acts on each as an element of R;
- on ker E, A = U acts as a unit; on im E, A acts as some a with a - 1 a
  unit, and a is not a unit, since A is not invertible.  So a lies in J,
  which is nilpotent on a finite ring;
- hence im E lies in ker A^N and ker E in im A^N.  As ker A^N meets
  im A^N in 0 and im E + ker E = R^2, the two inclusions are equalities.
Conversely that projection is clean, so A is clean exactly when 0, I or it
works, and the clean E of a nontrivial A is unique.

Both Fitting summands are then free of rank one, so each has a generator
with a unit coordinate:
- ker A^N holds exactly one u = (1, y), or u = (x, 1) with x in J: u r has
  first coordinate 1 only for r = 1 when u = (1, y), and never when u = (x, 1);
- im A^N is spanned by the columns of A^N, so one of them has a unit
  coordinate, and any such column w generates it;
- the rows phi with phi w = 0 are the left multiples of one row psi, and
  psi u is a unit since (u, w) is a basis, so exactly one phi has
  phi w = 0 and phi u = 1.  For w = (w0, w1) with w0 a unit,
  phi = (-(q w1) w0^-1, q), and a pass over q in R finds it; likewise when
  w1 is the unit.
E = u phi fixes u (E u = u (phi u)) and kills w, so it is the projection.
"""

from .certificates import CleanCertificate, verify_certificate
from .errors import InternalContractViolation, TooLarge
from .matrices import Mat2

ORACLE_CAP = 256  # largest ring the oracles take
_TABLE_CACHE = {}


class _Tables:
    def __init__(self, R):
        tables = R.filled_tables()
        self.elements = tables.elements
        self.size = tables.size
        self.add = tables.add
        self.mul = tables.mul
        self.neg = tables.neg
        self.inv = tables.inv  # an index at least size marks a non-unit
        self.zero = R._index(R.zero)
        self.one = R._index(R.one)
        self.radical = [i for i, x in enumerate(self.elements) if R.in_radical(x)]

    def matrix_indices(self, A):
        return tuple(map(A.ring._index, A.entries()))


def _tables(R):
    if not R.is_finite:
        raise TooLarge("brute-force oracle needs a finite ring")
    if R.size() > ORACLE_CAP:
        raise TooLarge(f"ring has {R.size_text()} elements, oracle cap is {ORACLE_CAP}")
    key = R.spec_string()
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    tab = _Tables(R)
    _TABLE_CACHE[key] = tab
    return tab


def _kernel_size(tab, m):
    """|ker m| on R^2, by the counted meet of the module docstring."""
    n = tab.size
    mul = tab.mul
    neg = tab.neg
    a, b, c, d = m
    an, bn, cn, dn = a * n, b * n, c * n, d * n
    counts = {}
    for x in range(n):
        key = mul[an + x] * n + mul[cn + x]
        counts[key] = counts.get(key, 0) + 1
    size = 0
    for y in range(n):
        size += counts.get(neg[mul[bn + y]] * n + neg[mul[dn + y]], 0)
    return size


def _kernel_chain(tab, m, kernel):
    """(N, A^N) for A = m with |ker A| = kernel: the least N >= 1 at which the
    kernel chain of the module docstring stops growing, and that power.  An
    invertible A stops at N = 1, with no further kernel to count."""
    if kernel == 1:
        return 1, m
    n = tab.size
    mul = tab.mul
    add = tab.add
    a, b, c, d = m
    for power in range(1, (n * n).bit_length() + 1):
        ma, mb, mc, md = m
        following = (
            add[mul[ma * n + a] * n + mul[mb * n + c]],
            add[mul[ma * n + b] * n + mul[mb * n + d]],
            add[mul[mc * n + a] * n + mul[md * n + c]],
            add[mul[mc * n + b] * n + mul[md * n + d]],
        )
        previous, kernel = kernel, _kernel_size(tab, following)
        if kernel == previous:
            return power, m
        m = following
    raise InternalContractViolation("kernel chain grew past log2 |R|^2 steps")


def _fitting_idempotent(tab, power):
    """E = u phi of the module docstring, the projection onto ker A^N along
    im A^N, from power = A^N for an A with neither A nor I - A invertible."""
    n = tab.size
    mul = tab.mul
    add = tab.add
    neg = tab.neg
    inv = tab.inv
    zero, one = tab.zero, tab.one
    ma, mb, mc, md = power
    gens = [(one, y) for y in range(n)
            if add[ma * n + mul[mb * n + y]] == zero and add[mc * n + mul[md * n + y]] == zero]
    gens += [(x, one) for x in tab.radical
             if add[mul[ma * n + x] * n + mb] == zero and add[mul[mc * n + x] * n + md] == zero]
    w0, w1 = (ma, mc) if inv[ma] < n or inv[mc] < n else (mb, md)
    if len(gens) != 1 or not (inv[w0] < n or inv[w1] < n):
        raise InternalContractViolation("ker A^N or im A^N is not free of rank one")
    [(u0, u1)] = gens
    if inv[w0] < n:  # phi = (-(q w1) w0^-1, q)
        rows = ((neg[mul[mul[q * n + w1] * n + inv[w0]]], q) for q in range(n))
    else:  # phi = (p, -(p w0) w1^-1)
        rows = ((p, neg[mul[mul[p * n + w0] * n + inv[w1]]]) for p in range(n))
    for p, q in rows:
        if add[mul[p * n + u0] * n + mul[q * n + u1]] == one:
            return (mul[u0 * n + p], mul[u0 * n + q], mul[u1 * n + p], mul[u1 * n + q])
    raise InternalContractViolation("no row meets u in 1 and kills w")


def _clean_certificate(A, tab, m, kernel, chain=None):
    """brute_clean(A) for A = m with |ker A| = kernel; chain is A's
    (N, A^N) when the caller has walked it, and is walked here only when
    neither 0 nor I is clean."""
    R = A.ring
    n = tab.size
    add = tab.add
    neg = tab.neg
    zero, one = tab.zero, tab.one
    a, b, c, d = m
    if kernel == 1:
        e = (zero, zero, zero, zero)
    elif _kernel_size(tab, (add[one * n + neg[a]], neg[b], neg[c], add[one * n + neg[d]])) == 1:
        e = (one, zero, zero, one)
    else:
        e = _fitting_idempotent(tab, (chain or _kernel_chain(tab, m, kernel))[1])
    els = tab.elements
    E = Mat2(R, *(els[i] for i in e))
    cert = CleanCertificate(E=E, U=A - E)
    if not verify_certificate(A, cert):
        raise InternalContractViolation("oracle certificate fails verification")
    return cert


def brute_clean(A: Mat2):
    """A verified clean certificate with E = 0, else E = I, else the Fitting
    projection of the module docstring.  Over a finite local ring one of the
    three is always clean, so the oracle never answers None."""
    tab = _tables(A.ring)
    m = tab.matrix_indices(A)
    return _clean_certificate(A, tab, m, _kernel_size(tab, m))


def brute_pi(A: Mat2):
    """Smallest n with R^2 = ker(A^n) (+) im(A^n): the first n at which the
    kernel chain of the module docstring stops growing."""
    tab = _tables(A.ring)
    m = tab.matrix_indices(A)
    return _kernel_chain(tab, m, _kernel_size(tab, m))[0]


def brute_both(A: Mat2):
    """(brute_clean(A), brute_pi(A)) from one walk of A's kernel chain, for a
    sweep that asks both oracles about each matrix."""
    tab = _tables(A.ring)
    m = tab.matrix_indices(A)
    kernel = _kernel_size(tab, m)
    chain = _kernel_chain(tab, m, kernel)
    return _clean_certificate(A, tab, m, kernel, chain), chain[0]
