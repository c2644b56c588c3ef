"""The selftest sweep: both deciders against both brute-force oracles, one
matrix after another in a fixed order."""

from .errors import CleanMatrixError, InternalContractViolation
from .literals import parse_ring
from .matrices import Mat2


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


def selftest(spec_text) -> bool:
    """Sweep the ring of spec_text, print the agreement report, and say
    whether every matrix agreed.

    Both deciders are run against both oracles, which answer each matrix
    from one walk of its kernel chain (brute_both), certificates compared: the
    clean status, and on a NontrivialClean matrix the idempotent E itself,
    which is unique there (the Fitting projection, see the bruteforce
    module), and the splitting power against brute_pi's.  A decision that
    fails its own certificate check counts as a mismatch of its comparison
    alone, and an oracle that raises as a mismatch of both."""
    R = parse_ring(spec_text)
    if not R.is_finite:
        raise CleanMatrixError("selftest needs a finite ring")
    from .bruteforce import _tables, brute_both
    from .clean import decide_strongly_clean
    from .piregular import decide_strongly_pi_regular

    _tables(R)  # TooLarge above ORACLE_CAP, before sampling or enumerating
    n = R.size()
    total_all = n ** 4
    if total_all <= 6561:
        flat_indices = range(total_all)
        scope = "exhaustive"
    else:
        import random

        rng = random.Random(0)
        flat_indices = sorted(rng.sample(range(total_all), 1000))
        scope = "sampled"
    els = R.enumerate_elements("All")
    clean_ok = pi_ok = 0
    mismatches = []
    for flat in flat_indices:
        i, rest = divmod(flat, n * n * n)
        j, rest = divmod(rest, n * n)
        k, l = divmod(rest, n)
        A = Mat2(R, els[i], els[j], els[k], els[l])
        try:
            brute, power = brute_both(A)
            oracle_ok = True
        except InternalContractViolation:
            oracle_ok = False  # fails both comparisons
        try:
            dec = decide_strongly_clean(A)
            agree = oracle_ok and (dec.status == "NotClean") == (brute is None) and (
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
            agree = oracle_ok and dec.status != "No" and _pi_power(R, dec.certificate) == power
        except InternalContractViolation:
            agree = False
        if agree:
            pi_ok += 1
        else:
            mismatches.append(("pi", flat))
    total = len(flat_indices)
    print(f"ring: {R.spec_string()}")
    print(f"scope: {scope}")
    print(f"matrices: {total}")
    print(f"clean agreements: {clean_ok}/{total}")
    print(f"pi agreements: {pi_ok}/{total}")
    for kind, flat_index in mismatches:
        print(f"mismatch: {kind} at matrix index {flat_index}")
    return not mismatches
