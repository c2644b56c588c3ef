"""The selftest sweep: both deciders against both brute-force oracles.

CLEANMATRIX_THREADS caps selftest parallelism: unset or 1 runs serially, a
larger value splits the sweep over a process pool of at most that many
workers, one per CPU and one per chunk at most; chunk merge order is fixed
either way, so output does not depend on the worker count.
"""

import os

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


def selftest(spec_text) -> bool:
    """Sweep the ring of spec_text, print the agreement report, and say
    whether every matrix agreed."""
    R = parse_ring(spec_text)
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
    return not mismatches
