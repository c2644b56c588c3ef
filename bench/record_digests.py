"""Rewrite bench/digests.json from the sources under src/.

    python3 bench/record_digests.py

For each workload this records the golden digest (a fixed set of matrices,
checked on every run whatever its seed) and the digest of the first matrices
and CLI documents of each seed in run.DIGEST_SEEDS.  Run it only on a commit
whose outputs are meant to be the reference: a later change that alters a
verdict, method, witness, certificate or CLI document then fails the
benchmark.
"""

import json
import sys

import run


def main():
    pkg = run.Package()
    out = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        golden, proc = run.golden_digest(pkg, workload)
        seeds = {}
        for seed in run.DIGEST_SEEDS:
            seeds[str(seed)], seed_proc = run.record_digest(pkg, workload, seed)
            proc.failures.update(seed_proc.failures)
        if proc.failures:
            sys.exit(f"{name}: outputs fail their checks, not recording: {dict(proc.failures)}")
        out[name] = {"golden": golden, "seeds": seeds}
        print(f"{name}: golden and {len(run.DIGEST_SEEDS)} seeds", flush=True)
    run.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
