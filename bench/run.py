"""Benchmark for cleanmatrix: end-to-end and per-layer timings, from outside.

    python3 bench/run.py --workload small-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root (any directory holding src/cleanmatrix and
bench/).  The package is imported from src/ and driven only through its
public functions and its command line; nothing under src/ is changed.

--trace 0 measures the end-to-end metrics for --seconds of wall clock:
in-process matrices (parse, both deciders, both certificate re-checks and,
where the workload has them, the oracles) interleaved with CLI child
processes on the same kind of input.  The result line carries:
  matrices_per_s     in-process matrices fully processed per busy second
  *_us_p50           median decide_strongly_clean (clean_) or
                     decide_strongly_pi_regular (pi_) call by status class
                     (trivial: ends TrivialUnit, TrivialOneMinusUnit or
                     TrivialNilpotent; reduced: the rest), as the geometric
                     mean over (ring, status) cells of each cell's median,
                     so that the seed's mix of cells cannot move it;
                     pi_trivial_us_p50 is in the record only (see UNGATED)
  *_reduced_us_p98   98th percentile of a reduced call: the highest with
                     about ten samples beyond it on mid-random, the workload
                     with the fewest
  cli_ms_p50, _p90   wall time of one `python -m cleanmatrix` process
  setup_s            median over child interpreters spread across the run of
                     import, rings, element caches, oracle tables and one
                     warm-up matrix per ring
  peak_rss_mb        ru_maxrss of this process, which runs one workload
Times are scaled to a reference machine speed, so that a shared machine in
a slow spell does not pass for a slower program: each in-process timing by
the pure-Python probe read on either side of its 50 ms slot (probe_ns),
each CLI time by the start-up of an empty interpreter on either side of the
call (spawn_ms), and each set-up child by the probe in that child.  The record keeps the unscaled
figures as raw_metrics, with the factors, the p50 per ring and status, and
error_rate, failed over attempted, whose two counts are on the result line.

--trace 1 processes a fixed, seed-determined set of matrices twice, untraced
and traced in alternating blocks, and reports per-layer counts per matrix,
self times over the set, ns per ring operation on the workload's own
entries (mean over its rings), CLI import and in-process cli.run times, and
trace.overhead, the traced over the untraced matrices_per_s.  End-to-end
numbers never come from a traced run.

Every output is checked: certificates are re-verified, oracles must agree,
CLI documents and exit codes must match the in-process decisions, and a
digest of verdicts, methods, witnesses, certificates and CLI documents is
compared with bench/digests.json.  Any failure is counted by kind and never
aborts the run.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record, also written under bench/out/.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the package sources are missing.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, namedtuple
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
from inputs import WORKLOADS, Item  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 9
IMPORT_PROBES = 5
CLI_TIMEOUT_S = 60
CLI_BLOCK_S = 2.5
PROBE_EVERY_S = 0.05  # in-process work between two speed probes
PROBE_REPS = 5
# The reference machine speed that timings are scaled to:
# ns of one probe_kernel() and ms of one `python -c pass` process on a
# 2-core x86 VM with Python 3.11 in its faster spells.
PROBE_REF_NS = 100_000
SPAWN_REF_MS = 50.0
WARMUP_MATRIX = "[[0,0],[1,1]]"  # a companion form: reaches every decision layer
GOLDEN_SEED = "golden"
DIGEST_SEEDS = range(100)  # seeds whose output digest bench/digests.json holds
# matrices per second of --seconds in a traced run: each of its two passes
# takes about a tenth of --seconds on a 2-core x86 machine
TRACE_RATE = {"small-sweep": 20, "mid-random": 8, "local-exact": 60, "cli-calls": 10}
TRACE_BLOCKS = 20
CLASSES = {
    "clean_trivial": ("clean:TrivialUnit", "clean:TrivialOneMinusUnit"),
    "clean_reduced": ("clean:NontrivialClean", "clean:NotClean"),
    "pi_trivial": ("pi:TrivialUnit", "pi:TrivialNilpotent"),
    "pi_reduced": ("pi:Nontrivial", "pi:No"),
}
MIN_CELL = 5  # samples a (ring, status) cell needs to enter a p50
# In the record but not on the result line.  Its TrivialNilpotent cells
# hold 8-66 calls a run on mid-random and cli-calls, whose times spread over
# a factor of ten, so it moved by 0.15 (IQR over median) between seeds.
UNGATED = ("pi_trivial_us_p50",)
MODULES = (
    "rings", "matrices", "companion", "quadratics", "clean", "piregular",
    "bruteforce", "integer_matrices", "literals", "factorization", "errors",
)


# ------------------------------------------------------------------ package


class Package:
    """cleanmatrix imported from src/, with its modules as attributes."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"cleanmatrix.{name}"))

    def cli(self):
        return importlib.import_module("cleanmatrix.cli")


def setup(workload):
    """The package's own set-up: import, rings, element caches, oracle
    tables, one warm-up matrix per ring.  Returns (package, seconds)."""
    start = time.perf_counter()
    pkg = Package()
    proc = Processor(pkg, workload)
    for lits in workload.rings:
        R = proc.ring(lits.spec)
        if R.is_finite:
            for subset in ("All", "Units", "Radical", "OnePlusRadical"):
                R.enumerate_elements(subset)
            if workload.oracle:
                pkg.bruteforce._tables(R)
        proc.process(Item(lits.spec, WARMUP_MATRIX))
    return pkg, time.perf_counter() - start


def setup_in_child(workload, env):
    """Seconds of set-up in a fresh interpreter, as a user pays it, and the
    speed factor of the machine around it (see probe_ns)."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
        "before = run.probe_ns(); "
        f"seconds = run.setup(run.WORKLOADS[{workload.name!r}])[1]; "
        "print(seconds, before, run.probe_ns())"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S, check=True)
    seconds, before, after = (float(x) for x in done.stdout.split())
    return seconds, speed_factor(PROBE_REF_NS, [before, after])


# -------------------------------------------------------------- machine speed


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def mul(self, other, m):
        return _Cell(self.v * other.v % m)


def probe_kernel():
    """Fixed pure-Python work of the package's kind: small objects, method
    calls, int arithmetic, tuples and dict lookups."""
    seen = {}
    acc, step = _Cell(1), _Cell(75)
    for i in range(200):
        acc = acc.mul(step, 65537)
        key = (acc.v & 255, i & 7)
        seen[key] = seen.get(key, 0) + 1
    return len(seen) + acc.v


def probe_ns():
    """Mean ns of PROBE_REPS probe_kernel() runs.

    A shared machine has slow spells: on a shared 2-core VM the same
    pure-Python work took up to 2.2 times as long, from tens of
    milliseconds to minutes at a time.  A run reads this probe every
    PROBE_EVERY_S of in-process work and scales the timings between two
    readings by speed_factor of the two, so that runs compare as if taken
    at the reference speed.  One factor for a whole run, the median
    reading, left the time the run spent in slow spells in its figures: the
    98th percentile moved by 0.38 (IQR over median) across 17 s windows of
    one process timing the same 1,200 small-sweep matrices, against 0.03
    with factors taken either side of each 50 ms slot."""
    start = time.perf_counter_ns()
    for _ in range(PROBE_REPS):
        probe_kernel()
    return (time.perf_counter_ns() - start) / PROBE_REPS


def spawn_ms(env):
    """Wall ms of an interpreter that does nothing: the speed probe for
    command line calls, which spend much of their life starting up and
    importing, work that a slow spell stretches in its own way."""
    start = time.perf_counter()
    # output pipes, like a command line call: with a timeout and no pipes,
    # subprocess polls for the exit in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, cwd=ROOT, env=env,
                   timeout=CLI_TIMEOUT_S, check=True)
    return (time.perf_counter() - start) * 1e3


def speed_factor(reference, readings):
    """The reference over the median reading: above 1 when the machine ran
    faster than the reference, below 1 when slower.  Readings are taken on
    either side of the work they scale: one factor for a whole run, from
    its median reading, left the time the run spent in slow spells in its
    figures, and one reading for each call inflated the tail percentiles."""
    return reference / statistics.median(readings)


# ---------------------------------------------------------------- processing

# One matrix processed: whether every check held, ns from parse to the
# oracles, and a Call for each decider: its ring, "clean:"/"pi:" status and
# microseconds.
Timing = namedtuple("Timing", "ok total_ns calls")
Call = namedtuple("Call", "ring status us")


class Processor:
    """Runs matrices and CLI calls through the package and checks them.

    Functions are looked up on the module objects at call time, so a tracer
    installed on those modules sees every call, the checks included."""

    def __init__(self, pkg, workload):
        self.pkg = pkg
        self.workload = workload
        self.rings = {}
        self.samples = {"parse": array("d"), "cli": array("d")}
        self.statuses = Counter()
        self.failures = Counter()
        self.attempted = 0
        self.digest_lines = []
        self.docs = []
        self.last_doc = None
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))

    def ring(self, spec):
        R = self.rings.get(spec)
        if R is None:
            R = self.rings[spec] = self.pkg.literals.parse_ring(spec)
        return R

    # ------------------------------------------------------------ in-process

    def process(self, item, keep_digest=False):
        """One matrix through parse, both deciders, both re-checks and the
        oracles.  Returns its Timing, or None when a step raised."""
        self.attempted += 1
        pkg = self.pkg
        clock = time.perf_counter_ns
        t0 = clock()
        try:
            R = self.ring(item.ring)
            A = pkg.literals.parse_matrix(R, item.matrix)
            t1 = clock()
            dec = pkg.clean.decide_strongly_clean(A)
            t2 = clock()
            clean_ok = dec.certificate is None or self._clean_cert_holds(A, dec.certificate)
            t3 = clock()
            pdec = pkg.piregular.decide_strongly_pi_regular(A)
            t4 = clock()
            pi_ok = pdec.certificate is None or pkg.piregular.verify_pi_certificate(A, pdec.certificate)
            oracle = self._oracle(R, A, dec, pdec)
            t5 = clock()
        except Exception as exc:  # a failed operation is counted, never fatal
            self.failures[f"exception:{type(exc).__name__}"] += 1
            return None
        ok = True
        for good, kind in ((clean_ok, "clean_verify"), (pi_ok, "pi_verify"), (oracle, "oracle_disagrees")):
            if not good:
                self.failures[kind] += 1
                ok = False
        self.samples["parse"].append((t1 - t0) / 1e3)
        self.statuses[f"clean:{dec.status}:{dec.method}"] += 1
        self.statuses[f"pi:{pdec.status}"] += 1
        if keep_digest:
            self.digest_lines.append(json.dumps(
                [item.ring, item.matrix, self._clean_summary(R, dec), self._pi_summary(R, pdec)],
                sort_keys=True,
            ))
        return Timing(ok, t5 - t0, (
            Call(item.ring, f"clean:{dec.status}", (t2 - t1) / 1e3),
            Call(item.ring, f"pi:{pdec.status}", (t4 - t3) / 1e3),
        ))

    def _clean_cert_holds(self, A, cert):
        """The certificate equations and, when present, the diagonalization."""
        pkg = self.pkg
        if not pkg.clean.verify_certificate(A, cert):
            return False
        if cert.diag is None:
            return True
        t0, t1, P = cert.diag
        return pkg.matrices.conjugate(P, A) == pkg.matrices.Mat2.diag(A.ring, t0, t1)

    def _oracle(self, R, A, dec, pdec):
        """Do the oracles, which share no decision logic, agree?"""
        if not self.workload.oracle:
            return True
        pkg = self.pkg
        if R.is_finite:
            clean = pkg.bruteforce.brute_clean(A) is not None
            pi = pkg.bruteforce.brute_pi(A) is not None
            return clean == (dec.status != "NotClean") and pi == (pdec.status != "No")
        if R.family == "Integers":
            return pkg.integer_matrices.integer_oracle(A) == (dec.status != "NotClean")
        return True

    def _clean_summary(self, R, dec):
        return [dec.status, dec.method, dec.witness.text() if dec.witness else None,
                self._clean_cert_doc(R, dec.certificate)]

    def _clean_cert_doc(self, R, cert):
        """The certificate as the CLI's decide document writes it."""
        if cert is None:
            return None
        lit = self.pkg.literals.matrix_to_literals
        doc = {"E": lit(cert.E), "U": lit(cert.U)}
        if cert.diag is not None:
            t0, t1, P = cert.diag
            doc["diag"] = {"t0": R.format_element(t0), "t1": R.format_element(t1), "P": lit(P)}
        return doc

    def _pi_summary(self, R, pdec):
        cert = pdec.certificate
        doc = None
        if cert is not None:
            doc = {"kind": cert.kind, "index": cert.index}
            if cert.kind == "diag":
                doc.update(t0=R.format_element(cert.t0), t1=R.format_element(cert.t1),
                           P=self.pkg.literals.matrix_to_literals(cert.P))
        return [pdec.status, pdec.witness.text() if pdec.witness else None, doc]

    # ------------------------------------------------------------------- CLI

    def cli_argv(self, kind, item):
        """(argv, stdin text) for one command line call."""
        if kind == "verify":
            if self.last_doc is not None:
                return ["verify"], self.last_doc
            kind = "decide"
        if kind == "factor":
            return ["factor", "--ring", item.ring, f"--poly={item.matrix}", "--json"], None
        return [kind, "--ring", item.ring, "--matrix", item.matrix, "--json"], None

    def cli_subprocess(self, argv, stdin):
        """Run `python -m cleanmatrix` once; (exit code, stdout, wall ms)."""
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "cleanmatrix", *argv], input=stdin, capture_output=True,
            text=True, cwd=ROOT, env=self.env, timeout=CLI_TIMEOUT_S,
        )
        return done.returncode, done.stdout, (time.perf_counter() - start) * 1e3

    def cli_in_process(self, argv, stdin):
        """cli.run(argv) in this process; (exit code, stdout, wall ms)."""
        run = self.pkg.cli().run
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = run(argv)
                ms = (time.perf_counter() - start) * 1e3
        finally:
            sys.stdin = saved
        return code, out.getvalue(), ms

    def cli_call(self, kind, item, runner, keep_digest=False):
        """One CLI call through `runner`, checked against the library."""
        self.attempted += 1
        argv, stdin = self.cli_argv(kind, item)
        try:
            code, stdout, ms = runner(argv, stdin)
            ok = self._check_doc(argv, stdin, code, stdout)
        except Exception as exc:
            self.failures[f"cli_exception:{type(exc).__name__}"] += 1
            return False
        self.samples["cli"].append(ms)
        if argv[0] != "verify":
            self.last_doc = stdout
        if keep_digest:
            self.docs.append(f"{' '.join(argv)}\n{code}\n{stdout}")
        return ok

    def _check_doc(self, argv, stdin, code, stdout):
        """Exit code and document agree with an in-process decision."""
        pkg = self.pkg
        kind = argv[0]
        if kind == "verify":
            sent = json.loads(stdin)
            has_cert = "certificate" in sent or isinstance(sent.get("witness"), dict)
            expect_code, expect = 0, {"verified": True if has_cert else None}
            got = json.loads(stdout) if code in (0, 2) else None
            return self._expect(code == expect_code and got == expect, code)
        R = self.ring(argv[2])
        if kind == "factor":
            a1, a0 = argv[3][len("--poly="):].split(",")
            f = pkg.quadratics.MonicQuadratic(R, pkg.literals.parse_element(R, a1), pkg.literals.parse_element(R, a0))
            try:
                pkg.factorization.star_factorize(f)
                expect_code, expect = 0, {"status": "Factored", "verified": True}
            except pkg.errors.NoFactorization:
                expect_code, expect = 2, {"status": "NoFactorization"}
        else:
            A = pkg.literals.parse_matrix(R, argv[4])
            if kind == "decide":
                dec = pkg.clean.decide_strongly_clean(A)
                expect_code = 2 if dec.status == "NotClean" else 0
                expect = {"status": dec.status, "method": dec.method,
                          "certificate": self._clean_cert_doc(R, dec.certificate)}
                if dec.certificate is not None:
                    expect["verified"] = True
            else:
                dec = pkg.piregular.decide_strongly_pi_regular(A)
                expect_code = 2 if dec.status == "No" else 0
                expect = {"status": dec.status}
                if dec.certificate is not None:
                    expect["verified"] = True
            if dec.witness is not None:
                expect["witness"] = dec.witness.text()
        if code != expect_code:
            return self._expect(False, code)
        got = json.loads(stdout)
        return self._expect(all(got.get(k) == v for k, v in expect.items()), code)

    def _expect(self, ok, code):
        if not ok:
            kind = "cli_document_mismatch" if code in (0, 2) else f"cli_exit_{code}"
            self.failures[kind] += 1
        return ok

    def digest(self):
        h = hashlib.sha256()
        for line in self.digest_lines + self.docs:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()


# ----------------------------------------------------------------- statistics


def quantile(values, q):
    """The q-quantile (0 < q < 1) by linear interpolation between order
    statistics; None when there are no samples."""
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class InProcess:
    """The in-process timings of a run, kept compact so that they hardly
    add to its peak_rss_mb: decider microseconds by (ring, status) cell,
    and the matrices whose every check held with their busy seconds."""

    def __init__(self):
        self.cells = {}
        self.matrices = 0
        self.busy_s = 0.0

    def add(self, timing, factor=1.0):
        """One Timing, or None for a matrix that raised, with its times
        multiplied by `factor`."""
        if timing is None:
            return
        for call in timing.calls:
            cell = self.cells.get((call.ring, call.status))
            if cell is None:
                cell = self.cells[(call.ring, call.status)] = array("d")
            cell.append(call.us * factor)
        if timing.ok:
            self.matrices += 1
            self.busy_s += timing.total_ns * factor / 1e9

    def matrices_per_s(self):
        return self.matrices / self.busy_s

    def pooled(self, key):
        return [us for (_, status), v in self.cells.items() if status in CLASSES[key] for us in v]

    def metrics(self):
        return {
            "matrices_per_s": metric(self.matrices_per_s(), "1/s"),
            **{f"{key}_us_p50": metric(stratified_median(self.cells, statuses), "us")
               for key, statuses in CLASSES.items()},
            "clean_reduced_us_p98": metric(quantile(self.pooled("clean_reduced"), 0.98), "us"),
            "pi_reduced_us_p98": metric(quantile(self.pooled("pi_reduced"), 0.98), "us"),
        }


def stratified_median(by_status, statuses):
    """Geometric mean of the median latency of each (ring, status) cell with
    one of `statuses`, over the cells with at least MIN_CELL samples (all
    cells, in a run too short to fill any).

    Latency differs between rings, and between statuses of one class (an
    I - A invertibility test costs more than an A test), far more than
    within one cell; a median pooled over cells would move with the seed's
    mix of cells.  This weighs every cell the same whatever the mix."""
    cells = [v for (_, status), v in by_status.items() if status in statuses]
    full = [v for v in cells if len(v) >= MIN_CELL] or cells
    return statistics.geometric_mean([quantile(v, 0.5) for v in full]) if full else None


def metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------------ records


def git_sha():
    """HEAD of the repository, or None in a checkout that is not one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_facts():
    files = sorted((SRC / "cleanmatrix").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": h.hexdigest()}


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def check_digests(expected, golden, seeded, seed):
    """{'golden': ..., 'seed': ...} with expected / actual / match each.  A
    missing golden digest, or a missing digest for a seed in DIGEST_SEEDS,
    is a mismatch.  A seed outside DIGEST_SEEDS has none to compare: its
    entry says match None, and a warning goes to stderr, since only the
    golden set, the certificate re-checks and the oracles then check it."""
    out = {
        "golden": {"expected": expected.get("golden"), "actual": golden},
        "seed": {"expected": expected.get("seeds", {}).get(str(seed)), "actual": seeded},
    }
    for entry in out.values():
        entry["match"] = entry["expected"] == entry["actual"]
    if seed not in DIGEST_SEEDS:
        out["seed"]["match"] = None
        print(f"warning: seed {seed} is outside the recorded digest seeds "
              f"{DIGEST_SEEDS.start}-{DIGEST_SEEDS.stop - 1}; its outputs are not compared "
              "with a committed digest", file=sys.stderr)
    return out


def golden_digest(pkg, workload):
    """Digest of a fixed, seed-independent set of matrices, checked on every
    run whatever its seed; it also warms the code paths up."""
    proc = Processor(pkg, workload)
    items = workload.items(GOLDEN_SEED)
    for _ in range(workload.digest_items):
        proc.process(next(items), keep_digest=True)
    return proc.digest(), proc


def record_digest(pkg, workload, seed):
    """The digest of the first matrices and CLI calls of a seed, which every
    run covers, computed without timing and with CLI documents in-process."""
    proc = Processor(pkg, workload)
    items = workload.items(seed)
    calls = workload.cli_calls(seed)
    for _ in range(workload.digest_items):
        proc.process(next(items), keep_digest=True)
    for _ in range(workload.digest_docs):
        proc.cli_call(*next(calls), proc.cli_in_process, keep_digest=True)
    return proc.digest(), proc


# ----------------------------------------------------------------- measuring


def measure(pkg, workload, seed, seconds):
    """Closed loop for `seconds` of wall clock, one thing at a time, in
    blocks of CLI_BLOCK_S: in-process matrices for the first 1 - cli_share
    of each block, CLI children for the rest.  Blocks spread both kinds of
    work over the whole run, and keep the cold caches a child process leaves
    behind from slowing more than the first few matrices of a block.
    Set-up children are spread evenly over the run too, outside its clock.
    In-process matrices go in slots of PROBE_EVERY_S, and CLI calls one at
    a time, each with a speed probe on either side.  Runs past `seconds`
    only to finish the digest prefix.  Returns (processor, the in-process
    timings scaled and unscaled as InProcess, the speed factors of the
    in-process slots, the speed factor around each CLI call in
    proc.samples["cli"], set-up seconds and speed factor of each child)."""
    proc = Processor(pkg, workload)
    scaled, raw = InProcess(), InProcess()
    factors, cli_factors, setups = array("d"), [], []
    spawn = None  # the last spawn reading, while no in-process work followed it
    items = workload.items(seed)
    calls = workload.cli_calls(seed)
    share = workload.cli_share
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    n_items = n_calls = 0
    while True:
        elapsed = clock() - start - paused
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            t = clock()
            proc.attempted += 1
            try:
                setups.append(setup_in_child(workload, proc.env))
            except (subprocess.SubprocessError, ValueError) as exc:
                proc.failures[f"setup_exception:{type(exc).__name__}"] += 1
                setups.append(None)
            paused += clock() - t
            continue
        need_items = n_items < workload.digest_items
        need_calls = n_calls < workload.digest_docs
        if elapsed >= seconds:
            if not (need_items or need_calls):
                break
            use_cli = need_calls
        else:
            use_cli = elapsed % CLI_BLOCK_S >= (1 - share) * CLI_BLOCK_S
        if use_cli:
            before = spawn_ms(proc.env) if spawn is None else spawn
            kind, item = next(calls)
            timed = len(proc.samples["cli"])
            proc.cli_call(kind, item, proc.cli_subprocess, keep_digest=need_calls)
            n_calls += 1
            spawn = spawn_ms(proc.env)
            if len(proc.samples["cli"]) > timed:
                cli_factors.append(speed_factor(SPAWN_REF_MS, [before, spawn]))
            continue
        spawn = None
        # one slot: until PROBE_EVERY_S has passed or the block's CLI part
        # is due, then every timing is scaled by the probes either side
        block_start = elapsed - elapsed % CLI_BLOCK_S
        stop = start + paused + min(elapsed + PROBE_EVERY_S, block_start + (1 - share) * CLI_BLOCK_S)
        before = probe_ns()
        slot = []
        while True:
            t = proc.process(next(items), keep_digest=n_items < workload.digest_items)
            n_items += 1
            slot.append(t)
            if elapsed >= seconds:
                if n_items >= workload.digest_items:
                    break
            elif clock() >= stop:
                break
        factor = speed_factor(PROBE_REF_NS, [before, probe_ns()])
        factors.append(factor)
        for t in slot:
            scaled.add(t, factor)
            raw.add(t)
    return proc, (scaled, raw), factors, cli_factors, [s for s in setups if s is not None]


def end_to_end(workload, seed, seconds, digests):
    pkg, _ = setup(workload)
    golden, gproc = golden_digest(pkg, workload)
    proc, (scaled, raw), factors, cli_factors, setups = measure(pkg, workload, seed, seconds)
    s = proc.samples

    def timings_of(cli_ms, setup_s):
        return {
            "cli_ms_p50": metric(quantile(cli_ms, 0.5), "ms"),
            "cli_ms_p90": metric(quantile(cli_ms, 0.9), "ms"),
            "setup_s": metric(quantile(setup_s, 0.5), "s"),
        }

    metrics = scaled.metrics()
    metrics.update(timings_of([ms * f for ms, f in zip(s["cli"], cli_factors)],
                              [t * f for t, f in setups]))
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    ungated = {name: metrics.pop(name) for name in UNGATED}
    unscaled = {**raw.metrics(), **timings_of(s["cli"], [t for t, _ in setups])}
    samples = {
        "matrices": scaled.matrices,
        "setups": len(setups),
        **{key: sum(len(v) for (_, status), v in scaled.cells.items() if status in statuses)
           for key, statuses in CLASSES.items()},
        "cli": len(s["cli"]),
    }
    check = check_digests(digests, golden, proc.digest(), seed)
    by_ring = {}
    for (ring, status), v in sorted(scaled.cells.items()):
        by_ring.setdefault(ring, {})[status] = {"us_p50": quantile(v, 0.5), "n": len(v)}
    by_kind = {"in_process": factors, "cli": cli_factors, "setup": [f for _, f in setups]}
    extra = {
        "ungated_metrics": ungated,
        "raw_metrics": unscaled,
        "speed_factor": {kind: {"p50": quantile(v, 0.5), "min": min(v), "max": max(v), "n": len(v)}
                         for kind, v in by_kind.items()},
        "samples": samples,
        "setup_s_each": setups,
        "cli_share": workload.cli_share,
        "by_ring": by_ring,
    }
    return metrics, [gproc, proc], check, extra


def _rings_ns(pkg, workload, items, repeats=7):
    """ns per add, mul and invert on the workload's own matrix entries, per
    ring, as the median over `repeats` timed loops."""
    per_ring = {}
    for lits in workload.rings:
        R = pkg.literals.parse_ring(lits.spec)
        entries = []
        for item in items:
            if item.ring == lits.spec:
                entries.extend(pkg.literals.parse_matrix(R, item.matrix).entries())
        entries = entries[:256]
        pairs = list(zip(entries, entries[1:] + entries[:1]))
        if R.family == "Integers":
            units = [e for e in entries if e.payload in (1, -1)]
        else:
            units = [e for e in entries if R.is_unit(e)]
        units = units or [R.one]
        out = {}
        for op, args in (("add", pairs), ("mul", pairs), ("invert", [(u,) for u in units])):
            fn = getattr(R, op)
            times = []
            for _ in range(repeats):
                start = time.perf_counter_ns()
                for a in args:
                    fn(*a)
                times.append((time.perf_counter_ns() - start) / len(args))
            out[op] = statistics.median(times)
        per_ring[lits.spec] = out
    return per_ring


def _import_ms(env):
    probe = "import time; t = time.perf_counter(); import cleanmatrix.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S, check=True)
        times.append(float(done.stdout) * 1e3)
    return statistics.median(times)


def per_layer(workload, seed, seconds, digests, spans_path):
    pkg, setup_s = setup(workload)
    golden, gproc = golden_digest(pkg, workload)
    n = max(workload.digest_items, round(TRACE_RATE[workload.name] * seconds))
    n -= n % len(workload.rings)
    items_iter = workload.items(seed)
    items = [next(items_iter) for _ in range(n)]

    # untraced and traced passes alternate by block, so that both see the
    # same machine and neither alone pays for first calls
    plain = Processor(pkg, workload)
    traced = Processor(pkg, workload)
    plain_t, traced_t = InProcess(), InProcess()
    tracer = Tracer()
    block = max(1, n // TRACE_BLOCKS)
    for lo in range(0, n, block):
        for i in range(lo, min(n, lo + block)):
            plain_t.add(plain.process(items[i], keep_digest=i < workload.digest_items))
        tracer.install(pkg)
        try:
            for i in range(lo, min(n, lo + block)):
                tracer.item = i
                traced_t.add(traced.process(items[i]))
        finally:
            tracer.uninstall()
    tracer.write(spans_path)

    # CLI layer: in-process cli.run on the seed's CLI stream, fresh imports
    calls_iter = workload.cli_calls(seed)
    for i in range(max(workload.digest_docs, 12)):
        kind, item = next(calls_iter)
        plain.cli_call(kind, item, plain.cli_in_process, keep_digest=i < workload.digest_docs)
    import_ms = _import_ms(plain.env)

    tables_s = None
    if workload.oracle and any(lits.finite for lits in workload.rings):
        pkg.bruteforce._TABLE_CACHE.clear()
        start = time.perf_counter()
        for lits in workload.rings:
            if lits.finite:
                pkg.bruteforce._tables(pkg.literals.parse_ring(lits.spec))
        tables_s = time.perf_counter() - start
    rings_ns = _rings_ns(pkg, workload, items[:64 * len(workload.rings)])

    selfs = tracer.self_times()
    counts = tracer.counts
    # verify spans inside the deciders are the package's own; the rest are
    # this benchmark's re-checks of the returned certificates
    in_clean = tracer.self_times_within("clean.decide")
    in_pi = tracer.self_times_within("piregular.decide")

    def self_s(name, spans=selfs):
        return spans.get(name, (0, 0))[1] / 1e9

    def calls(name, spans=selfs):
        return spans.get(name, (0, 0))[0]

    useful_roots = 2 * sum(
        v for k, v in traced.statuses.items() if k.startswith(("clean:NontrivialClean:", "pi:Nontrivial"))
    )
    decisions = calls("clean.decide")
    mean = statistics.fmean
    metrics = {
        "rings.add_calls": metric(counts["rings.add"] / n, "calls/matrix"),
        "rings.mul_calls": metric(counts["rings.mul"] / n, "calls/matrix"),
        "rings.neg_calls": metric(counts["rings.neg"] / n, "calls/matrix"),
        "rings.invert_calls": metric(counts["rings.invert"] / n, "calls/matrix"),
        "rings.add_ns": metric(mean(r["add"] for r in rings_ns.values()), "ns"),
        "rings.mul_ns": metric(mean(r["mul"] for r in rings_ns.values()), "ns"),
        "rings.invert_ns": metric(mean(r["invert"] for r in rings_ns.values()), "ns"),
        "matrices.is_invertible_calls": metric(calls("matrices.is_invertible") / n, "calls/matrix"),
        "matrices.is_invertible_self_s": metric(self_s("matrices.is_invertible"), "s"),
        "matrices.invert2_calls": metric(calls("matrices.invert2") / n, "calls/matrix"),
        "matrices.invert2_self_s": metric(self_s("matrices.invert2"), "s"),
        "matrices.mat_mul_calls": metric(counts["matrices.mat_mul"] / n, "calls/matrix"),
        "companion.reduce_calls": metric(calls("companion.reduce") / n, "calls/matrix"),
        "companion.reduce_self_s": metric(self_s("companion.reduce"), "s"),
        "quadratics.root_search_self_s": metric(
            self_s("quadratics.enumerate") + self_s("quadratics.lift") + self_s("quadratics.rational"), "s"),
        "quadratics.left_eval_calls": metric(counts["quadratics.left_eval"] / n, "calls/matrix"),
        "quadratics.evals_per_root": metric(
            counts["quadratics.left_eval"] / useful_roots if useful_roots else 0.0, "evals/root"),
        "clean.build_certificate_self_s": metric(self_s("clean.build_certificate"), "s"),
        "clean.verify_calls": metric(
            calls("clean.verify", in_clean) / decisions if decisions else 0.0, "calls/decision"),
        "clean.verify_self_s": metric(self_s("clean.verify", in_clean), "s"),
        "piregular.nilpotency_index_self_s": metric(self_s("piregular.nilpotency_index"), "s"),
        "literals.parse_us": metric(quantile(plain.samples["parse"], 0.5), "us"),
        "cli.import_ms": metric(import_ms, "ms"),
        "cli.run_ms": metric(quantile(plain.samples["cli"], 0.5), "ms"),
        "trace.overhead": metric(
            traced_t.matrices_per_s() / plain_t.matrices_per_s(), "ratio"),
    }
    # layers that some workloads bypass: their zeros stay out of the result
    ungated = {
        name: metric(value, "s")
        for name, value in (
            ("quadratics.enumerate_self_s", self_s("quadratics.enumerate")),
            ("quadratics.lift_self_s", self_s("quadratics.lift")),
            ("quadratics.rational_self_s", self_s("quadratics.rational")),
            ("bruteforce.tables_s", tables_s),
            ("bruteforce.clean_self_s", self_s("bruteforce.clean")),
            ("bruteforce.pi_self_s", self_s("bruteforce.pi")),
            ("integer_matrices.classify_self_s", self_s("integer_matrices.classify")),
            ("integer_matrices.oracle_self_s", self_s("integer_matrices.oracle")),
            ("bench.clean_verify_self_s", self_s("clean.verify") - self_s("clean.verify", in_clean)),
            ("bench.pi_verify_self_s", self_s("piregular.verify") - self_s("piregular.verify", in_pi)),
        )
    }
    detail = {
        "ungated_metrics": ungated,
        "rings_ns_by_ring": rings_ns,
        "spans": {name: {"calls": c, "self_s": ns / 1e9} for name, (c, ns) in sorted(selfs.items())},
        "counts": dict(sorted(counts.items())),
        "matrices_traced": n,
        "untraced_matrices_per_s": plain_t.matrices_per_s(),
        "traced_matrices_per_s": traced_t.matrices_per_s(),
        "setup_s": setup_s,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    check = check_digests(digests, golden, plain.digest(), seed)
    return metrics, [gproc, plain, traced], check, detail


# ---------------------------------------------------------------------- main


def main(argv=None, digests=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cleanmatrix" / "__init__.py").is_file():
        print(f"cleanmatrix sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    digests = load_digests().get(workload.name, {}) if digests is None else digests
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, procs, check, extra = per_layer(
            workload, args.seed, args.seconds, digests, OUT / f"{stem}-spans.jsonl")
    else:
        metrics, procs, check, extra = end_to_end(workload, args.seed, args.seconds, digests)
    failures = Counter()
    for proc in procs:
        failures.update(proc.failures)
    attempted = sum(proc.attempted for proc in procs)
    failed = sum(failures.values())
    statuses = Counter()
    for proc in procs[1:]:
        statuses.update(proc.statuses)
    digest_ok = all(entry["match"] is not False for entry in check.values())
    correct = failed == 0 and digest_ok
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **source_facts(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": dict(sorted(failures.items())),
        "digest": check,
        "statuses": dict(sorted(statuses.items())),
        "metrics": metrics,
        **extra,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if not digest_ok:
        print(f"output digest mismatch: {json.dumps(check)}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
