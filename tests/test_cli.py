"""Command line behavior: output shapes, exit codes, verify round-trips."""

import json
import os
import subprocess
import sys
import time

import pytest

from cleanmatrix.cli import run

OK, NEGATIVE, USAGE = 0, 2, 64


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


def test_decide_text_output(capsys):
    code, out, _ = invoke(
        capsys, "decide", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,1]]"
    )
    assert code == OK
    assert "status: NontrivialClean" in out
    assert "method: Enumeration" in out
    assert "E: [[3,6],[3,6]]" in out
    assert "verified: true" in out


def test_decide_json_pinned(capsys):
    code, doc, _ = invoke_json(
        capsys, "decide", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,1]]",
        "--json",
    )
    assert code == OK
    assert doc["command"] == "decide"
    assert doc["ring"] == "Zmod(2,3)"
    assert doc["status"] == "NontrivialClean"
    assert doc["matrix"] == [["0", "2"], ["1", "1"]]
    assert doc["certificate"]["E"] == [["3", "6"], ["3", "6"]]
    assert doc["certificate"]["U"] == [["5", "4"], ["6", "3"]]
    assert doc["certificate"]["diag"]["t0"] == "7"
    assert doc["certificate"]["diag"]["t1"] == "2"
    assert doc["verified"] is True


def test_decide_trivial_has_no_witness_key(capsys):
    code, doc, _ = invoke_json(
        capsys, "decide", "--ring", "Zmod(2,3)", "--matrix", "[[1,0],[0,1]]",
        "--json",
    )
    assert code == OK
    assert doc["status"] == "TrivialUnit"
    assert doc["method"] == "Trivial"
    assert "witness" not in doc


def test_decide_negative_exit(capsys):
    code, doc, _ = invoke_json(
        capsys, "decide", "--ring", "Zloc(2)", "--matrix", "[[0,4],[1,1]]",
        "--json",
    )
    assert code == NEGATIVE
    assert doc["status"] == "NotClean"
    assert doc["witness"] == "t^2-t-4"
    assert "certificate" not in doc


def test_decide_integer_matrix(capsys):
    code, doc, _ = invoke_json(
        capsys, "decide", "--ring", "Z", "--matrix", "[[3,2],[-3,-2]]", "--json"
    )
    assert code == OK
    assert doc["status"] == "NontrivialClean"
    assert doc["method"] == "IntegerClass"
    assert doc["verified"] is True


def test_pi_json_pinned(capsys):
    code, doc, _ = invoke_json(
        capsys, "pi", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,1]]", "--json"
    )
    assert code == OK
    assert doc["status"] == "Nontrivial"
    assert doc["certificate"]["kind"] == "diag"
    assert doc["certificate"]["t0"] == "7"
    assert doc["certificate"]["t1"] == "2"
    assert doc["verified"] is True


def test_pi_negative(capsys):
    code, doc, _ = invoke_json(
        capsys, "pi", "--ring", "Zloc(2)", "--matrix", "[[0,2],[1,1]]", "--json"
    )
    assert code == NEGATIVE
    assert doc["status"] == "No"
    assert doc["witness"] == "t^2-t-2"


def test_pi_nilpotent_reports_index(capsys):
    code, doc, _ = invoke_json(
        capsys, "pi", "--ring", "Zmod(2,2)", "--matrix", "[[0,1],[0,0]]", "--json"
    )
    assert code == OK
    assert doc["status"] == "TrivialNilpotent"
    assert doc["certificate"] == {"index": 2, "kind": "nilpotent"}


@pytest.mark.parametrize(
    "ring, poly, lifts_clean",
    [pytest.param("Zmod(2,64)", "1,2", False, id="Zmod(2,64)"),
     pytest.param("Trunc(GF(2,4),8)", "1,x", True, id="Trunc(GF(2,4),8)")],
)
def test_huge_ring_pi_lifts_and_decide_refuses(capsys, ring, poly, lifts_clean):
    code, doc, _ = invoke_json(
        capsys, "pi", "--ring", ring, "--matrix", "[[0,2],[1,1]]", "--json"
    )
    assert code == OK
    assert doc["status"] == "Nontrivial"
    assert doc["verified"] is True
    # decide and factor take the same clean route
    for command, arg, status in (("decide", "--matrix=[[0,2],[1,1]]", "NontrivialClean"),
                                 ("factor", f"--poly={poly}", "Factored")):
        if lifts_clean:
            # the truncated clean route lifts both roots without enumerating
            code, doc, _ = invoke_json(capsys, command, "--ring", ring, arg, "--json")
            assert code == OK
            assert doc["status"] == status
            assert doc["verified"] is True
            continue
        # the clean route on Zmod still scans J, above the enumeration cap
        code, out, err = invoke(capsys, command, "--ring", ring, arg)
        assert code == USAGE
        assert out == ""
        assert err.startswith("error:") and "enumeration stops at" in err


def test_factor_equals_form_for_negative_coefficients(capsys):
    # --poly -1,-4 would be eaten by argparse; the = form must work
    code, doc, _ = invoke_json(
        capsys, "factor", "--ring", "Zloc(2)", "--poly=-1,-2", "--json"
    )
    assert code == OK
    assert doc["status"] == "Factored"
    assert doc["witness"]["g0"] == ["1", "1"]  # t + 1, low to high
    assert doc["verified"] is True


def test_factor_no_factorization(capsys):
    code, doc, _ = invoke_json(
        capsys, "factor", "--ring", "Zloc(2)", "--poly=-1,-4", "--json"
    )
    assert code == NEGATIVE
    assert doc["status"] == "NoFactorization"
    assert doc["witness"] == "t^2-t-4"


def test_factor_galois_coefficients(capsys):
    code, doc, _ = invoke_json(
        capsys, "factor", "--ring", "SkewTrunc(GF(2,2),1,2)",
        "--poly", "1+w*x,w+x", "--json",
    )
    assert code in (OK, NEGATIVE)
    if code == OK:
        assert doc["status"] == "Factored"
        assert doc["verified"] is True


def test_survey_clean_no_with_witness(capsys):
    code, doc, _ = invoke_json(
        capsys, "survey", "--ring", "Zloc(2)", "--mode", "clean", "--json"
    )
    assert code == NEGATIVE
    assert doc["answer"] == "No"
    assert doc["witness"] == "t^2-t-4"


def test_survey_clean_yes(capsys):
    code, doc, _ = invoke_json(
        capsys, "survey", "--ring", "Zmod(2,3)", "--mode", "clean", "--json"
    )
    assert code == OK
    assert doc["answer"] == "Yes"
    assert "witness" not in doc


def test_survey_pi_yes(capsys):
    code, doc, _ = invoke_json(
        capsys, "survey", "--ring", "Zmod(2,2)", "--mode", "pi", "--json"
    )
    assert code == OK
    assert doc["answer"] == "Yes"


def test_survey_pi_yes_on_zmod_32(capsys):
    # the answer is stated, not swept: no pass over the 16^4 matrices over J,
    # nor over the 16 x 16 units and radical elements
    code, doc, _ = invoke_json(
        capsys, "survey", "--ring", "Zmod(2,5)", "--mode", "pi", "--json"
    )
    assert code == OK
    assert doc["answer"] == "Yes"


_ROOT_FINDERS = (
    "lift_root", "lift_root_truncated", "w_roots", "pi_roots", "right_roots",
    "find_roots_auto", "find_roots_enumerate", "find_roots_rational",
)


@pytest.mark.parametrize(
    "ring",
    ["Zmod(2,4)", "GF(2,2)", "Trunc(GF(2),3)", "SkewTrunc(GF(2,2),1,2)",
     # above the enumeration cap
     "Zmod(2,64)", "Zmod(2,20)", "GF(2,20)", "Trunc(GF(2,16),4)",
     "SkewTrunc(GF(2,24),1,2)"],
)
@pytest.mark.parametrize("mode", ["clean", "pi"])
def test_survey_lifts_without_root_scans(capsys, monkeypatch, refuse_scans, ring, mode):
    # both surveys answer from the lifting lemma on finite rings: no module
    # may enumerate the ring or search for a root
    import cleanmatrix.clean  # noqa: F401  bind the real finders first
    import cleanmatrix.piregular  # noqa: F401
    from cleanmatrix import quadratics

    def refuse(*args, **kwargs):
        raise AssertionError("survey searched for a root")

    for name in _ROOT_FINDERS:
        original = getattr(quadratics, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cleanmatrix") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, refuse)
    code, doc, _ = invoke_json(capsys, "survey", "--ring", ring, "--mode", mode, "--json")
    assert code == OK
    assert doc["answer"] == "Yes"
    assert "witness" not in doc


def test_survey_has_no_bound_option(capsys):
    code, _, err = invoke(capsys, "survey", "--ring", "Zloc(3)", "--bound", "1")
    assert code == USAGE
    assert "usage error" in err


def test_classify_int(capsys):
    code, doc, _ = invoke_json(
        capsys, "classify-int", "--matrix", "[[3,2],[-3,-2]]", "--json"
    )
    assert code == OK
    assert doc["tag"] == "Diag"
    assert (doc["d1"], doc["d2"]) == (1, 0)
    assert doc["verified"] is True

    code, doc, _ = invoke_json(
        capsys, "classify-int", "--matrix", "[[3,0],[0,5]]", "--json"
    )
    assert code == NEGATIVE
    assert doc["tag"] == "NotClean"


def test_usage_errors(capsys):
    assert invoke(capsys, "decide", "--ring", "Zmod(2,3)")[0] == USAGE
    assert invoke(capsys, "bogus")[0] == USAGE
    assert invoke(capsys, "decide", "--ring", "Nope(1)",
                  "--matrix", "[[1,0],[0,1]]")[0] == USAGE
    assert invoke(capsys, "decide", "--ring", "Zmod(2,3)",
                  "--matrix", "[[1,0],[0,1]")[0] == USAGE
    assert invoke(capsys, "decide", "--ring", "GF(9)",
                  "--matrix", "[[1,0],[0,1]]")[0] == USAGE
    assert invoke(capsys, "factor", "--ring", "Zmod(2,3)",
                  "--poly", "1", "--json")[0] == USAGE


def test_verify_round_trip(capsys, tmp_path):
    for argv in (
        ["decide", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,1]]", "--json"],
        ["decide", "--ring", "SkewTrunc(GF(2,2),1,2)",
         "--matrix", "[[0,w*x],[1,1+x]]", "--json"],
        ["pi", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,3]]", "--json"],
        ["factor", "--ring", "Zmod(2,3)", "--poly=-1,-2", "--json"],
        ["classify-int", "--matrix", "[[3,2],[-3,-2]]", "--json"],
    ):
        code, out, _ = invoke(capsys, *argv)
        assert code == OK
        path = tmp_path / "doc.json"
        path.write_text(out)
        code, out2, _ = invoke(capsys, "verify", "--file", str(path))
        assert code == OK, argv
        assert json.loads(out2) == {"verified": True}


def test_verify_detects_tampering(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "decide", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,1]]",
        "--json",
    )
    doc = json.loads(out)
    doc["certificate"]["E"][0][0] = "1"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out2, _ = invoke(capsys, "verify", "--file", str(path))
    assert code == NEGATIVE
    assert json.loads(out2) == {"verified": False}


@pytest.mark.parametrize(
    "argv,path",
    [
        (["decide", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,1]]"],
         ("certificate", "diag")),
        (["decide", "--ring", "SkewTrunc(GF(2,2),1,2)",
          "--matrix", "[[1+x,w],[w*x,x]]"], ("certificate", "diag")),
        (["decide", "--ring", "Z", "--matrix", "[[3,2],[-3,-2]]"],
         ("certificate", "diag")),
        (["pi", "--ring", "Zmod(2,3)", "--matrix", "[[0,2],[1,3]]"],
         ("certificate",)),
        (["pi", "--ring", "Z", "--matrix", "[[3,2],[-3,-2]]"], ("certificate",)),
        (["classify-int", "--matrix", "[[3,2],[-3,-2]]"], ()),
    ],
)
def test_verify_rejects_tampered_diagonalization(capsys, tmp_path, argv, path):
    """A singular P (with a zero row, P A = D P still holds), t0 and t1
    swapped, and P with its rows swapped (which fails P A = D P) each verify
    false with exit 2, never exit 64."""
    code, doc, _ = invoke_json(capsys, *argv, "--json")
    assert code == OK
    t0, t1, P = ("d1", "d2", "transform") if path == () else ("t0", "t1", "P")
    holder = doc
    for key in path:
        holder = holder[key]
    diag = dict(holder)
    for tampered in (
        {**diag, P: [["1", "1"], ["1", "1"]]},
        {**diag, P: [diag[P][0], ["0", "0"]]},
        {**diag, t0: diag[t1], t1: diag[t0]},
        {**diag, P: diag[P][::-1]},
    ):
        holder.update(tampered)
        doc_path = tmp_path / "tampered.json"
        doc_path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "verify", "--file", str(doc_path))
        assert (code, json.loads(out), err) == (NEGATIVE, {"verified": False}, "")


def test_verify_without_certificate_is_null(capsys, tmp_path):
    code, out, _ = invoke(
        capsys, "decide", "--ring", "Zloc(2)", "--matrix", "[[0,4],[1,1]]",
        "--json",
    )
    assert code == NEGATIVE
    path = tmp_path / "negative.json"
    path.write_text(out)
    code, out2, _ = invoke(capsys, "verify", "--file", str(path))
    assert code == OK
    assert json.loads(out2) == {"verified": None}


def test_verify_bad_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert invoke(capsys, "verify", "--file", str(path))[0] == USAGE


@pytest.mark.parametrize(
    "doc",
    [
        "[" * 100000 + "]" * 100000,
        {"command": "decide"},
        [1, 2],
        {"command": "decide", "ring": "Zmod(2,3)", "matrix": [[0, 2], [1, 1]]},
        {"command": "decide", "ring": "Zmod(2,3)", "matrix": [["0", "2"]]},
        {"command": "decide", "ring": "Zmod(2,3)",
         "matrix": [["0", "2"], ["1", "1"]], "certificate": ["E", "U"]},
        {"command": "pi", "ring": "Zmod(2,3)", "matrix": [["0", "2"], ["0", "0"]],
         "certificate": {"kind": "nilpotent"}},
        {"command": "factor", "ring": "Zmod(2,3)", "poly": {"a1": "7"}},
        {"command": "classify-int", "matrix": [["3", "2"], ["-3", "-2"]],
         "tag": "Diag", "transform": [["3", "2"], ["-1", "-1"]], "d1": "1", "d2": 0},
    ],
)
def test_verify_malformed_document(capsys, tmp_path, doc):
    path = tmp_path / "malformed.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = invoke(capsys, "verify", "--file", str(path))
    assert code == USAGE
    assert out == ""
    assert err.startswith("parse error:")


def test_selftest_serial(capsys):
    code, out, _ = invoke(capsys, "selftest", "--ring", "Zmod(2,2)")
    assert code == OK
    assert "ring: Zmod(2,2)" in out
    assert "scope: exhaustive" in out
    assert "matrices: 256" in out
    assert "clean agreements: 256/256" in out
    assert "pi agreements: 256/256" in out


def test_selftest_sampled_scope(capsys):
    code, out, _ = invoke(capsys, "selftest", "--ring", "Zmod(2,4)")
    assert code == OK
    assert "scope: sampled" in out
    assert "matrices: 1000" in out
    assert "clean agreements: 1000/1000" in out
    assert "pi agreements: 1000/1000" in out


@pytest.mark.parametrize("ring", ["Zmod(2,16)", "GF(2,20)", "Trunc(GF(2,16),4)"])
def test_selftest_refuses_rings_above_the_oracle_cap(capsys, ring, refuse_scans):
    # refused before the sample is drawn or a single element is enumerated
    code, out, err = invoke(capsys, "selftest", "--ring", ring)
    assert code == USAGE
    assert out == ""
    assert err.startswith("error:") and "oracle cap is 256" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_selftest_thread_determinism():
    env = dict(os.environ)
    env.pop("CLEANMATRIX_THREADS", None)
    serial = subprocess.run(
        [sys.executable, "-m", "cleanmatrix", "selftest", "--ring", "GF(2)"],
        capture_output=True, text=True, env=env,
    )
    env["CLEANMATRIX_THREADS"] = "3"
    threaded = subprocess.run(
        [sys.executable, "-m", "cleanmatrix", "selftest", "--ring", "GF(2)"],
        capture_output=True, text=True, env=env,
    )
    assert serial.returncode == 0
    assert threaded.returncode == 0
    assert serial.stdout == threaded.stdout


@pytest.mark.parametrize(
    "threads, cpus, workers",
    [("1000000000", 64, 16), ("1000000000", 2, 2), ("5", 64, 4), ("2", 1, None)],
)
def test_selftest_workers_capped(capsys, monkeypatch, threads, cpus, workers):
    # GF(2) has 16 matrices: 16 chunks at most, and 5 workers' chunks of 4
    # make 4 chunks.  The pool is a recorder, so no real worker is started.
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("CLEANMATRIX_THREADS", threads)
    code, out, _ = invoke(capsys, "selftest", "--ring", "GF(2)")
    assert code == OK
    assert "clean agreements: 16/16" in out and "pi agreements: 16/16" in out
    assert started == ([] if workers is None else [workers])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cleanmatrix", "decide", "--ring", "Zmod(2,2)",
         "--matrix", "[[1,0],[0,1]]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "status: TrivialUnit" in proc.stdout


def test_closed_stdout_pipe_exits_quietly():
    # the reader is gone before the child writes, as with `| head -c 20`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cleanmatrix", "decide", "--ring", "Zmod(2,3)",
             "--matrix", "[[0,2],[1,1]]", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv, err",
    [
        (("decide", "--ring", "Zmod(2,3)", "--matrix", "[[2\u00b2,0],[0,1]]"), "parse error:"),
        (("decide", "--ring", "Zmod(2,3)", "--matrix",
          "[[" + "(" * 400 + "1" + ")" * 400 + ",0],[0,1]]"), "parse error:"),
        (("pi", "--ring", "Zmod(2,3)", "--matrix", "[[" + "-" * 2000 + "1,0],[0,1]]"),
         "parse error:"),
        (("decide", "--ring", "Z", "--matrix", "[[" + "7" * 4301 + ",0],[0,1]]"),
         "parse error:"),
        (("decide", "--ring", "Z", "--matrix", "[[10^5000,0],[0,1]]"), "error:"),
        (("pi", "--ring", "Zloc(3)", "--matrix", "[[10^5000,0],[0,1]]"), "error:"),
        # small enough to compute, too large to print
        (("decide", "--ring", "Z", "--matrix", "[[10^4400,0],[0,1]]"), "error:"),
        (("pi", "--ring", "Zloc(3)", "--matrix", "[[10^4400,0],[0,1]]"), "error:"),
        (("classify-int", "--matrix", "[[10^4400,0],[0,1]]"), "error:"),
        (("decide", "--ring", "Zmod(2,20000)", "--matrix", "[[-1,0],[0,1]]"), "error:"),
        # a prime at or above the exact range of the prime test
        (("decide", "--ring", "Zloc(3317044064679887385961981)", "--matrix", "[[0,1],[1,1]]"),
         "error: primes are recognised only below 3317044064679887385961981"),
        (("pi", "--ring", "GF(3317044064679887385961983,2)", "--matrix", "[[0,1],[1,1]]"),
         "error: primes are recognised only below 3317044064679887385961981"),
    ],
    ids=["superscript", "parentheses", "minuses", "long-literal", "Z-power",
         "Zloc-power", "Z-print", "Zloc-print", "classify-print", "Zmod-print",
         "Zloc-prime-bound", "GF-prime-bound"],
)
def test_unparsable_or_unprintable_input_exits_64(capsys, argv, err):
    code, out, stderr = invoke(capsys, *argv)
    assert code == USAGE
    assert stderr.startswith(err) and "Traceback" not in stderr


def test_galois_degree_above_cap_exits_64_fast(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "decide", "--ring", "GF(2,4096)",
                            "--matrix", "[[0,1],[1,1]]")
    assert time.perf_counter() - start < 3
    assert (code, out) == (USAGE, "")
    assert err.startswith("error: GF degree 4096 is above the cap 24")
    # a truncation over such a field is refused too; the largest admitted answers
    code, _, err = invoke(capsys, "pi", "--ring", "Trunc(GF(2,25),2)",
                          "--matrix", "[[0,1],[1,1]]")
    assert code == USAGE and "above the cap" in err
    code, doc, _ = invoke_json(capsys, "decide", "--ring", "GF(2,24)",
                               "--matrix", "[[1,1],[0,0]]", "--json")
    assert (code, doc["status"]) == (OK, "NontrivialClean")


def test_large_prime_ring_answers_fast(capsys):
    # 10^18 + 3 is prime; trial division to its square root did not finish in 15 s
    start = time.perf_counter()
    code, doc, _ = invoke_json(
        capsys, "decide", "--ring", "Zloc(1000000000000000003)", "--matrix",
        "[[0,1],[1,1]]", "--json",
    )
    assert time.perf_counter() - start < 1
    assert code == OK
    assert doc["status"] == "TrivialUnit"


def test_huge_exponent_over_a_finite_ring_answers(capsys):
    code, doc, _ = invoke_json(
        capsys, "decide", "--ring", "GF(2,2)", "--matrix", "[[w^100000000,0],[0,1]]",
        "--json",
    )
    assert code == OK
    assert doc["matrix"] == [["w", "0"], ["0", "1"]]
    assert doc["status"] == "TrivialUnit"


# run one command in a fresh interpreter; print the modules it added
_LOADED = """
import contextlib, io, json, sys
before = set(sys.modules)
from cleanmatrix.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _modules_loaded_by(*argv, stdin=None):
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], input=stdin,
                          capture_output=True, text=True, check=True)
    code, added = json.loads(proc.stdout)
    assert code == OK
    return set(added)


def test_decide_loads_only_its_modules():
    added = _modules_loaded_by("decide", "--ring", "Zmod(2,8)", "--matrix", "[[0,2],[1,1]]")
    assert {"cleanmatrix.clean", "cleanmatrix.modular"} <= added
    for name in ("bruteforce", "factorization", "piregular", "integer_matrices",
                 "truncated", "opposite", "selftest", "verify"):
        assert f"cleanmatrix.{name}" not in added
    assert "dataclasses" not in added


def test_decide_over_z_loads_no_finite_family():
    added = _modules_loaded_by("decide", "--ring", "Z", "--matrix", "[[3,2],[-3,-2]]")
    assert "cleanmatrix.integer_matrices" in added
    for name in ("galois", "modular", "truncated", "opposite"):
        assert f"cleanmatrix.{name}" not in added


@pytest.mark.parametrize("command", ["decide", "pi"])
def test_verify_loads_only_the_certificate_checks(capsys, command):
    code, out, _ = invoke(capsys, command, "--ring", "Zmod(2,3)",
                          "--matrix", "[[0,2],[1,1]]", "--json")
    assert code == OK and "certificate" in json.loads(out)
    added = _modules_loaded_by("verify", stdin=out)
    assert {"cleanmatrix.certificates", "cleanmatrix.verify"} <= added
    for name in ("companion", "quadratics", "clean", "piregular", "factorization"):
        assert f"cleanmatrix.{name}" not in added


def test_pi_loads_only_its_modules():
    added = _modules_loaded_by("pi", "--ring", "Zmod(2,8)", "--matrix", "[[0,2],[1,1]]")
    assert "cleanmatrix.piregular" in added
    for name in ("clean", "bruteforce", "factorization", "integer_matrices"):
        assert f"cleanmatrix.{name}" not in added
    assert "dataclasses" not in added


def test_pi_over_z_loads_the_integer_classes_only():
    # diag(1, 0) is one of classify_integer's classes
    added = _modules_loaded_by("pi", "--ring", "Z", "--matrix", "[[3,2],[-3,-2]]")
    assert {"cleanmatrix.piregular", "cleanmatrix.integer_matrices"} <= added
    for name in ("clean", "bruteforce", "factorization"):
        assert f"cleanmatrix.{name}" not in added


def test_factor_loads_only_its_modules():
    added = _modules_loaded_by("factor", "--ring", "Zmod(2,8)", "--poly=1,2")
    assert {"cleanmatrix.factorization", "cleanmatrix.quadratics"} <= added
    for name in ("clean", "companion", "piregular", "bruteforce"):
        assert f"cleanmatrix.{name}" not in added


@pytest.mark.parametrize("argv", [
    ("decide", "--ring", "Zloc(2)", "--matrix", "[[0,2],[1,1]]"),
    ("pi", "--ring", "Z", "--matrix", "[[3,2],[-3,-2]]"),
], ids=["decide-Zloc", "pi-Z"])
def test_rational_rings_load_no_fractions(argv):
    # Z_(p) payloads are integer pairs and the integer oracle tests
    # integrality in integer arithmetic; fractions would also pull in decimal
    added = _modules_loaded_by(*argv)
    assert "fractions" not in added and "decimal" not in added
