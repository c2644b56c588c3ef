"""The one-pass literal parser against the reference it replaced.

On every input, cleanmatrix.literals and tests/literal_reference.py must
return the same element, matrix or ring spec, or raise the same exception
class with the same message and position.  The inputs are the benchmark's
conjugated literals, expressions in w, x, y, ^, / and runs of unary minus
spaced with Unicode whitespace, and all of these garbled: cut short, with
characters dropped, or with non-ASCII digits, letters and stray punctuation
put in.  Nesting stays far below both parsers' depth bounds.
"""

import importlib.util
import random
from pathlib import Path

import literal_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanmatrix import literals

INPUTS_PATH = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"


def _load_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

# each ring with the benchmark's literal generator for it
RINGS = {
    "Zmod(2,3)": inputs.zmod(2, 3),
    "GF(2,2)": inputs.gf(2, 2),
    "SkewTrunc(GF(2,2),1,2)": inputs.trunc(2, 2, 2, s=1),
    "Zloc(3)": inputs.LocalizedLiterals(3),
    "Z": inputs.IntegerLiterals(),
}

SPACES = st.sampled_from(["", "", "", " ", "\t", "\n", "\x1c", "\u00a0", "\u2003", "\u3000"])
ATOMS = st.one_of(
    st.integers(0, 20).map(str),
    st.sampled_from(["0007", "65536", "9" * 40, "w", "x", "y", "w", "x", "y",
                     "wx", "q", "INT", "\u00e9", "\u03c0"]),
)
EXPONENTS = st.sampled_from(["0", "1", "2", "3", "7", "12", "100000000"])
GARBAGE = st.sampled_from(list("()[],+-*/^ _#.0w") + ["\u00b2", "\u0661", "\uff11",
                                                        "\u00e9", "\u00a0", "a\u00b2b"])


def _compound(children):
    return st.one_of(
        st.tuples(children, SPACES, st.sampled_from("+-*/"), children).map("".join),
        children.map(lambda c: f"({c})"),
        st.tuples(st.integers(1, 7), SPACES, children).map(lambda t: "-" * t[0] + t[1] + t[2]),
        st.tuples(children, st.just("^"), EXPONENTS).map("".join),
    )


EXPRESSIONS = st.recursive(ATOMS, _compound, max_leaves=12)


@st.composite
def _garbled(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["cut", "drop", "insert", "keep"]))
        if edit == "cut":
            text = text[:k]
        elif edit == "drop":
            text = text[:k] + text[k + 1:]
        elif edit == "insert":
            text = text[:k] + draw(GARBAGE) + text[k:]
    return text


def _bench_matrix(spec):
    """A literal matrix of the benchmark's mixed streams over this ring:
    a conjugated normal form or a uniform matrix."""
    lits = RINGS[spec]
    shaped = inputs.integer_structured if spec == "Z" else inputs.structured
    return st.integers(0, 2**32).map(
        lambda seed: (shaped if seed % 4 else inputs.uniform)(lits, random.Random(seed)))


def _matrices(spec):
    built = st.tuples(EXPRESSIONS, EXPRESSIONS, EXPRESSIONS, EXPRESSIONS).map(
        lambda e: ((e[0], e[1]), (e[2], e[3])))
    return st.one_of(_bench_matrix(spec), built)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except Exception as exc:  # the class, message and position are compared
        return type(exc), str(exc), getattr(exc, "position", None)


def _same(new, old):
    assert type(new) is type(old)
    assert new == old


@settings(deadline=None)
@pytest.mark.parametrize("spec", RINGS)
@given(data=st.data())
def test_parse_element_matches_reference(spec, data):
    R = literals.parse_ring(spec)
    entries = _bench_matrix(spec).map(lambda M: M[0][0])
    text = data.draw(_garbled(st.one_of(entries, EXPRESSIONS)))
    _same(_outcome(literals.parse_element, R, text),
          _outcome(reference.parse_element, R, text))


@settings(deadline=None)
@pytest.mark.parametrize("spec", RINGS)
@given(data=st.data())
def test_parse_matrix_matches_reference(spec, data):
    R = literals.parse_ring(spec)
    text = data.draw(_garbled(_matrices(spec).map(inputs.matrix_literal)))
    _same(_outcome(literals.parse_matrix, R, text),
          _outcome(reference.parse_matrix, R, text))


SPECS = st.sampled_from(list(RINGS) + ["Trunc(GF(2),3)", "GF(3)", "Zmod(2,-1)",
                                       "Trunc(Trunc(GF(2),2),2)", "Frac(2)", "Z(3)"])


@settings(deadline=None)
@given(text=_garbled(SPECS))
def test_parse_ring_spec_matches_reference(text):
    _same(_outcome(literals.parse_ring_spec, text), _outcome(reference.parse_ring_spec, text))


@pytest.mark.parametrize("text", [
    "", " ", "2^INT", "2^-1", "2^", "-)", "a\u00b2b", "w\u00e9", "1+\u0663", "\uff11",
    "9" * 4301, "1+" + "9" * 4301 + "+#", "#+" + "9" * 4301, "--w", "(((1)", "1)",
    "[[1,2],[3,4]]", "[[1,2],[3,4]]x", "[[1,2],[3]]", "[1,2]", "[[1,2],[3,4]", "x^y",
    "10^4000*10^4000*10^4000", "1/7^4000-1/11^4000+1/13^4000", "(10^4000)^5",
    # the one-loop descent ("2^" above too): a group of one atom, atoms and
    # powers read once
    "(", "(w", "w^2^3", "w^0007*w^7", "(w)^2", "(-(16))*(16)",
    "10^4000*10^4000*(10^4000)",
])
@pytest.mark.parametrize("spec", RINGS)
def test_fixed_texts_match_reference(spec, text):
    R = literals.parse_ring(spec)
    for new, old in ((literals.parse_element, reference.parse_element),
                     (literals.parse_matrix, reference.parse_matrix)):
        _same(_outcome(new, R, text), _outcome(old, R, text))
    _same(_outcome(literals.parse_ring_spec, text), _outcome(reference.parse_ring_spec, text))
