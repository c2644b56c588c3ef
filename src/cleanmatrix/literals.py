"""Text forms: ring specs, element literals, matrix literals.

Ring specs look like Z, Zloc(2), Zmod(2,3), GF(2,2), Trunc(GF(2,1),3),
SkewTrunc(GF(2,2),1,2).  Element literals are integer combinations of the
Galois generator w and the truncation variable (x and y are interchangeable)
with + - * / ^ and parentheses; whatever format_element prints parses back to
the same element.  Matrices are [[a,b],[c,d]] with element expressions inside.

Syntax problems raise ParseError with a character position; so do digits
other than ASCII 0-9 and integer literals longer than the interpreter converts
(4,300 digits by default).  A literal may nest MAX_DEPTH = 200 levels, where
each open parenthesis and each unary minus is a level (and each Trunc( or
SkewTrunc( of a ring spec); one more is a ParseError.  Semantic problems
(dividing by a non-unit, w over a prime field) surface as the ring's own
errors.  Over Z and Z_(p) a power that surely has more than 4,300 digits
raises TooLarge before it is computed, and so does the next operation on a
product or sum once its running value has more than that.

The descent evaluates as it reads, in one loop over the factors of a sum
and its products; it recurses only at an open parenthesis, and nesting is
counted as above whether it recurses or not.  Each integer token, name and
single power of one (w^2, 16^3) is evaluated once per literal, the four
entries of a matrix sharing them, the first time it is read; a power is
checked against the bound above then.  Token positions are worked out only
for an error.
"""

import re
from functools import wraps

from .errors import ParseError, TooLarge
from .matrices import Mat2
from .rings import (
    RingSpec,
    galois_field,
    integers,
    localized_integers,
    make_ring,
    mod_prime_power,
    truncated_poly,
    truncated_skew,
)


# |x|^e >= 2^((bits(x) - 1) e), and 2^14300 > 10^4304: past this many bits a
# power of an integer or fraction cannot be printed (see the module docstring)
_POWER_BITS = 14300
_EXACT = ("Integers", "LocalizedIntegers")
_TRUNCATED = ("TruncatedPoly", "TruncatedSkew")

# parentheses and unary minuses open at once; each parenthesis costs the
# descent one interpreter frame, well inside the default recursion limit
MAX_DEPTH = 200
_TOO_DEEP = "literal nested too deeply"

# ASCII digit runs, letter runs and any other single character; \s is
# exactly str.isspace, and the whitespace between tokens is dropped.  The
# middle class also takes numerals that are not letters, such as '²': _lex
# refuses every token that is not a digit run, a letter run or punctuation.
_TOKEN = re.compile(r"[0-9]+|[^\W\d_]+|\S")
_PUNCT = frozenset("()[],+-*/^")
_END = ""  # the token after the last


class _Bad(Exception):
    """A ParseError (message, token number) whose position is not yet known."""


def _positioned(parse):
    """parse(*args, text), with a _Bad raised as the ParseError at its position."""

    @wraps(parse)
    def parse_text(*args):
        try:
            return parse(*args)
        except _Bad as bad:
            message, k = bad.args
            starts = [m.start() for m in _TOKEN.finditer(args[-1])] + [len(args[-1])]
            raise ParseError(message, position=starts[k]) from None

    return parse_text


def _valid(t):
    if t in _PUNCT or t.isalpha():
        return True
    try:
        return t.isascii() and t.isdigit() and int(t) >= 0
    except ValueError:  # past the int-to-str digit limit
        return False


def _lex(text):
    """The tokens of text and _END; a bad character or an integer literal
    too long to convert raises ParseError, the first one in the text."""
    toks = _TOKEN.findall(text)
    if not all(map(_valid, set(toks))):
        m = next(m for m in _TOKEN.finditer(text) if not _valid(m.group()))
        t, at = m.group(), m.start()
        if t.isascii() and t.isdigit():
            raise ParseError(f"integer literal of {len(t)} digits is too long", position=at)
        k = next(k for k, ch in enumerate(t) if not ch.isalpha())
        raise ParseError(f"unexpected character {t[k]!r}", position=at + k)
    toks.append(_END)
    return toks


def _shown(t):
    """The token as error messages show it: an int, a string, or None at the end."""
    return None if t == _END else int(t) if t.isdigit() else t


def _expect(toks, i, kind):
    """i + 1 when token i is of this kind ("INT", "NAME" or the punctuation)."""
    t = toks[i]
    if not (t.isdigit() if kind == "INT" else t.isalpha() if kind == "NAME" else t == kind):
        raise _Bad(f"expected {kind!r}, found {_shown(t)!r}", i)
    return i + 1


def _expect_end(toks, i):
    if toks[i] != _END:
        raise _Bad(f"unexpected trailing {_shown(toks[i])!r}", i)


# ------------------------------------------------------------------ ring specs


# family: (argument kinds, I an integer and R a ring spec; constructor)
_FAMILIES = {
    "Zloc": ("I", localized_integers),
    "Zmod": ("II", mod_prime_power),
    "GF": ("I", galois_field),  # GF(p) is GF(p,1)
    "Trunc": ("RI", truncated_poly),
    "SkewTrunc": ("RII", truncated_skew),
}


@_positioned
def parse_ring_spec(text: str) -> RingSpec:
    toks = _lex(text)
    spec, i = _ring_spec(toks, 0, 0)
    _expect_end(toks, i)
    return spec


def _int_arg(toks, i):
    sign = 1
    if toks[i] == "-":
        sign, i = -1, i + 1
    j = _expect(toks, i, "INT")
    return sign * int(toks[i]), j


def _ring_spec(toks, i, depth):
    name, start = toks[i], i
    i = _expect(toks, i, "NAME")
    if name == "Z":
        if toks[i] != "(":
            return integers(), i
        raise _Bad("Z takes no arguments", i)
    i = _expect(toks, i, "(")
    if name not in _FAMILIES:
        raise _Bad(f"unknown ring family {name!r}", start)
    kinds, build = _FAMILIES[name]
    args = []
    for kind in kinds:
        if args:
            i = _expect(toks, i, ",")
        if kind == "R":
            if depth == MAX_DEPTH:
                raise ParseError(_TOO_DEEP)
            arg, i = _ring_spec(toks, i, depth + 1)
        else:
            arg, i = _int_arg(toks, i)
        args.append(arg)
    if name == "GF":
        m, i = _int_arg(toks, i + 1) if toks[i] == "," else (1, i)
        args.append(m)
    return build(*args), _expect(toks, i, ")")


def parse_ring(text: str):
    return make_ring(parse_ring_spec(text))


# ------------------------------------------------------------ element literals


@_positioned
def parse_element(ring, text: str):
    toks = _lex(text)
    value, i = _sum(ring, toks, 0, 0, {}, ring.family in _EXACT)
    _expect_end(toks, i)
    return value


def _sum(ring, toks, i, depth, atoms, exact):
    """The sum of products from token i: (value, the next token's number).

    One loop reads every factor of every product; only a parenthesis
    recurses, and not one around a lone atom.  A factor is -...-atom^e^e,
    the power binding tighter; the minuses fold to one neg or none.  atoms
    holds the value of each integer token, name and single power atom^INT
    read so far (a group ( atom ) reads as its atom), and exact is whether
    the ring is Z or Z_(p), where running values and powers are checked for
    size.
    """
    total = sum_op = prod_op = None
    while True:
        t, minuses = toks[i], 0
        while t == "-":
            minuses += 1
            i += 1
            t = toks[i]
        if minuses and depth + minuses > MAX_DEPTH:
            raise ParseError(_TOO_DEEP)
        factor = atoms.get(t)
        if factor is None:
            if t == "(":
                if depth + minuses == MAX_DEPTH:
                    raise ParseError(_TOO_DEEP)
                t = toks[i + 1]
                if (t.isdigit() or t.isalpha()) and toks[i + 2] == ")":
                    i += 2
                    factor = atoms.get(t)
                    if factor is None:
                        factor = _atom(ring, t, i - 1, atoms)
                else:
                    factor, i = _sum(ring, toks, i + 1, depth + minuses + 1, atoms, exact)
                    if toks[i] != ")":
                        raise _Bad(f"expected ')', found {_shown(toks[i])!r}", i)
                    t = None
            else:
                factor = _atom(ring, t, i, atoms)
        i += 1
        if toks[i] == "^":
            i = _expect(toks, i + 1, "INT")
            if t is None:
                factor = _power(ring, factor, toks[i - 1], exact)
            else:
                key = (t, toks[i - 1])
                power = atoms.get(key)
                if power is None:
                    power = atoms[key] = _power(ring, factor, key[1], exact)
                factor = power
            while toks[i] == "^":
                i = _expect(toks, i + 1, "INT")
                factor = _power(ring, factor, toks[i - 1], exact)
        if minuses & 1:
            factor = ring.neg(factor)

        if prod_op is None:
            value = factor
        else:
            value = ring.mul(value, factor if prod_op == "*" else ring.invert(factor))
            if exact:
                _check_bits(ring, value)
        op = toks[i]
        if op == "*" or op == "/":
            prod_op = op
        else:
            if sum_op is None:
                total = value
            else:
                total = ring.add(total, value) if sum_op == "+" else ring.sub(total, value)
                if exact:
                    _check_bits(ring, total)
            if op != "+" and op != "-":
                return total, i
            sum_op, prod_op = op, None
        i += 1


def _atom(ring, t, i, atoms):
    """The integer or name t at token i, entered in atoms."""
    if t.isdigit():
        value = ring.from_int(int(t))
    elif t.isalpha():
        value = _named_element(ring, t, i)
    else:
        raise _Bad(f"unexpected {_shown(t)!r} in element", i)
    atoms[t] = value
    return value


def _power(ring, value, exp, exact):
    exp = int(exp)
    if exact:
        # bits: the longer of numerator and denominator
        n, d = ring.ratio(value)
        if (max(n.bit_length(), d.bit_length()) - 1) * exp > _POWER_BITS:
            raise TooLarge(f"a power with exponent {exp} over "
                           f"{ring.spec_string()} has more than 4300 digits")
    return value ** exp


def _check_bits(ring, value):
    # Over Z and Z_(p) each operand is within about twice _POWER_BITS, so one
    # product or sum stays cheap; refusing a running value whose numerator
    # or denominator has more than _POWER_BITS + 1 bits keeps a long chain
    # of them from growing without limit.
    n, d = ring.ratio(value)
    if n.bit_length() > _POWER_BITS + 1 or d.bit_length() > _POWER_BITS + 1:
        raise TooLarge(f"a product or sum over {ring.spec_string()} "
                       "has more than 4300 digits")


def _named_element(ring, name, i):
    if name == "w":
        if ring.family == "GaloisField" and ring.m >= 2:
            return ring.generator()
        if ring.family in _TRUNCATED and ring.base.m >= 2:
            return ring.embed(ring.base.generator())
        raise _Bad("'w' needs a Galois coefficient field", i)
    if name in ("x", "y"):
        if ring.family not in _TRUNCATED:
            raise _Bad(f"{name!r} needs a truncated ring", i)
        if ring.n < 2:
            raise _Bad(f"{name!r} needs a truncation length of at least 2", i)
        return ring.variable()
    raise _Bad(f"unknown name {name!r}", i)


# ------------------------------------------------------------ matrix literals


@_positioned
def parse_matrix(ring, text: str) -> Mat2:
    toks = _lex(text)
    atoms, exact, entries = {}, ring.family in _EXACT, []
    i = _expect(toks, 0, "[")
    for row_end in (",", "]"):
        i = _expect(toks, i, "[")
        for entry_end in (",", "]"):
            value, i = _sum(ring, toks, i, 0, atoms, exact)
            entries.append(value)
            i = _expect(toks, i, entry_end)
        i = _expect(toks, i, row_end)
    _expect_end(toks, i)
    return Mat2(ring, *entries)


def matrix_to_literals(A: Mat2):
    R = A.ring
    return [
        [R.format_element(A.a), R.format_element(A.b)],
        [R.format_element(A.c), R.format_element(A.d)],
    ]
