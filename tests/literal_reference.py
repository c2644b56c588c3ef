"""The element-literal parser before its one-pass tokenizer: the reference.

_Tokens scans the text one character at a time and the five-level recursive
descent (_expr, _term, _unary, _power, _atom) evaluates as it reads, with
nesting bounded by the interpreter's recursion limit.  The tests compare
cleanmatrix.literals with parse_ring_spec, parse_element and parse_matrix
here: the same value, or the same exception with the same message and
position, on inputs nested well below both parsers' bounds.
"""

from functools import wraps

from cleanmatrix.errors import ParseError, TooLarge
from cleanmatrix.matrices import Mat2
from cleanmatrix.rings import (
    RingSpec,
    galois_field,
    integers,
    localized_integers,
    mod_prime_power,
    truncated_poly,
    truncated_skew,
)


# |x|^e >= 2^((bits(x) - 1) e), and 2^14300 > 10^4304: past this many bits a
# power of an integer or fraction cannot be printed (see the module docstring)
_POWER_BITS = 14300


def _depth_checked(parse):
    """parse(*args), with nesting too deep to recurse through as a ParseError."""

    @wraps(parse)
    def checked(*args):
        try:
            return parse(*args)
        except RecursionError:
            raise ParseError("literal nested too deeply") from None

    return checked


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []  # (kind, value, pos)
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            # str.isdigit alone also takes '²' and the digits of other scripts
            if ch.isdigit() and ch.isascii():
                j = i
                while j < n and text[j].isdigit() and text[j].isascii():
                    j += 1
                try:
                    value = int(text[i:j])
                except ValueError:  # past the int-to-str digit limit
                    raise ParseError(
                        f"integer literal of {j - i} digits is too long", position=i
                    ) from None
                self.items.append(("INT", value, i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and text[j].isalpha():
                    j += 1
                self.items.append(("NAME", text[i:j], i))
                i = j
                continue
            if ch in "()[],+-*/^":
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", position=i)
        self.items.append(("END", None, n))
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", position=tok[2])
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"unexpected trailing {tok[1]!r}", position=tok[2])


# ------------------------------------------------------------------ ring specs


@_depth_checked
def parse_ring_spec(text: str) -> RingSpec:
    toks = _Tokens(text)
    spec = _ring_spec(toks)
    toks.expect_end()
    return spec


def _int_arg(toks) -> int:
    sign = 1
    if toks.peek()[0] == "-":
        toks.next()
        sign = -1
    tok = toks.expect("INT")
    return sign * tok[1]


def _ring_spec(toks) -> RingSpec:
    tok = toks.expect("NAME")
    name = tok[1]
    if name == "Z" and toks.peek()[0] != "(":
        return integers()
    if name == "Z":
        raise ParseError("Z takes no arguments", position=toks.peek()[2])
    toks.expect("(")
    if name == "Zloc":
        p = _int_arg(toks)
        toks.expect(")")
        return localized_integers(p)
    if name == "Zmod":
        p = _int_arg(toks)
        toks.expect(",")
        k = _int_arg(toks)
        toks.expect(")")
        return mod_prime_power(p, k)
    if name == "GF":
        p = _int_arg(toks)
        m = 1
        if toks.peek()[0] == ",":
            toks.next()
            m = _int_arg(toks)
        toks.expect(")")
        return galois_field(p, m)
    if name == "Trunc":
        base = _ring_spec(toks)
        toks.expect(",")
        n = _int_arg(toks)
        toks.expect(")")
        return truncated_poly(base, n)
    if name == "SkewTrunc":
        base = _ring_spec(toks)
        toks.expect(",")
        s = _int_arg(toks)
        toks.expect(",")
        n = _int_arg(toks)
        toks.expect(")")
        return truncated_skew(base, s, n)
    raise ParseError(f"unknown ring family {name!r}", position=tok[2])


# ------------------------------------------------------------ element literals


@_depth_checked
def parse_element(ring, text: str):
    toks = _Tokens(text)
    value = _expr(ring, toks)
    toks.expect_end()
    return value


def _expr(ring, toks):
    value = _term(ring, toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _term(ring, toks)
        value = ring.add(value, rhs) if op == "+" else ring.sub(value, rhs)
        _check_bits(ring, value)
    return value


def _term(ring, toks):
    value = _unary(ring, toks)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _unary(ring, toks)
        value = ring.mul(value, rhs) if op == "*" else ring.mul(value, ring.invert(rhs))
        _check_bits(ring, value)
    return value


def _check_bits(ring, value):
    # Over Z and Z_(p) each operand is within about twice _POWER_BITS, so one
    # product or sum stays cheap; refusing a running value past the bound
    # keeps a long chain of them from growing without limit.
    if ring.family in ("Integers", "LocalizedIntegers"):
        if _bits(ring, value) - 1 > _POWER_BITS:
            raise TooLarge(f"a product or sum over {ring.spec_string()} "
                           "has more than 4300 digits")


def _bits(ring, value):
    # the longer of numerator and denominator, in bits
    n, d = ring.ratio(value)
    return max(n.bit_length(), d.bit_length())


def _unary(ring, toks):
    if toks.peek()[0] == "-":
        toks.next()
        return ring.neg(_unary(ring, toks))
    return _power(ring, toks)


def _power(ring, toks):
    base = _atom(ring, toks)
    while toks.peek()[0] == "^":
        toks.next()
        exp = toks.expect("INT")[1]
        if ring.family in ("Integers", "LocalizedIntegers"):
            if (_bits(ring, base) - 1) * exp > _POWER_BITS:
                raise TooLarge(f"a power with exponent {exp} over "
                               f"{ring.spec_string()} has more than 4300 digits")
        base = base ** exp
    return base


def _atom(ring, toks):
    tok = toks.next()
    kind, value, pos = tok
    if kind == "INT":
        return ring.from_int(value)
    if kind == "(":
        inner = _expr(ring, toks)
        toks.expect(")")
        return inner
    if kind == "NAME":
        return _named_element(ring, value, pos)
    raise ParseError(f"unexpected {value!r} in element", position=pos)


def _named_element(ring, name, pos):
    if name == "w":
        if ring.family == "GaloisField" and ring.m >= 2:
            return ring.generator()
        if (
            ring.family in ("TruncatedPoly", "TruncatedSkew")
            and ring.base.m >= 2
        ):
            return ring.embed(ring.base.generator())
        raise ParseError("'w' needs a Galois coefficient field", position=pos)
    if name in ("x", "y"):
        if ring.family in ("TruncatedPoly", "TruncatedSkew"):
            return ring.variable()
        raise ParseError(f"{name!r} needs a truncated ring", position=pos)
    raise ParseError(f"unknown name {name!r}", position=pos)


# ------------------------------------------------------------ matrix literals


@_depth_checked
def parse_matrix(ring, text: str) -> Mat2:
    toks = _Tokens(text)
    toks.expect("[")
    a, b = _row(ring, toks)
    toks.expect(",")
    c, d = _row(ring, toks)
    toks.expect("]")
    toks.expect_end()
    return Mat2(ring, a, b, c, d)


def _row(ring, toks):
    toks.expect("[")
    first = _expr(ring, toks)
    toks.expect(",")
    second = _expr(ring, toks)
    toks.expect("]")
    return first, second
