"""Lexer for Impala-lite.

The surface language is a small Rust-like language in the spirit of the
paper's Impala frontend: imperative control flow plus first-class and
higher-order functions, with ``@``/``$`` partial-evaluation markers on
calls.

Tokenization is a single pass of one compiled master regex (trivia,
numbers, identifiers and maximal-munch punctuation as ordered
alternatives); a char-at-a-time scanner spends most of its time in
method-call overhead, and the lexer sits on the floor of every
compile-time measurement.  One match takes a token together with the
trivia before it and is classified by one probe, ``m.lastgroup``; a
token's column is its offset from the start of its line, which moves
only when the trivia holds a newline.

Punctuation and keyword texts never collide with identifier or literal
texts, so the parser tests a token by its text alone.
"""

from __future__ import annotations

import enum
import re

from .errors import LexError, SourceLoc


class TokKind(enum.Enum):
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    PUNCT = "punct"
    KEYWORD = "keyword"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "fn", "let", "mut", "if", "else", "while", "for", "in",
        "break", "continue", "return", "as", "true", "false", "extern",
        "struct",
    }
)

# Longest first so maximal-munch works by ordered scan.
PUNCTUATION = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "->", "..", "+=", "-=", "*=",
    "/=", "%=", "&=", "|=", "^=", "<<", ">>",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "(",
    ")", "{", "}", "[", "]", ",", ";", ":", ".", "@", "$",
)

INT_SUFFIXES = ("i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64")
FLOAT_SUFFIXES = ("f32", "f64")

# One match per token: the trivia before it (whitespace, line comments,
# complete block comments), then one alternative per token class, tried
# in order, so earlier classes shadow later ones exactly like the old
# sequential scanner did: a dangling ``/*`` is an error; hex literals
# win over a decimal ``0`` with an ``x...`` suffix; the punctuation
# alternation preserves the longest-first PUNCTUATION order; any other
# character is stray; and trivia up to the end of the input matches
# with no group.  A decimal number is digits, an optional fraction
# (only when a digit follows the dot, so ``0..10`` lexes as ``0``
# ``..`` ``10``) and an optional exponent, plus a trailing alphanumeric
# run that the number parser validates as a type suffix.  Each class is
# one named group that closes last in its alternative, so
# ``m.lastgroup`` names the class.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|//[^\n]*|/\*(?:[^*]|\*(?!/))*\*/)*
    (?:
      (?P<badcomment>/\*)
    | (?P<hex>0[xX][0-9a-zA-Z_]*)
    | (?P<number>[0-9][0-9_]*
        (?P<frac>\.[0-9][0-9_]*)?
        (?P<exp>[eE][+-]?[0-9]+)?
        (?P<suffix>[0-9a-zA-Z_]*))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct><<=|>>=|==|!=|<=|>=|&&|\|\||->|\.\.|\+=|-=|\*=|/=|%=
        |&=|\|=|\^=|<<|>>
        |[-+*/%=<>!&|^(){}\[\],;:.@$])
    | (?P<stray>.)
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class Token:
    __slots__ = ("kind", "text", "value", "loc")

    def __init__(self, kind: TokKind, text: str, loc: SourceLoc, value=None):
        self.kind = kind
        self.text = text
        self.loc = loc
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.kind.value} {self.text!r} @{self.loc}>"


class Lexer:
    def __init__(self, source: str):
        self.source = source

    def tokens(self) -> list[Token]:
        source = self.source
        result: list[Token] = []
        append = result.append
        # Matches are contiguous: *pos* is where the last token ended.
        # Columns count from the offset where the current line starts,
        # which moves only when the trivia before a token holds a newline.
        pos = 0
        line, line_start = 1, 0
        for m in _TOKEN_RE.finditer(source):
            group = m.lastgroup
            if group is None:  # only trivia was left: the end of input
                start = end = m.end()
            else:
                start, end = m.span(group)
            if start != pos:
                newlines = source.count("\n", pos, start)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", pos, start) + 1
            pos = end
            loc = SourceLoc(line, start - line_start + 1)
            text = source[start:end]
            if group == "ident":
                append(Token(TokKind.KEYWORD if text in KEYWORDS
                             else TokKind.IDENT, text, loc))
            elif group == "punct":
                append(Token(TokKind.PUNCT, text, loc))
            elif group is None:
                append(Token(TokKind.EOF, "", loc))
                break  # finditer would match empty at the end once more
            elif group == "stray":
                raise LexError(f"stray character {text!r}", loc)
            elif group == "badcomment":
                raise LexError("unterminated block comment", loc)
            else:
                append(self._number(m, group, text, loc))
        return result

    def _number(self, m: "re.Match[str]", group: str, text: str,
                loc: SourceLoc) -> Token:
        if group == "hex":
            body, suffix = self._split_suffix(text, INT_SUFFIXES)
            try:
                value = int(body.replace("_", ""), 16)
            except ValueError:
                raise LexError(f"bad hex literal {text!r}", loc) from None
            return Token(TokKind.INT, text, loc, (value, suffix))
        suffix = m.group("suffix")
        body = text[:len(text) - len(suffix)].replace("_", "")
        is_float = (m.group("frac") is not None
                    or m.group("exp") is not None)
        if suffix in FLOAT_SUFFIXES:
            return Token(TokKind.FLOAT, text, loc, (float(body), suffix))
        if is_float:
            if suffix:
                raise LexError(f"bad float suffix {suffix!r}", loc)
            return Token(TokKind.FLOAT, text, loc, (float(body), None))
        if suffix in INT_SUFFIXES:
            return Token(TokKind.INT, text, loc, (int(body), suffix))
        if suffix:
            raise LexError(f"bad integer suffix {suffix!r}", loc)
        return Token(TokKind.INT, text, loc, (int(body), None))

    @staticmethod
    def _split_suffix(text: str, suffixes) -> tuple[str, str | None]:
        for suffix in suffixes:
            if text.endswith(suffix):
                return text[: -len(suffix)], suffix
        return text, None


def tokenize(source: str) -> list[Token]:
    return Lexer(source).tokens()
