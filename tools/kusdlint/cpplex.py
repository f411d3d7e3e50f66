"""Shared C++ lexing for the kusdlint passes.

Promoted from the original determinism linter and hardened: raw string
literals (R"delim(...)delim") are now blanked too, so a regex pass can no
longer be confused by an unescaped quote inside one. Everything is
line-preserving — blanked regions are replaced character-for-character
with spaces (newlines kept) so finding line numbers stay exact.
"""

import re

# Order matters: raw strings first (their bodies may contain quotes and
# comment markers), then ordinary string/char literals, then comments.
RAW_STRING = re.compile(r'R"([^()\\ \t\n]{0,16})\(.*?\)\1"', re.DOTALL)
STRING_LITERAL = re.compile(r'"(?:[^"\\\n]|\\.)*"')
CHAR_LITERAL = re.compile(r"'(?:[^'\\\n]|\\.)*'")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
LINE_COMMENT = re.compile(r"//[^\n]*")

INCLUDE_DIRECTIVE = re.compile(r'^\s*#\s*include\s*(["<])([^">]+)[">]')


def _blank(match: re.Match) -> str:
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_comments(text: str) -> str:
    """Blank comments only, preserving line numbers and string literals.

    For passes that need the strings (e.g. contract-sync reads registered
    engine names out of C++ string literals). Raw strings are blanked
    first so a `//` inside one does not eat the rest of the line.
    """
    text = RAW_STRING.sub(_blank, text)
    text = BLOCK_COMMENT.sub(_blank, text)
    return LINE_COMMENT.sub(_blank, text)


def strip_noise(text: str) -> str:
    """Blank comments and string/char literals, preserving line numbers."""
    text = RAW_STRING.sub(_blank, text)
    text = STRING_LITERAL.sub(_blank, text)
    text = CHAR_LITERAL.sub(_blank, text)
    text = BLOCK_COMMENT.sub(_blank, text)
    return LINE_COMMENT.sub(_blank, text)


def parse_includes(text: str) -> list[tuple[int, str, bool]]:
    """(line, target, quoted) for every #include in comment-stripped text.

    Pass the raw file text; comments are stripped here so a commented-out
    include does not count.
    """
    out = []
    for lineno, line in enumerate(strip_comments(text).splitlines(), start=1):
        match = INCLUDE_DIRECTIVE.match(line)
        if match:
            out.append((lineno, match.group(2), match.group(1) == '"'))
    return out


def extract_string_literals(text: str) -> list[tuple[int, str]]:
    """(line, value) for every ordinary string literal, comments stripped.

    Escape sequences are left verbatim (the passes only substring-match);
    raw strings are blanked (none of the checked sources use them).
    """
    stripped = strip_comments(text)
    out = []
    for match in STRING_LITERAL.finditer(stripped):
        lineno = stripped.count("\n", 0, match.start()) + 1
        out.append((lineno, match.group(0)[1:-1]))
    return out
