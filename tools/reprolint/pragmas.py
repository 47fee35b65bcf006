"""Per-line pragma suppression for ``reprolint``.

Syntax (one comment per physical line, applies to findings anchored to
that line)::

    do_something()  # reprolint: allow[DET002] benchmarks measure wall time
    other_thing()   # reprolint: allow[DET002,MET001] two rules, one reason

The justification text after the bracket is **mandatory** — a pragma
without a reason suppresses nothing and is itself reported (LNT001), as
is a pragma naming an unknown checker code or one that fails to parse.
Comments are extracted with :mod:`tokenize`, so pragma-looking text
inside string literals is ignored.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Pragma", "PragmaError", "extract_pragmas"]

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*allow\[(?P<codes>[^\]]*)\]\s*(?P<reason>.*)$"
)
_MARKER_RE = re.compile(r"#\s*reprolint\b")
_CODE_RE = re.compile(r"^[A-Z]{2,5}[0-9]{3}$")


@dataclass
class Pragma:
    """A parsed ``# reprolint: allow[...]`` comment on one line."""

    line: int
    codes: frozenset[str]
    reason: str
    #: codes this pragma actually suppressed (for unused-pragma reporting)
    used: set[str] = field(default_factory=set)

    def suppresses(self, code: str) -> bool:
        if code in self.codes and self.reason:
            self.used.add(code)
            return True
        return False


@dataclass(frozen=True)
class PragmaError:
    """A malformed pragma — surfaced as an LNT001 finding by the core."""

    line: int
    col: int
    message: str


def extract_pragmas(
    source: str, known_codes: frozenset[str] | None = None
) -> tuple[dict[int, Pragma], list[PragmaError]]:
    """Parse every pragma comment in ``source``.

    Returns ``(pragmas_by_line, errors)``.  ``known_codes``, when given,
    lets the parser flag pragmas naming checkers that do not exist.
    """
    pragmas: dict[int, Pragma] = {}
    errors: list[PragmaError] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST pass reports the syntax error; no pragmas either way.
        return pragmas, errors
    for tok in tokens:
        if tok.type != tokenize.COMMENT or not _MARKER_RE.search(tok.string):
            continue
        line, col = tok.start
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            errors.append(
                PragmaError(
                    line,
                    col,
                    "malformed reprolint pragma; expected "
                    "'# reprolint: allow[CODE,...] reason'",
                )
            )
            continue
        raw_codes = [c.strip() for c in match.group("codes").split(",")]
        codes = {c for c in raw_codes if c}
        reason = match.group("reason").strip()
        bad = sorted(c for c in codes if not _CODE_RE.match(c))
        if not codes or bad:
            errors.append(
                PragmaError(
                    line,
                    col,
                    f"pragma names invalid checker code(s) {bad or ['<empty>']}",
                )
            )
            continue
        if known_codes is not None:
            unknown = sorted(codes - known_codes)
            if unknown:
                errors.append(
                    PragmaError(
                        line, col, f"pragma names unknown checker(s) {unknown}"
                    )
                )
                continue
        if not reason:
            errors.append(
                PragmaError(
                    line,
                    col,
                    "pragma is missing a justification; suppression requires "
                    "a reason after the bracket",
                )
            )
            continue
        pragmas[line] = Pragma(line=line, codes=frozenset(codes), reason=reason)
    return pragmas, errors
