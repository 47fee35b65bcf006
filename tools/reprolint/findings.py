"""Finding and severity types for ``reprolint``.

A finding is one rule violation anchored to a source location.  The text
rendering is fixed-format — ``path:line:col: SEVERITY CODE message`` —
so CI greps and editors can parse it without configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class Severity(enum.IntEnum):
    """Finding severity; the CLI reports findings at or above a floor."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.name.lower() for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    severity: Severity
    message: str

    def render(self) -> str:
        """Fixed-format text form (stable; parsed by CI and tests)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.name} {self.code} {self.message}"
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form for ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity.name.lower(),
            "message": self.message,
        }

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)
