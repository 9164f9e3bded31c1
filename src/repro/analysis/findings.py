"""Finding records and their baseline fingerprints."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any


class Severity:
    """Finding severities (plain strings so JSON output stays trivial).
    Every finding gates the exit code, so there is one."""

    ERROR = "error"

    @classmethod
    def valid(cls, value: str) -> bool:
        return value == cls.ERROR


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    ``path`` is POSIX-relative to the analysis root so findings (and
    their fingerprints) are machine-independent.
    """

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline suppression
        file: a finding keeps its fingerprint when unrelated edits shift
        it to a different line, but changes when it moves files or its
        message (which embeds the offending symbol) changes."""
        raw = f"{self.rule}|{self.path}|{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.severity}: {self.message}"


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Canonical report order: location first, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
