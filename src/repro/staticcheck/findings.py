"""The structured finding type shared by every analyzer family.

A :class:`Finding` pins one rule violation to one location — a catalog
entry (``catalog:bini322``), a plan's term lists (``plan:strassen444``),
or a source line (``src/repro/parallel/executor.py:42``) — with a severity
that drives the CI gate (``repro lint --fail-on error``).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ordered so ``max(findings)`` is the gate-relevant worst case."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()

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
    """One rule violation at one location.

    Attributes
    ----------
    rule_id:
        Stable identifier from the rule catalog, e.g. ``'APA001'``.
    severity:
        :class:`Severity`; ``ERROR`` findings fail the default CI gate.
    location:
        Where: ``catalog:NAME``, ``plan:NAME``, or ``PATH:LINE``.
    message:
        One-line human description of the violation.
    detail:
        Optional longer context (expected-vs-derived values, the
        offending expression, ...).
    """

    rule_id: str
    severity: Severity
    location: str
    message: str
    detail: str = field(default="")

    def render(self) -> str:
        text = f"{self.location}: {self.severity}: {self.rule_id}: {self.message}"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_dict(self) -> dict[str, str]:
        out = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def _location_key(location: str) -> tuple[str, int]:
    """``(path, line)`` sort key; non-file locations sort line 0."""
    path, _, line = location.rpartition(":")
    if path and line.isdigit():
        return (path, int(line))
    return (location, 0)


def dedupe_findings(
    findings: list[Finding] | tuple[Finding, ...],
) -> list[Finding]:
    """Drop duplicate ``(rule, location)`` pairs, then sort.

    Multiple passes (or multiple walk roots within one pass) can land on
    the same call site; the first emission wins — passes put their most
    specific message first.  Output order is ``(path, line, rule)`` so
    runs are byte-stable across pass-internal iteration-order changes.
    """
    seen: set[tuple[str, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        key = (finding.rule_id, finding.location)
        if key in seen:
            continue
        seen.add(key)
        kept.append(finding)
    kept.sort(key=lambda f: (*_location_key(f.location), f.rule_id))
    return kept


def render_text(findings: list[Finding] | tuple[Finding, ...]) -> str:
    """One line per finding, errors first, stable within severity."""
    ordered = sorted(findings, key=lambda f: (-int(f.severity), f.location, f.rule_id))
    return "\n".join(f.render() for f in ordered)


def render_json(findings: list[Finding] | tuple[Finding, ...]) -> str:
    """Machine-readable dump (a JSON array, one object per finding)."""
    return json.dumps([f.to_dict() for f in findings], indent=2)
