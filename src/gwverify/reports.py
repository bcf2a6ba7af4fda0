"""Structured verification reports: exact values, citations, pass/fail."""

from __future__ import annotations

import json
from typing import Optional

from ._record import Record


class ReportItem(Record):
    __slots__ = _fields = ("label", "value", "citation", "expected")

    def __init__(self, label: str, value: str, citation: str = "", expected: Optional[str] = None):
        self.label, self.value, self.citation, self.expected = label, value, citation, expected

    @property
    def ok(self) -> Optional[bool]:
        if self.expected is None:
            return None
        return self.value == self.expected


class VerificationReport(Record):
    __slots__ = _fields = ("command", "items", "error")

    def __init__(
        self, command: str, items: Optional[list[ReportItem]] = None, error: Optional[str] = None
    ):
        self.command = command
        self.items = [] if items is None else items
        self.error = error

    def add(self, label: str, value, citation: str = "", expected=None) -> None:
        self.items.append(
            ReportItem(
                label=label,
                value=str(value),
                citation=citation,
                expected=None if expected is None else str(expected),
            )
        )

    @property
    def status(self) -> str:
        if self.error is not None:
            return "ERROR"
        if all(item.ok in (None, True) for item in self.items):
            return "PASS"
        return "FAIL"

    def to_text(self) -> str:
        lines = [f"# {self.command}"]
        width = max((len(i.label) for i in self.items), default=0)
        for i in self.items:
            mark = {True: "ok  ", False: "FAIL", None: "    "}[i.ok]
            cite = f"  [{i.citation}]" if i.citation else ""
            expect = "" if i.expected is None or i.ok else f"  (expected {i.expected})"
            lines.append(f"{mark} {i.label:<{width}}  = {i.value}{expect}{cite}")
        if self.error:
            lines.append(f"error: {self.error}")
        lines.append(self.status)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "status": self.status,
                "error": self.error,
                "items": [
                    {
                        "label": i.label,
                        "value": i.value,
                        "citation": i.citation,
                        "expected": i.expected,
                        "ok": i.ok,
                    }
                    for i in self.items
                ],
            },
            indent=2,
            sort_keys=True,
        )
