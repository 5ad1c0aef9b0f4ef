"""Structured pass/fail reports shared by the verification entry points.

Text rendering is for humans and may include timings; JSON rendering is
for scripts and is byte-stable for identical inputs (it carries no
clocks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Check:
    label: str
    passed: bool
    expected: object = None
    actual: object = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "passed": self.passed,
            "expected": _plain(self.expected),
            "actual": _plain(self.actual),
            "detail": self.detail,
        }


@dataclass
class Report:
    title: str
    params: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    elapsed: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, expected=None, actual=None,
            detail: str = "") -> Check:
        check = Check(label, bool(passed), expected, actual, detail)
        self.checks.append(check)
        return check

    def to_text(self) -> str:
        lines = [self.title]
        for k, v in self.params.items():
            lines.append(f"  {k} = {_plain(v)}")
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            extra = ""
            if c.expected is not None or c.actual is not None:
                extra = f" (expected {_plain(c.expected)}, got {_plain(c.actual)})"
            if c.detail:
                extra += f" [{c.detail}]"
            lines.append(f"  {mark} {c.label}{extra}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        if self.elapsed is not None:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "params": {k: _plain(v) for k, v in self.params.items()},
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            return self.to_json()
        return self.to_text()


def _plain(value):
    """Coerce values to JSON-friendly primitives without losing exactness."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)
