"""Verification reports: named checks with pass/fail status and witnesses."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any


STATUS_MARK = {"pass": "ok", "fail": "FAIL", "skipped": "skipped"}


def _plain(value: Any) -> Any:
    """Make witnesses JSON-serializable and deterministic."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (frozenset, set)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


@dataclass
class CheckRecord:
    name: str
    status: str  # pass | fail | skipped
    witnesses: list = field(default_factory=list)
    detail: str = ""
    timing_ms: float | None = None

    def to_dict(self, with_timings: bool = False) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "witnesses": _plain(self.witnesses),
            "timing_ms": round(self.timing_ms, 3) if with_timings and self.timing_ms is not None else None,
        }


@dataclass
class VerificationReport:
    """Checks in the order they ran.

    record and skip stamp each check with the wall time since the report's
    previous check (or its creation), so a report that computes each check
    right before recording it times every check.
    """

    title: str
    checks: list[CheckRecord] = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter, init=False, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def overall(self) -> str:
        return "pass" if self.ok else "fail"

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "fail"]

    def _add(self, rec: CheckRecord) -> CheckRecord:
        now = time.perf_counter()
        rec.timing_ms = (now - self._mark) * 1000.0
        self._mark = now
        self.checks.append(rec)
        return rec

    def record(self, name: str, ok: bool, witnesses: list | None = None, detail: str = "") -> CheckRecord:
        return self._add(
            CheckRecord(
                name=name,
                status="pass" if ok else "fail",
                witnesses=witnesses or [],
                detail=detail,
            )
        )

    def skip(self, name: str, detail: str = "") -> CheckRecord:
        return self._add(CheckRecord(name=name, status="skipped", detail=detail))

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                CheckRecord(
                    name=prefix + c.name,
                    status=c.status,
                    witnesses=c.witnesses,
                    detail=c.detail,
                    timing_ms=c.timing_ms,
                )
            )
        # the copied checks keep their own times; the next check starts now
        self._mark = time.perf_counter()

    def text(self, with_timings: bool = False) -> str:
        lines = [f"== {self.title}: {self.overall} =="]
        for c in self.checks:
            mark = STATUS_MARK.get(c.status, c.status)
            line = f"  [{mark:>7}] {c.name}"
            if c.detail:
                line += f" — {c.detail}"
            if with_timings and c.timing_ms is not None:
                line += f" ({c.timing_ms:.1f} ms)"
            lines.append(line)
            for w in c.witnesses[:5]:
                lines.append(f"            witness: {_plain(w)}")
        return "\n".join(lines)

    def to_dict(self, with_timings: bool = False) -> dict:
        return {
            "title": self.title,
            "overall": self.overall,
            "checks": [c.to_dict(with_timings) for c in self.checks],
        }

    def json(self, with_timings: bool = False) -> str:
        return json.dumps(self.to_dict(with_timings), indent=2)
