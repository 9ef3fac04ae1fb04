"""The two report types: a ``Check`` is one row, a ``Report`` is one command's
rows, payload and notes, rendered as sorted JSON or as markdown.

A row's status is ``pass``, ``fail`` or ``anomaly`` (a documented tabulation
defect: surfaced, not a failure).  Reports are deterministic for a fixed
(version, command, seed): the JSON is sorted and carries no timestamps.
"""
from __future__ import annotations

import json
from typing import NamedTuple

from . import __version__

__all__ = ["Check", "Report"]

SCHEMA = "nbk-report/1"


class Check(NamedTuple):
    """One report row."""

    name: str
    status: str  # pass | fail | anomaly
    detail: str = ""
    counterexample: dict | None = None

    @classmethod
    def of(cls, name: str, ok: bool, detail: str = "", counterexample: dict | None = None) -> "Check":
        return cls(name, "pass" if ok else "fail", detail, counterexample)

    @property
    def ok(self) -> bool:
        """False only for a failure: an anomaly is a documented defect."""
        return self.status != "fail"

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class Report:
    """One command's report; the command fills its rows, payload and notes in place."""

    def __init__(self, command: str, config: dict, results: list[Check] | None = None):
        self.command = command
        self.config = config
        self.results = [] if results is None else results
        self.payload: dict = {}
        self.notes: list = []

    def exit_code(self, strict: bool = False) -> int:
        failing = ("fail", "anomaly") if strict else ("fail",)
        return int(any(c.status in failing for c in self.results))

    def as_dict(self) -> dict:
        return {
            "tool": "nbk",
            "version": __version__,
            "schema": SCHEMA,
            "command": self.command,
            "config": self.config,
            "results": [c.as_dict() for c in self.results],
            "payload": self.payload,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# nbk {self.command}", "", f"version {__version__}, schema {SCHEMA}", ""]
        if self.config:
            lines += ["## configuration", "", *(f"- {key}: {self.config[key]}" for key in sorted(self.config)), ""]
        if self.results:
            rows = ((c.name, c.status, c.detail) for c in self.results)
            lines += ["## checks", "", "| check | status | detail |", "|---|---|---|",
                      *("| " + " | ".join(cell.replace("|", r"\|") for cell in row) + " |" for row in rows), ""]
        for key in sorted(self.payload):
            payload = json.dumps(self.payload[key], indent=2, sort_keys=True, default=str)
            lines += [f"## {key}", "", "```", payload, "```", ""]
        if self.notes:
            lines += ["## notes", "", *(f"- {note}" for note in self.notes), ""]
        return "\n".join(lines)
