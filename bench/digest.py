"""Streaming check of one JSON report as it is written.

Every report the benchmark reads (the CLI's and the library ops') is a JSON
object dumped with ``sort_keys=True, indent=2``: its top-level ``"pass"``
key sits on a line of its own with two spaces of indent, and each element
of its top-level ``"results"`` list opens on a line that is exactly four
spaces and ``{``.  That lets the report be checked in one streaming pass,
without holding it in memory or parsing it.
"""

from __future__ import annotations

import hashlib


class ReportDigest:
    """sha256, byte count, result count and top-level pass flag of a report."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._tail = b""
        self.size = 0
        self.results = 0
        self.passed: bool | None = None

    def feed(self, data: bytes) -> None:
        self._sha.update(data)
        self.size += len(data)
        lines = (self._tail + data).split(b"\n")
        self._tail = lines.pop()
        for line in lines:
            self._line(line)

    def _line(self, line: bytes) -> None:
        if line == b"    {":
            self.results += 1
        elif line.startswith(b'  "pass": '):
            self.passed = line.rstrip(b",").endswith(b"true")

    def finish(self) -> dict:
        if self._tail:
            self._line(self._tail)
            self._tail = b""
        return {
            "sha256": self._sha.hexdigest(),
            "bytes": self.size,
            "results": self.results,
            "pass": self.passed,
        }


class TextSink:
    """A write-only text stream that feeds a :class:`ReportDigest`."""

    def __init__(self, digest: ReportDigest) -> None:
        self.digest = digest

    def write(self, text: str) -> int:
        self.digest.feed(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass
