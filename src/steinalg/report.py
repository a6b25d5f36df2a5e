"""Structured pass/fail reports with deterministic text and key-value output.

Sections and entries keep insertion order; rendering the same report twice
yields identical bytes, which the CLI relies on for reproducibility.
"""

from __future__ import annotations

from .rings import int_text

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


class Report:
    def __init__(self, title):
        self.title = title
        self._sections = []          # list of (name, [(key, value)])
        self._by_name = {}
        self._statuses = []          # list of (section.key, status)

    def section(self, name):
        if name not in self._by_name:
            entries = []
            self._sections.append((name, entries))
            self._by_name[name] = entries
        return self._by_name[name]

    def add(self, section, key, value):
        """Append a row; an int renders in full at any size (see
        ``rings.int_text``), such as a depth given with 5,000 digits."""
        self.section(section).append(
            (key, int_text(value) if isinstance(value, int) else str(value)))

    def check(self, section, key, status, detail=""):
        """Record a named check; status may be a bool or a status string."""
        if isinstance(status, bool):
            status = PASS if status else FAIL
        if status not in (PASS, FAIL, VACUOUS):
            raise ValueError("bad status %r" % (status,))
        self._statuses.append(("%s.%s" % (section, key), status))
        value = status if not detail else "%s (%s)" % (status, detail)
        self.add(section, key, value)
        return status == PASS

    def absorb(self, other, prefix=""):
        """Append another report's sections and statuses, optionally
        namespacing its section names."""
        for name, entries in other._sections:
            self.section(prefix + name).extend(entries)
        self._statuses.extend((prefix + name, status)
                              for name, status in other._statuses)

    def value(self, section, key):
        """The stored string for a row, or None when absent."""
        for k, v in self._by_name.get(section, []):
            if k == key:
                return v
        return None

    @property
    def ok(self):
        return all(status != FAIL for _, status in self._statuses)

    def failures(self):
        return [name for name, status in self._statuses if status == FAIL]

    def render_text(self):
        lines = ["%s: %s" % (self.title, "pass" if self.ok else "FAIL")]
        for name, entries in self._sections:
            lines.append("")
            lines.append("== %s ==" % name)
            for key, value in entries:
                lines.append("%s: %s" % (key, value))
        return "\n".join(lines) + "\n"

    def render_kv(self):
        lines = ["[report]", "title = %s" % self.title,
                 "ok = %s" % ("true" if self.ok else "false")]
        for name, entries in self._sections:
            lines.append("[%s]" % name)
            for key, value in entries:
                lines.append("%s = %s" % (key, value))
        return "\n".join(lines) + "\n"

    def render(self, fmt="text"):
        if fmt == "text":
            return self.render_text()
        if fmt == "kv":
            return self.render_kv()
        raise ValueError("unknown format %r" % (fmt,))
