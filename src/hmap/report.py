"""The one JSON shape of every report.

A report is a frozen dataclass that subclasses :class:`Report`.  Its
``to_dict`` emits the fields in declaration order: a complex number becomes
``[re, im]``, a tuple becomes a list (element by element), a nested report
becomes its dict, and every other value is written as it is.
"""

from __future__ import annotations

from dataclasses import fields


def _plain(value):
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class Report:
    """Mixin for report dataclasses: one serializer for all of them."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
