"""The base of the four report types: `BignessVerdict` and `SweepReport`
in `bigness`, `RootSystemReport` in `roots` and `ZariskiReport` in
`zariski`.

A report is a `picard.Frozen` value, as a configuration is: slotted, equal
only to a report of its own class with the same fields, hashed, printed
and pickled by its field values, and refusing assignment.  It also
answers the dataclass protocol, so that `dataclasses.replace`, `fields`,
`asdict` and `is_dataclass` read it as they read a frozen dataclass with
the same fields.  Those functions read only `__dataclass_fields__`, which
a report class builds on first read, so a request that never calls them
never loads `dataclasses`.  `picard`, which `import bigsurf.cli` loads,
does not carry this base: only the modules that build a report import it.
"""

from __future__ import annotations

from typing import Any

from .picard import Frozen

__all__ = ["Report"]


class _DataclassFields:
    """The `__dataclass_fields__` of a report class: on first read, those of
    `make_dataclass(name, fields, frozen=True)`, cached on the class, so the
    later reads find a plain dict.  The fieldless base has none, so it is
    not a dataclass."""

    def __get__(self, obj: object, cls: type[Report]) -> dict[str, Any]:
        if not cls._fields:
            raise AttributeError(f"{cls.__name__} is not a dataclass")
        from dataclasses import make_dataclass
        fields = make_dataclass(cls.__name__, cls._fields, frozen=True).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class Report(Frozen):
    """Base of the report types: each states its `_fields` and slots and
    stores them by `_set` in an `__init__` that names every field."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()
