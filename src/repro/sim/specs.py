"""The one parser of the spec-string grammars (DESIGN.md sections 12, 17).

``--failure-scenario`` and ``--arrival`` speak one little language, so
each grammar is a table beside the classes it builds (``SCENARIOS`` in
:mod:`repro.sim.failure`, ``ARRIVALS`` in :mod:`repro.workloads.arrivals`):
kind -> (constructor, ``{parameter: (converter, default)}``), or
(constructor, ``(placeholder, converter)``) where everything after the
colon is one positional value.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Union

#: default of a parameter the spec must give
REQUIRED: Any = object()

Converter = Callable[[str], Any]
Params = Mapping[str, tuple[Converter, Any]]
Kinds = Mapping[str, tuple[Callable[..., Any],
                           Union[Params, tuple[str, Converter]]]]


def number(text: str) -> float:
    """A finite float: NaN compares false with every bound, inf never comes."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"must be a number ({exc})") from None
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def numbers(text: str) -> tuple[float, ...]:
    """``20;45``: ';'-separated finite floats, blank items skipped."""
    try:
        return tuple(number(item) for item in text.split(";") if item.strip())
    except ValueError as exc:
        raise ValueError(
            f"must be ';'-separated numbers, and each {exc}") from None


def index(text: str) -> int:
    """A worker index or a count: a whole number >= 0."""
    if not text.isdecimal():
        raise ValueError(f"must be a whole number >= 0, got {text!r}")
    return int(text)


def usage(kinds: Kinds) -> list[str]:
    """``single:at,worker=0``, ``trace:<path>``, …: each kind with its
    parameters, a required one bare, the others with their defaults."""
    out = []
    for kind, (_, grammar) in kinds.items():
        if isinstance(grammar, tuple):
            out.append(f"{kind}:{grammar[0]}")
            continue
        params = ",".join(
            name if default is REQUIRED else f"{name}={default}"
            for name, (_, default) in grammar.items())
        out.append(f"{kind}:{params}" if params else kind)
    return out


def _arguments(body: str, params: Params) -> dict[str, Any]:
    """``a=1,b=2`` as the constructor's keyword arguments, defaults filled."""
    expected = ", ".join(params) or "none"
    given: dict[str, Any] = {}
    for part in filter(None, map(str.strip, body.split(","))):
        name, equals, text = map(str.strip, part.partition("="))
        if not (equals and name and text):
            raise ValueError(f"expected key=value, got {part!r}")
        if name not in params:
            raise ValueError(
                f"unknown parameter {name!r} (expected: {expected})")
        if name in given:
            raise ValueError(f"parameter {name!r} given twice")
        try:
            given[name] = params[name][0](text)
        except ValueError as exc:
            raise ValueError(f"parameter {name!r} {exc}") from None
    for name, (_, default) in params.items():
        if given.setdefault(name, default) is REQUIRED:
            raise ValueError(
                f"requires parameter {name!r} (expected: {expected})")
    return given


def parse_spec(what: str, spec: str, kinds: Kinds) -> Any:
    """Build what ``spec`` describes from the table ``kinds``; whatever is
    wrong with it — kind, parameter, value, a range check of the kind's
    constructor — is a ``ValueError("malformed <what> '<spec>': …")``."""
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    try:
        if kind not in kinds:
            raise ValueError(
                f"unknown {what} {kind!r}; known: {', '.join(usage(kinds))}")
        build, grammar = kinds[kind]
        if isinstance(grammar, tuple):
            return build(grammar[1](body.strip()))
        return build(**_arguments(body, grammar))
    except ValueError as exc:
        raise ValueError(f"malformed {what} {spec!r}: {exc}") from None
