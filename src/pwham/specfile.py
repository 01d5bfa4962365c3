"""Plain-text system descriptions.

A file is a sequence of directives, one per line; ``#`` starts a comment.

    version 1
    boundaries -1 1
    zone cubic_center a=0 b=4 q=1 offset=0
    zone linear alpha=-1 beta=0 delta=1 mu=1/2 gamma=-2
    option grid 128

Zones are listed left to right; there must be one more zone than boundary.
Every numeric literal is parsed as an exact rational: ``4/5``, ``0.8`` and
``8e-1`` all denote the same number, and no floating point sneaks into the
elimination pipeline.  Unknown directives, kinds and keys, malformed
values and a decimal exponent above ``MAX_EXPONENT`` are rejected with the
offending line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .systems import FAMILIES, PiecewiseSystem, SystemError, piecewise_system


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


ZONE_KEYS = {kind: tuple(f.name for f in fields(cls))
             for kind, cls in FAMILIES.items()}

# keys without a sensible zero default; every other key defaults to 0
ZONE_REQUIRED = {
    "double_center": ("n",),
    "global_center": ("xi",),
}


def parse_grid(text: str) -> int:
    """An oracle grid size: 0 (no oracle) or an integer of at least 16."""
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"grid is not an integer: {text!r}") from None
    if n != 0 and n < 16:
        raise ValueError(f"grid must be 0 (no oracle) or at least 16, got {n}")
    return n


# a decimal exponent above this is rejected before it is expanded, since
# 1e999999999 alone takes gigabytes; int() caps a literal at 4300 digits
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def _exact(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent above MAX_EXPONENT."""
    m = _EXPONENT.search(text)
    if m and abs(int(m.group(1))) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent above {MAX_EXPONENT}: {text!r}")
    return Fraction(text)


def parse_window(text: str) -> tuple[float, float]:
    """A scan window LO:HI of exact rationals with LO < HI."""
    try:
        lo, hi = (float(_exact(t)) for t in text.split(":"))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"window is not LO:HI: {text!r}") from None
    except OverflowError:
        raise ValueError(f"window bound beyond the float range: {text!r}") from None
    if lo >= hi:
        raise ValueError(f"window must satisfy LO < HI: {text!r}")
    return lo, hi


# the ``option`` names and the parser that checks each value
OPTIONS = {"grid": parse_grid, "window": parse_window}


@dataclass
class SystemSpecFile:
    version: int
    payloads: list
    reverse: list
    boundaries: list
    options: dict = field(default_factory=dict)

    def to_system(self) -> PiecewiseSystem:
        return piecewise_system(self.payloads, self.boundaries, self.reverse)

    def serialize(self) -> str:
        lines = [f"version {self.version}"]
        lines.append("boundaries " + " ".join(str(b) for b in self.boundaries))
        for p, rev in zip(self.payloads, self.reverse):
            parts = [f"zone {p.kind}"]
            for k in ZONE_KEYS[p.kind]:
                v = getattr(p, k)
                if v != 0 or k in ZONE_REQUIRED.get(p.kind, ()):
                    parts.append(f"{k}={v}")
            if rev:
                parts.append("reverse=true")
            lines.append(" ".join(parts))
        for k in sorted(self.options):
            lines.append(f"option {k} {self.options[k]}")
        return "\n".join(lines) + "\n"


def _rat(token: str, line: int, col: int) -> Fraction:
    try:
        return _exact(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not an exact rational: {token!r}", line, col) from None


def _bool(token: str, line: int, col: int) -> bool:
    t = token.lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ParseError(f"not a boolean: {token!r}", line, col)


def _tokens(line: str) -> list[tuple[str, int]]:
    """The whitespace-separated tokens of a line, each with its column,
    read left to right."""
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_spec(text: str) -> SystemSpecFile:
    version = None
    boundaries: list[Fraction] = []
    payloads: list = []
    reverse: list[bool] = []
    options: dict = {}
    saw_boundaries = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw.split("#", 1)[0])
        if not tokens:
            continue
        (head, col), args = tokens[0], tokens[1:]
        if head == "version":
            if [t for t, _ in args] != ["1"]:
                raise ParseError("expected 'version 1'", lineno, col)
            version = 1
        elif head == "boundaries":
            saw_boundaries = True
            boundaries = [_rat(tok, lineno, tcol) for tok, tcol in args]
        elif head == "zone":
            if not args:
                raise ParseError("zone needs a kind", lineno, col)
            kind, kcol = args[0]
            if kind not in FAMILIES:
                raise ParseError(f"unknown zone kind {kind!r}", lineno, kcol)
            kv: dict = {}
            rev = False
            for tok, tcol in args[1:]:
                if "=" not in tok:
                    raise ParseError(f"expected key=value, got {tok!r}", lineno, tcol)
                k, v = tok.split("=", 1)
                if k == "reverse":
                    rev = _bool(v, lineno, tcol)
                    continue
                if k not in ZONE_KEYS[kind]:
                    raise ParseError(f"unknown key {k!r} for zone kind {kind!r}",
                                     lineno, tcol)
                if k in kv:
                    raise ParseError(f"duplicate key {k!r}", lineno, tcol)
                kv[k] = _rat(v, lineno, tcol)
            for k in ZONE_REQUIRED.get(kind, ()):
                if k not in kv:
                    raise ParseError(f"zone kind {kind!r} requires {k!r}", lineno, col)
            defaults = {k: Fraction(0) for k in ZONE_KEYS[kind]}
            defaults.update(kv)
            try:
                payloads.append(FAMILIES[kind](**defaults))
            except SystemError as e:
                raise ParseError(str(e), lineno, col) from None
            reverse.append(rev)
        elif head == "option":
            if len(args) < 2:
                raise ParseError("option needs a name and a value", lineno, col)
            (name, ncol), (_, vcol) = args[:2]
            if name not in OPTIONS:
                raise ParseError(f"unknown option {name!r}", lineno, ncol)
            value = " ".join(t for t, _ in args[1:])
            try:
                OPTIONS[name](value)
            except ValueError as e:
                raise ParseError(str(e), lineno, vcol) from None
            options[name] = value
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, col)

    if version is None:
        raise ParseError("missing 'version 1' line", 1)
    if not saw_boundaries:
        raise ParseError("missing 'boundaries' line", 1)
    if not payloads:
        raise ParseError("missing 'zone' line", 1)
    if len(payloads) != len(boundaries) + 1:
        raise ParseError(
            f"{len(payloads)} zones need {len(payloads) - 1} boundaries, "
            f"got {len(boundaries)}", 1)
    spec = SystemSpecFile(version, payloads, reverse, boundaries, options)
    try:
        spec.to_system()  # validates ordering and invariants
    except SystemError as e:
        raise ParseError(str(e), 1) from None
    return spec


def load_spec(path: str) -> SystemSpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())
