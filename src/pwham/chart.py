"""Exact crossing chart of a switching line.

On the line x = c the normal velocities of the two adjacent zones, f⁻ of
the left zone and f⁺ of the right one, are the restricted fields
``systems.restriction`` returns (reversal applied), each of degree at most
2 in y for every family (a tier-1 test derives it from ``restriction``).
Their signs split the line into at most five open segments (Filippov 1988;
Kuznetsov, Rinaldi & Gragnani 2003):

* f⁻ > 0 and f⁺ > 0: ``crossing +1``, the flow crosses rightward;
* f⁻ < 0 and f⁺ < 0: ``crossing -1``, the flow crosses leftward;
* f⁻ > 0 > f⁺: ``attracting sliding``, both fields push toward the line;
* f⁻ < 0 < f⁺: ``escaping``, both fields push away from it;
* a side whose restriction vanishes identically: ``tangent``, its field
  runs along the line.

A cut is a point where the kind changes: a root of odd multiplicity of f⁻
or f⁺.  A root of even multiplicity changes no sign, so it leaves a
tangency point inside its segment.  Every sign is an exact integer sign
(``algebra._sign_at``) at a dyadic sample point.  The samples come cheaply
from float roots, one below every root, one between each two neighbours
and one above; they are certified when no sample is a root, each side
changes sign along them exactly as often as it has roots of odd
multiplicity (an exact count, read from its integer discriminant), and no
gap between two samples holds a change of both sides, unless both vanish
exactly at the one float root in it (a common root: one cut).  Otherwise
(close roots, a common root that is no float, a coefficient beyond the
float range) the samples are the
ends of the Sturm isolating intervals of f⁻ f⁺ and of its Cauchy box,
points where the product does not vanish.

A closed orbit that crosses the line transversally crosses it both ways, so
a line with no ``crossing +1`` or no ``crossing -1`` segment carries no
crossing cycle (``LineChart.refutation``); ``solver.solve`` reads that as
its gate before root isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import _sign_at, isolate_real_roots
from .systems import Zone, restriction

_KINDS = {(1, 1): "crossing +1", (-1, -1): "crossing -1",
          (1, -1): "attracting sliding", (-1, 1): "escaping"}


@dataclass(frozen=True)
class LineChart:
    """The chart of the line x = c: ``kinds[i]`` is the kind of the i-th
    open segment from below, and ``cuts[i] = (lo, hi)`` holds the one cut
    point between segments i and i + 1, lo < cut < hi, dyadic ends, the
    intervals ascending and disjoint."""

    c: Fraction
    cuts: tuple[tuple[Fraction, Fraction], ...]
    kinds: tuple[str, ...]

    def refutation(self) -> Optional[str]:
        """Why no crossing cycle meets the line, or None when it has a
        crossing segment in each direction."""
        missing = [way for kind, way in (("crossing +1", "rightward"), ("crossing -1", "leftward"))
                   if kind not in self.kinds]
        if not missing:
            return None
        way = f"{missing[0]} crossing" if len(missing) == 1 else "crossing"
        return f"line x = {self.c} has no {way} segment"


def line_chart(left: Zone, right: Zone, c: Fraction) -> LineChart:
    """The crossing chart of x = c between the zones left and right."""
    sides = (restriction(left, c)[2], restriction(right, c)[2])
    return LineChart(c, *_walk(*(_float_samples(sides) or _sturm_samples(sides))))


def _walk(samples, signs) -> tuple[tuple, tuple]:
    """(cuts, kinds) read along the samples and their sign pairs: a cut
    between two neighbouring samples whose kinds differ."""
    kinds = [_KINDS.get(signs[0], "tangent")]
    cuts = []
    for (a, b), (d, e), pair in zip(samples, samples[1:], signs[1:]):
        kind = _KINDS.get(pair, "tangent")
        if kind != kinds[-1]:
            cuts.append((Fraction(a, b), Fraction(d, e)))
            kinds.append(kind)
    return tuple(cuts), tuple(kinds)


def _signs(sides, samples) -> list[tuple[int, int]]:
    """(sign f⁻, sign f⁺) at each sample n/m; the contents are positive."""
    l, r = (p.ints for p in sides)
    return [(_sign_at(l, n, m), _sign_at(r, n, m)) for n, m in samples]


def _odd_count(c) -> int:
    """The number of real roots of odd multiplicity of the integer
    polynomial c, of degree at most 2: a quadratic has two when its
    discriminant is positive, else none."""
    if len(c) == 2:
        return 1
    return 2 if len(c) == 3 and c[1] * c[1] - 4 * c[0] * c[2] > 0 else 0


def _odd_roots(c) -> list[float]:
    """Those roots in floats (``_odd_count`` of them).  Raises
    OverflowError or ZeroDivisionError when the floats fail."""
    n = _odd_count(c)
    if n == 1:
        return [-float(c[0]) / float(c[1])]
    if not n:
        return []
    c0, c1, c2 = map(float, c)
    q = -0.5 * (c1 + math.copysign(math.sqrt(max(c1 * c1 - 4 * c0 * c2, 0.0)), c1))
    return [q / c2, c0 / q]


def _float_samples(sides) -> Optional[tuple[list, list]]:
    """(samples, signs) at dyadic samples (n, m) below, between and above
    the distinct float roots of both sides, when they are certified: no
    sign is 0, each side changes sign across the samples as often as it has
    roots of odd multiplicity, and a gap where both change holds a common
    root, both sides vanishing exactly at its float root.  None otherwise,
    and when a side is zero or of degree above 2 or its floats fail."""
    if any(p.is_zero or p.degree > 2 for p in sides):
        return None
    try:
        roots = sorted({x for p in sides for x in _odd_roots(p.ints)})
        samples = [(math.floor(roots[0]) - 1, 1),
                   *((a / 2 + b / 2).as_integer_ratio() for a, b in zip(roots, roots[1:])),
                   (math.ceil(roots[-1]) + 1, 1)] if roots else [(0, 1)]
        roots = [x.as_integer_ratio() for x in roots]
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    signs = _signs(sides, samples)
    if not all(s and t for s, t in signs):
        return None
    changes = [(a[0] != b[0], a[1] != b[1]) for a, b in zip(signs, signs[1:])]
    counted = all(sum(ch[k] for ch in changes) == _odd_count(p.ints)
                  for k, p in enumerate(sides))
    # gap i, between samples i and i + 1, holds root i
    common = all(not (x and y) or not any(_sign_at(p.ints, *r) for p in sides)
                 for (x, y), r in zip(changes, roots))
    return (samples, signs) if counted and common else None


def _sturm_samples(sides) -> tuple[list, list]:
    """(samples, signs) at the ends of the Sturm isolating intervals of
    the product of the nonzero sides and of its Cauchy box (-B, B),
    ascending: no sample is a root of a nonzero side, and each gap holds at
    most one distinct root."""
    live = [p for p in sides if not p.is_zero]
    sf, ivs = isolate_real_roots(math.prod(live)) if live else (None, [])
    if ivs:
        b = sf.cauchy_bound()
        samples = [x.as_integer_ratio()
                   for x in sorted({-b, b, *(x for iv in ivs for x in (iv.lo, iv.hi))})]
    else:
        samples = [(0, 1)]
    return samples, _signs(sides, samples)
