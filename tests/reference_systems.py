"""Reference implementations that only the tests use.

``absolute_forms`` derives a payload's exact forms straight from its
family's ``first_integral`` (``systems._derive`` at the payload itself) and
moves them to absolute coordinates by substituting X = x + offset;
``hamiltonian``, ``field_polys`` and ``restriction_by_subs`` read the
integral, the field and the restricted forms from it.
This is the derivation that ``pwham.systems`` replaced with a per-family
affine template: the check on the template's forms.
"""

from fractions import Fraction

from pwham.algebra import MultiPoly
from pwham.systems import Zone, _derive

from reference_algebra import expand_subs


def absolute_forms(p) -> tuple:
    """(num, den, fx, fy) of the payload in absolute coordinates: the
    derived local forms with X = x + offset substituted (d/dX is d/dx)."""
    shift = {"x": MultiPoly.var("x") + MultiPoly.const(p.offset)}
    return tuple(expand_subs(f, shift) for f in _derive(p))


def hamiltonian(zone: Zone) -> tuple:
    """The zone's first integral as a (numerator, denominator) pair in
    absolute coordinates; the denominator is 1 except for the global
    center, whose integral is rational."""
    num, den, _, _ = absolute_forms(zone.payload)
    return num, den


def field_polys(zone: Zone) -> tuple:
    """The zone's vector field as exact polynomials in (x, y), absolute
    coordinates, with the reversal flag applied."""
    _, _, fx, fy = absolute_forms(zone.payload)
    return (-fx, -fy) if zone.reverse else (fx, fy)


def restriction_by_subs(zone: Zone, c: Fraction) -> tuple:
    """(N, D, fx, fy) on the line x = c as polynomials in y, by
    substituting x = c into the absolute forms."""
    num, den, _, _ = absolute_forms(zone.payload)
    return tuple(p.subs({"x": Fraction(c)}).as_unipoly("y")
                 for p in (num, den, *field_polys(zone)))
