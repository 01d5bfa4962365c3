"""Shared helpers: fixture systems and random system generators."""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import settings, strategies as st

sys.path.insert(0, os.path.dirname(__file__))

# a failing property test prints the blob that reproduces its example
settings.register_profile("pwham", print_blob=True)
settings.load_profile("pwham")

import corpus_digest
from pwham.dynamics import IntegratorConfig
from pwham.systems import (
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    PiecewiseSystem,
    Zone,
    piecewise_system,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# the integrator budget of the bulk sweeps
BULK_CFG = IntegratorConfig(max_time=120.0, max_steps=120_000)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


# -- canonical fixture systems ------------------------------------------------


def global_center_saddle() -> PiecewiseSystem:
    return piecewise_system(
        [GlobalCenter(F(4, 5)), LinearSaddle(0, -1, -1, -1, 0)], [0])


def cubic_center_saddle() -> PiecewiseSystem:
    return piecewise_system(
        [CubicCenter(a=0, b=4, q=1), LinearSaddle(-1, 0, 1, F(1, 2), 2)], [0])


def double_center_saddle() -> PiecewiseSystem:
    return piecewise_system(
        [DoubleCenter(l=0, n=1, p=0), LinearSaddle(-1, 0, 1, F(1, 5), 2)], [0])


def linear_center_saddle_center() -> PiecewiseSystem:
    return piecewise_system(
        [LinearSaddle(8, 16, F(65, 2), -8, 0),
         LinearSaddle(-2, 0, 2, -1, -1),
         LinearSaddle(8, 8, 10, 8, 8)], [-1, 1])


def designed_center_saddle_saddle() -> PiecewiseSystem:
    """A double center and two linear saddles, designed backwards from the
    crossing ordinates (-1, 3/2) on x = -1 and (-3/4, 2) on x = 1, which
    its one verified cycle crosses: a system of the paper's three-zone
    class (bound "<= 4, generic").  Not a fixture, so that the
    ``cli_oracle`` workload stays as it is."""
    return piecewise_system(
        [DoubleCenter(F(-5, 8), F(3, 7), -1, offset=1),
         LinearSaddle(F(1, 2), -6, F(1004, 35), F(-1, 2), F(-87, 40)),
         LinearSaddle(F(-1, 4), F(1, 2), F(5, 4), F(41, 32), 1)], [-1, 1])


def cubic_three_zone(b=F(-8, 5)) -> PiecewiseSystem:
    return piecewise_system(
        [CubicCenter(a=0, b=b, q=1, offset=1),
         LinearSaddle(2, 0, -2, F(1, 4), F(1, 4)),
         LinearSaddle(2, 0, -2, 0, -4)],
        [-1, 1], [True, False, False])


# -- random generators ---------------------------------------------------------


# rationals with zeros, small values and 20-digit denominators
exact_rats = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(F, st.integers(-10**21, 10**21), st.integers(10**19, 10**20)))


@st.composite
def exact_zones(draw, cls, edges=False):
    """A zone of family cls: every field (offset included) an
    ``exact_rats`` rational, xi made positive, random reversal; with
    ``edges``, each edge a drawn rational or None, lo below hi."""
    values = {f.name: draw(exact_rats) for f in dataclasses.fields(cls)}
    if cls is GlobalCenter:
        values["xi"] = abs(values["xi"]) or F(1)
    lo = hi = None
    if edges:
        lo, hi = sorted(draw(st.lists(exact_rats, min_size=2, max_size=2, unique=True)))
        lo, hi = draw(st.sampled_from([lo, None])), draw(st.sampled_from([hi, None]))
    return Zone(cls(**values), lo, hi, draw(st.booleans()))


def rand_rat(rng: random.Random, lo=-3, hi=3, dens=(1, 1, 2)) -> F:
    return F(rng.randint(lo, hi), rng.choice(dens))


def rand_saddle(rng: random.Random) -> LinearSaddle:
    """A genuine linear Hamiltonian saddle (positive eigenvalue square)."""
    for _ in range(100):
        s = LinearSaddle(rand_rat(rng), rand_rat(rng), rand_rat(rng),
                         rand_rat(rng), rand_rat(rng))
        if s.is_saddle and s.delta != 0:
            return s
    raise AssertionError("saddle generation failed")


def rand_config(rng: random.Random, name: str) -> PiecewiseSystem:
    """Random member of one of the six covered configurations."""
    if name == "double_center+saddle":
        n = rand_rat(rng) or F(1)
        left = DoubleCenter(l=rand_rat(rng), n=n, p=rand_rat(rng))
        return piecewise_system([left, rand_saddle(rng)], [0])
    if name == "global_center+saddle":
        xi = abs(rand_rat(rng)) or F(1, 2)
        return piecewise_system([GlobalCenter(xi), rand_saddle(rng)], [0])
    if name == "cubic_center+saddle":
        a = rand_rat(rng, -1, 1)
        b = a * a + abs(rand_rat(rng)) + F(1, 2)
        left = CubicCenter(a=a, b=b, p=rand_rat(rng, -1, 1), q=rand_rat(rng, -1, 1),
                           r=rand_rat(rng, -1, 1), s=rand_rat(rng, -1, 1))
        return piecewise_system([left, rand_saddle(rng)], [0])
    if name == "double_center+saddle+saddle":
        n = rand_rat(rng) or F(1)
        left = DoubleCenter(l=rand_rat(rng), n=n, p=rand_rat(rng), offset=1)
        return piecewise_system([left, rand_saddle(rng), rand_saddle(rng)], [-1, 1])
    if name == "global_center+saddle+saddle":
        xi = abs(rand_rat(rng)) or F(1, 2)
        left = GlobalCenter(xi, offset=1)
        return piecewise_system([left, rand_saddle(rng), rand_saddle(rng)], [-1, 1])
    if name == "cubic_center+saddle+saddle":
        a = rand_rat(rng, -1, 1)
        b = a * a + abs(rand_rat(rng)) + F(1, 2)
        left = CubicCenter(a=a, b=b, p=rand_rat(rng, -1, 1), q=rand_rat(rng, -1, 1),
                           r=rand_rat(rng, -1, 1), s=rand_rat(rng, -1, 1), offset=1)
        return piecewise_system([left, rand_saddle(rng), rand_saddle(rng)], [-1, 1])
    raise ValueError(name)


CONFIG_NAMES = (
    "double_center+saddle",
    "global_center+saddle",
    "cubic_center+saddle",
    "double_center+saddle+saddle",
    "global_center+saddle+saddle",
    "cubic_center+saddle+saddle",
)

def rand_mixed(rng: random.Random) -> PiecewiseSystem:
    """``corpus_digest.rand_mixed`` on these generators, which equal the
    benchmark's: seeds 7 and 11, 40 draws each, give the ``mixed`` corpus
    of ``corpus_digest.py``."""
    return corpus_digest.rand_mixed(rng, rand_config, rand_saddle, piecewise_system)


def continuous_double_center_match(rng: random.Random) -> PiecewiseSystem:
    """Continuous match at x = 0: forces n = mu = beta = gamma = 0, delta = 1;
    the right piece is a linear center (alpha > 0), which is what makes the
    resulting period annulus real rather than merely algebraic."""
    left = DoubleCenter(l=rand_rat(rng), n=0, p=rand_rat(rng))
    alpha = abs(rand_rat(rng)) + F(1, 2)
    right = LinearSaddle(alpha=alpha, beta=0, delta=1, mu=0, gamma=0)
    return piecewise_system([left, right], [0])


def continuous_cubic_center_match(rng: random.Random) -> PiecewiseSystem:
    """Continuous match at x = 0: q = s = 0, delta = b, beta = a, mu = gamma = 0,
    alpha large enough that the right linear piece is a center."""
    a = rand_rat(rng, -1, 1)
    b = a * a + abs(rand_rat(rng)) + F(1, 2)
    left = CubicCenter(a=a, b=b, p=rand_rat(rng, -1, 1), q=0,
                       r=rand_rat(rng, -1, 1), s=0)
    alpha = a * a / b + abs(rand_rat(rng)) + F(1, 2)
    right = LinearSaddle(alpha=alpha, beta=a, delta=b, mu=0, gamma=0)
    return piecewise_system([left, right], [0])


def translate(ps: PiecewiseSystem, t: F) -> PiecewiseSystem:
    """The system moved right by t: every boundary moves by +t, every
    offset by -t, and a linear zone, written in absolute x, takes
    mu + beta*t and gamma - alpha*t."""
    payloads = []
    for z in ps.zones:
        p = z.payload
        if isinstance(p, LinearSaddle):
            p = dataclasses.replace(p, mu=p.mu + p.beta * t, gamma=p.gamma - p.alpha * t)
        else:
            p = dataclasses.replace(p, offset=p.offset - t)
        payloads.append(p)
    return piecewise_system(payloads, [b + t for b in ps.boundaries],
                            [z.reverse for z in ps.zones])
