"""Shared helpers: fixture systems and random system generators."""

from __future__ import annotations

import dataclasses
import os
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# a failing property test prints the blob that reproduces its example
settings.register_profile("pwham", print_blob=True)
settings.load_profile("pwham")

from pwham.systems import (
    CubicCenter,
    DoubleCenter,
    GlobalCenter,
    LinearSaddle,
    PiecewiseSystem,
    piecewise_system,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


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


def cubic_three_zone(b=F(-8, 5)) -> PiecewiseSystem:
    return piecewise_system(
        [CubicCenter(a=0, b=b, q=1, offset=1),
         LinearSaddle(2, 0, -2, F(1, 4), F(1, 4)),
         LinearSaddle(2, 0, -2, 0, -4)],
        [-1, 1], [True, False, False])


# -- random generators ---------------------------------------------------------


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
