"""Shared test inputs."""

import pytest

from scaledim import (FiniteMetricSpace, cyclic_group, from_matrix, interval,
                      l1_sum, random_metric_space, relabel, wedge)


def _relabelled_circle(rng):
    # An arm whose basepoint is not point 0.
    base = cyclic_group(rng.randint(4, 6), rng.randint(1, 3))
    perm = list(range(base.size))
    rng.shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    return relabel(base, perm)


def _dense_arm(rng):
    # A matrix arm, served by its dense rows.
    rm = random_metric_space(rng.randint(2, 4), rng)
    rows = [[rm.dist(i, j) for j in range(rm.size)] for i in range(rm.size)]
    return from_matrix(rows, basepoint=rng.randrange(rm.size))


def _oracle_arm(rng):
    # An arm with no block kernel: every row goes through its oracle.
    k, a = rng.randint(2, 4), rng.randint(1, 3)
    return FiniteMetricSpace(k, lambda i, j: a * abs(i - j),
                             basepoint=rng.randrange(k), label="oracle")


_ARMS = (
    lambda rng: cyclic_group(rng.randint(3, 6), rng.randint(1, 4)),
    lambda rng: interval(rng.randint(1, 4), rng.randint(1, 4)),
    lambda rng: wedge([cyclic_group(3, rng.randint(1, 3)),
                       interval(rng.randint(1, 2), rng.randint(1, 3))]),
    lambda rng: l1_sum([cyclic_group(3, rng.randint(1, 3)),
                        interval(1, rng.randint(1, 3))]),
    _relabelled_circle,
    _dense_arm,
    _oracle_arm,
)


def make_random_wedge(rng):
    """A wedge with one arm of every kind (circle, interval, nested
    wedge, small sum, relabelled circle, matrix, oracle-only), random
    sizes and weights, plus up to two extra circles or intervals, in a
    random order."""
    makers = list(_ARMS) + [rng.choice(_ARMS[:2]) for _ in range(rng.randint(0, 2))]
    rng.shuffle(makers)
    return wedge([make(rng) for make in makers])


@pytest.fixture
def random_wedge():
    return make_random_wedge
