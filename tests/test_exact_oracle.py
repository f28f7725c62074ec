"""The float and dps values of small pencils are proven to within 1e-12 (1 + |v|) of
the exact level-r value, by exact_oracle's inertia counts.

Each case checks the float64 value and the dps=30 value against one set of exact
blocks: random quartics (n = 2..5), Motzkin, x_n, and random cubics over
q = 3 + x1.  That the value never falls below the exact level-r value is not
asserted: the raw float value does on some of these cases.
"""

import numpy as np
import pytest

from conftest import random_poly
from exact_oracle import assert_brackets, pencil_blocks
from spherebound import Polynomial, motzkin_form, parse_poly, rational_upper_bound, upper_bound


def _plain_cases():
    rng = np.random.default_rng(7)
    levels = {2: range(1, 7), 3: range(1, 4), 4: range(1, 3), 5: range(1, 3)}
    for n, rs in levels.items():
        for k in range(5):
            f = random_poly(n, 4, rng)
            yield from (pytest.param(f, r, id=f"quartic{k}-n{n}-r{r}") for r in rs)
    yield from (pytest.param(motzkin_form(), r, id=f"motzkin-r{r}") for r in range(6))
    for n in range(2, 6):
        yield from (pytest.param(Polynomial.variable(n, n), r, id=f"x{n}-r{r}")
                    for r in range(1, 5))


def _rational_cases():
    rng = np.random.default_rng(7)
    for n in range(2, 6):
        q = parse_poly("3 + x1", n)
        for k in range(3):
            p = random_poly(n, 3, rng)
            yield from (pytest.param(p, q, r, id=f"cubic{k}-n{n}-r{r}") for r in (1, 2))


@pytest.mark.parametrize("f, r", list(_plain_cases()))
def test_plain_values_bracket_the_exact_level_value(f, r):
    blocks = pencil_blocks(f, Polynomial.constant(f.n, 1), r)
    for dps in (None, 30):
        assert_brackets(blocks, upper_bound(f, f.n, r, dps=dps).value)


@pytest.mark.parametrize("p, q, r", list(_rational_cases()))
def test_rational_values_bracket_the_exact_level_value(p, q, r):
    blocks = pencil_blocks(p, q, r)
    for dps in (None, 30):
        assert_brackets(blocks, rational_upper_bound(p, q, p.n, r, dps=dps).value)
