"""The seeded operators the counted suites draw stay the same operators."""

import hashlib
import random

from genutil import rand_factored, rand_operator, rand_rooted_operator

# sha256 over repr(P._v) of every operator drawn below
SEEDED_OPERATORS_SHA256 = "8ed23cc7a310ed6d8051d5ae5cab6bf9e5c6db8355a890b54e9e675ce10e5d88"


def test_seeded_operators_are_unchanged():
    """The draws of test_criterion_07 (seed 20260819), test_criterion_08
    (seed 31415) and tests/test_kernels.py (seed 47), one generator at a time."""
    h = hashlib.sha256()
    rng = random.Random(20260819)
    for _ in range(500):
        h.update(repr(rand_rooted_operator(rng, max_roots=4, height=5)[0]._v).encode())
    rng = random.Random(31415)
    for _ in range(250):
        h.update(repr(rand_operator(rng, max_degree=5, height=5)._v).encode())
    for _ in range(250):
        h.update(repr(rand_operator(rng, max_degree=4, height=4)._v).encode())
    rng = random.Random(47)
    for _ in range(80):
        h.update(repr(rand_factored(rng).expand()._v).encode())
    assert h.hexdigest() == SEEDED_OPERATORS_SHA256
