"""Property checks over randomly relabelled structures (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hsl.families import FAMILIES, parse_structure

_CARRIERS: dict = {}


def _carrier(tag, n):
    key = (tag, n)
    if key not in _CARRIERS:
        _CARRIERS[key] = FAMILIES[tag].enumerate(frozenset(range(n)))
    return _CARRIERS[key]


@st.composite
def relabelled_structures(draw):
    tag = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(min_value=0, max_value=4))
    carrier = _carrier(tag, n)
    x = carrier[draw(st.integers(min_value=0, max_value=len(carrier) - 1))]
    image = draw(st.permutations(range(n)))
    return FAMILIES[tag].relabel(dict(zip(range(n), image)), x)


@settings(max_examples=300, deadline=None)
@given(relabelled_structures())
def test_parse_inverts_encode(x):
    assert parse_structure(x.encode()) == x
