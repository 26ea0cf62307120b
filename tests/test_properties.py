"""Property checks over randomly relabelled structures (needs hypothesis)."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from hsl import cli
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


# the characters of the four encodings; the label count sits in a drawn
# header, log-uniform up to a million: the command checks its budget from
# the header before it builds any label set
_ENCODING_ALPHABET = "0123456789,-|;{}=:nEFBGHSP"


@st.composite
def antipode_argv(draw):
    letter = draw(st.sampled_from("GHSP"))
    n = draw(st.integers(0, 6).flatmap(lambda d: st.integers(0, 10 ** d)))
    header = f"{letter}:n={n};{draw(st.sampled_from('EFB'))}="
    body = draw(st.text(alphabet=_ENCODING_ALPHABET, max_size=20))
    return ["antipode", "--family", draw(st.sampled_from(sorted(FAMILIES))),
            "--object", header + body,
            "--method", draw(st.sampled_from(["takeuchi", "closed", "both"])),
            "--budget", "2000", "--jobs", "1"]


@settings(max_examples=1500, deadline=None)
@given(antipode_argv())
def test_antipode_exit_codes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, out.getvalue())
