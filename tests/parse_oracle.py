"""The four per-family parsers that `hsl.families.parse_structure` replaced,
kept as the oracle of its differential test.  Each repeats checks that the
family's validating constructor also makes (arity, range, empty or
uncovered blocks), raising ParseError; a set partition whose blocks cover
the labels but overlap gets past them, and its constructor's LabelMismatch
comes out as it is."""

from hsl.errors import ParseError
from hsl.families import Graph, Hypergraph, SetPartition, SimplicialComplex


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}") from None


def _parse_header(text: str, prefix: str, section: str = ""):
    """(n, the body after its section tag); no label set is built."""
    if not text.startswith(prefix + ":n="):
        raise ParseError(f"expected {prefix}:n=..., got {text!r}")
    rest = text[len(prefix) + 3:]
    head, sep, body = rest.partition(";")
    if not sep:
        raise ParseError(f"missing ';' in {text!r}")
    n = _parse_int(head, "label count")
    if n < 0:
        raise ParseError(f"negative label count in {text!r}")
    if not body.startswith(section):
        raise ParseError(f"expected {section} section in {text!r}")
    return n, body[len(section):]


def parse_graph(text: str) -> Graph:
    n, payload = _parse_header(text, "G", "E=")
    labels = frozenset(range(n))
    edges = set()
    if payload:
        for part in payload.split(","):
            a, sep, b = part.partition("-")
            if not sep:
                raise ParseError(f"bad edge {part!r}")
            edge = frozenset({_parse_int(a, "vertex"), _parse_int(b, "vertex")})
            if not edge <= labels or len(edge) != 2:
                raise ParseError(f"edge {part!r} outside label range")
            edges.add(edge)
    return Graph(labels, edges)


def parse_hypergraph(text: str) -> Hypergraph:
    n, payload = _parse_header(text, "H", "E=")
    labels = frozenset(range(n))
    edges = set()
    if payload:
        for part in payload.split(";"):
            if not (part.startswith("{") and part.endswith("}")):
                raise ParseError(f"bad hyperedge {part!r}")
            members = frozenset(_parse_int(v, "vertex")
                                for v in part[1:-1].split(",") if v != "")
            if len(members) < 2 or not members <= labels:
                raise ParseError(f"bad hyperedge {part!r}")
            edges.add(members)
    return Hypergraph(labels, edges)


def parse_simplicial(text: str) -> SimplicialComplex:
    n, payload = _parse_header(text, "S", "F=")
    labels = frozenset(range(n))
    facets = []
    for part in ("F=" + payload).split(";"):
        if not part.startswith("F="):
            raise ParseError(f"bad facet section {part!r}")
        payload = part[2:]
        members = frozenset(_parse_int(v, "vertex")
                            for v in payload.split(",") if v != "")
        if not members <= labels:
            raise ParseError(f"facet {payload!r} outside label range")
        facets.append(members)
    return SimplicialComplex.from_facets(labels, facets)


def parse_partition(text: str) -> SetPartition:
    n, payload = _parse_header(text, "P", "B=")
    labels = frozenset(range(n))
    blocks = []
    if payload:
        for part in payload.split("|"):
            # canonical: one digit per label up to ten labels, commas beyond,
            # where a one-label block such as "10" has no comma to go by
            digits = part.split(",") if "," in part or n > 10 else part
            members = frozenset(_parse_int(v, "label") for v in digits)
            if not members:
                raise ParseError(f"empty block in {text!r}")
            blocks.append(members)
    covered = frozenset().union(*blocks) if blocks else frozenset()
    if covered != labels:
        raise ParseError(f"blocks do not cover 0..{n - 1} in {text!r}")
    return SetPartition(labels, tuple(blocks))


_PARSERS = {"G": parse_graph, "H": parse_hypergraph,
            "S": parse_simplicial, "P": parse_partition}


def parse_structure(text: str):
    """Parse any encoding, dispatching on its prefix letter."""
    if not text or text[0] not in _PARSERS:
        raise ParseError(f"unknown structure encoding {text!r}")
    return _PARSERS[text[0]](text)
