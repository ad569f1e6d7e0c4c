"""Uniform hypergraphs: data model, .uhg file I/O, and generators.

A hypergraph here is m-uniform: every edge is a set of exactly m distinct
vertices.  Vertices are labelled 1..n in files and in the public data model;
numeric kernels translate to 0-based arrays internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

Edge = tuple[int, ...]


class HypergraphFormatError(ValueError):
    """Raised on malformed .uhg input; message carries the 1-based line number."""


@dataclass(frozen=True)
class UniformHypergraph:
    """An m-uniform hypergraph on vertex set {1, ..., n}.

    Edges are stored canonically: each edge sorted ascending, the edge tuple
    sorted lexicographically, no duplicates.
    """

    m: int
    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"uniformity m must be >= 2, got {self.m}")
        if self.n < 1:
            raise ValueError(f"vertex count n must be >= 1, got {self.n}")
        canon = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        object.__setattr__(self, "edges", canon)
        seen: set[Edge] = set()
        for e in canon:
            if len(e) != self.m:
                raise ValueError(f"edge {e} has arity {len(e)}, expected {self.m}")
            if len(set(e)) != self.m:
                raise ValueError(f"edge {e} repeats a vertex")
            if e[0] < 1 or e[-1] > self.n:
                raise ValueError(f"edge {e} uses a vertex outside 1..{self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        if canon and self.n < self.m:
            raise ValueError(f"n={self.n} < m={self.m} with edges present")

    @property
    def q(self) -> int:
        return len(self.edges)

    def eigenvalue_count(self) -> int:
        """Total number of adjacency-tensor eigenvalues, n*(m-1)^(n-1)."""
        return self.n * (self.m - 1) ** (self.n - 1)


@dataclass(frozen=True)
class VertexDegreeProfile:
    """Per-vertex edge counts; degrees[i] belongs to vertex i+1."""

    degrees: tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)


@lru_cache(maxsize=1)  # the layers of one call share one build
def _incidence(
    h: UniformHypergraph,
) -> tuple[tuple[Edge, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The incidence every layer reads, 0-based and in tuples, since every
    caller shares it: the edges in h.edges order, each vertex's ascending
    edge indices, and each vertex's component label, the least vertex of its
    component.  It is cached for the latest hypergraph only, not on the
    hypergraph: a caller that keeps many inputs would keep each one's too."""
    edges = tuple(tuple(v - 1 for v in e) for e in h.edges)
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    label = [-1] * h.n
    for root in range(h.n):  # the least vertex not yet labelled starts a component
        if label[root] < 0:
            label[root] = root
            stack = [root]
            while stack:
                for i in incident[stack.pop()]:
                    for v in edges[i]:
                        if label[v] < 0:
                            label[v] = root
                            stack.append(v)
    return edges, tuple(map(tuple, incident)), tuple(label)


def degrees(h: UniformHypergraph) -> VertexDegreeProfile:
    """Number of edges containing each vertex.  Sums to m * |edges|."""
    return VertexDegreeProfile(tuple(len(es) for es in _incidence(h)[1]))


def parse_hypergraph(text: str) -> UniformHypergraph:
    """Parse the .uhg format.

    Line 1 (after skipping blanks/comments): ``m n q``.  Then q lines of m
    vertex indices (1-based).  ``#`` starts a comment; blank lines ignored.
    Raises HypergraphFormatError with the offending line number.
    """
    header: tuple[int, int, int] | None = None
    first_line: dict[Edge, int] = {}  # edge -> the line it first appeared on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise HypergraphFormatError(f"line {lineno}: non-integer field in {line!r}")
        if header is None:
            if len(values) != 3:
                raise HypergraphFormatError(
                    f"line {lineno}: header must be 'm n q', got {len(values)} fields"
                )
            m, n, q = values
            if m < 2:
                raise HypergraphFormatError(f"line {lineno}: uniformity m={m} must be >= 2")
            if n < 1:
                raise HypergraphFormatError(f"line {lineno}: vertex count n={n} must be >= 1")
            if q < 0:
                raise HypergraphFormatError(f"line {lineno}: edge count q={q} must be >= 0")
            header = (m, n, q)
            continue
        m, n, q = header
        if len(first_line) == q:
            raise HypergraphFormatError(f"line {lineno}: more than the declared {q} edges")
        if len(values) != m:
            raise HypergraphFormatError(
                f"line {lineno}: edge has {len(values)} vertices, expected {m}"
            )
        for v in values:
            if not 1 <= v <= n:
                raise HypergraphFormatError(f"line {lineno}: vertex {v} outside 1..{n}")
        if len(set(values)) != m:
            raise HypergraphFormatError(f"line {lineno}: repeated vertex within edge")
        edge = tuple(sorted(values))
        if edge in first_line:
            raise HypergraphFormatError(
                f"line {lineno}: duplicate edge {edge} "
                f"(first seen on line {first_line[edge]})"
            )
        first_line[edge] = lineno
    if header is None:
        raise HypergraphFormatError("line 1: empty input, expected 'm n q' header")
    m, n, q = header
    if len(first_line) != q:
        raise HypergraphFormatError(
            f"line {len(text.splitlines()) + 1}: expected {q} edges, found {len(first_line)}"
        )
    return UniformHypergraph(m, n, tuple(first_line))


def serialize_hypergraph(h: UniformHypergraph) -> str:
    """Inverse of parse_hypergraph; edges emitted in canonical sorted order."""
    lines = [f"{h.m} {h.n} {h.q}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def gen_empty(m: int, n: int) -> UniformHypergraph:
    """Edgeless m-uniform hypergraph on n vertices."""
    return UniformHypergraph(m, n, ())


def gen_hyperstar(m: int, q: int) -> UniformHypergraph:
    """q edges pairwise intersecting in the single centre vertex 1.

    n = q(m-1) + 1.  Requires q >= 1; use gen_empty for the edgeless case.
    """
    if q < 1:
        raise ValueError(f"hyperstar needs q >= 1 edges, got {q}")
    n = q * (m - 1) + 1
    edges = []
    nxt = 2
    for _ in range(q):
        edges.append(tuple([1] + list(range(nxt, nxt + m - 1))))
        nxt += m - 1
    return UniformHypergraph(m, n, tuple(edges))


def gen_hyperpath(m: int, p: int) -> UniformHypergraph:
    """Loose path with p edges: consecutive edges share exactly one vertex.

    n = p(m-1) + 1.  Requires p >= 1; use gen_empty for the edgeless case.
    """
    if p < 1:
        raise ValueError(f"hyperpath needs p >= 1 edges, got {p}")
    n = p * (m - 1) + 1
    edges = []
    start = 1
    for _ in range(p):
        edges.append(tuple(range(start, start + m)))
        start += m - 1
    return UniformHypergraph(m, n, tuple(edges))


def connected_components(h: UniformHypergraph) -> list[tuple[int, ...]]:
    """Vertex sets of connected components, isolated vertices included,
    each ascending and ordered by their least vertices."""
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(_incidence(h)[2], start=1):
        groups.setdefault(root, []).append(v)
    return [tuple(g) for g in groups.values()]


def detect_hyperstar(h: UniformHypergraph) -> int | None:
    """Return q if h is exactly a hyperstar with q edges (no isolated vertices).

    With n = q(m-1) + 1 that is the case exactly when the sorted degrees are
    (1, ..., 1, q): the degree-q vertex lies in every edge, and every other
    vertex lies in one edge only, so no two edges meet anywhere else.
    """
    if h.q < 1 or h.n != h.q * (h.m - 1) + 1:
        return None
    return h.q if sorted(degrees(h).degrees) == [1] * (h.n - 1) + [h.q] else None


def from_edge_list(m: int, n: int, edges: Iterable[Iterable[int]]) -> UniformHypergraph:
    """Build a hypergraph from any iterable of vertex iterables."""
    return UniformHypergraph(m, n, tuple(tuple(e) for e in edges))
