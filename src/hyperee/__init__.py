"""Estrada indices of m-uniform hypergraphs via adjacency-tensor spectra.

The adjacency tensor of an m-uniform hypergraph on n vertices has
k = n*(m-1)^(n-1) eigenvalues; the Estrada index is the sum of their
exponentials.  This package computes it four ways (explicit spectra via
Newton's identities, certified trace series, rotation-symmetric orbit
formulas, and hyperstar closed forms), provides exact high-order traces,
spectral-radius enclosures, and a family of spectral bounds, plus a CLI
(`hyperee`) wrapping all of it.
"""

from .estrada import (
    BoundsReport,
    EstradaResult,
    bounds_basic,
    bounds_refined,
    ee_from_spectrum,
    ee_hyperstar,
    ee_symmetric,
    ee_trace_series,
    estrada_index,
    order_m_trace,
)
from .hypergraph import (
    HypergraphFormatError,
    UniformHypergraph,
    VertexDegreeProfile,
    connected_components,
    degrees,
    detect_hyperstar,
    from_edge_list,
    gen_empty,
    gen_hyperpath,
    gen_hyperstar,
    parse_hypergraph,
    serialize_hypergraph,
)
from .spectrum import (
    CharPoly,
    Spectrum,
    charpoly_from_traces,
    hyperstar_multiplicities,
    hyperstar_spectrum,
    roots,
    spectrum,
    symmetric_representatives,
)
from .tensor import SpectralRadiusEstimate, apply, spectral_radius
from .traces import (
    Budget,
    FeasibilityError,
    TraceSequence,
    trace_d,
    trace_sequence,
    vertex_trace_terms,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "Budget",
    "CharPoly",
    "EstradaResult",
    "FeasibilityError",
    "HypergraphFormatError",
    "SpectralRadiusEstimate",
    "Spectrum",
    "TraceSequence",
    "UniformHypergraph",
    "VertexDegreeProfile",
    "apply",
    "bounds_basic",
    "bounds_refined",
    "charpoly_from_traces",
    "connected_components",
    "degrees",
    "detect_hyperstar",
    "ee_from_spectrum",
    "ee_hyperstar",
    "ee_symmetric",
    "ee_trace_series",
    "estrada_index",
    "from_edge_list",
    "gen_empty",
    "gen_hyperpath",
    "gen_hyperstar",
    "hyperstar_multiplicities",
    "hyperstar_spectrum",
    "order_m_trace",
    "parse_hypergraph",
    "roots",
    "serialize_hypergraph",
    "spectral_radius",
    "spectrum",
    "symmetric_representatives",
    "trace_d",
    "trace_sequence",
    "vertex_trace_terms",
]
