"""Exact MaxCut and cut-polytope toolkit for graphs that decompose into
planar pieces and K5s by clique-sums."""

from .graphs import (BlockDecomposition, CertificationError, Cut,
                     DuplicateEdgeError, Graph, GraphError, NodeRangeError,
                     NotTwoConnectedError, ParseError, SelfLoopError,
                     SizeLimitError, blocks,
                     chordless_cycles, connected_components, cut_from_side,
                     cut_vectors, cut_weight, enumerate_cuts, format_graph,
                     is_connected, is_k_connected, parse_graph, triangles)
from .minors import has_minor, is_c4_minor_free, minor_exhaustive
from .planar import (DisconnectedError, DualGraph, Embedding, dual_graph,
                     faces_of, planar_embed)
from .spqr import (Block, K33Decomposition, K33MinorError, SkelEdge,
                   SkeletonNode, SprTree, augment_with_parallel_originals,
                   decompose_blocks, k33_decompose, maximal_completion,
                   recompose, spr_tree)
from .tjoin import (MatchingError, TJoinError, min_weight_perfect_matching,
                    min_weight_t_join)
from .maxcut import (EliminationState, EliminationStep, MaxCutResult,
                     NonPlanarError, maxcut, maxcut_bruteforce, planar_maxcut)
from .polytope import (InequalitySystem, LinearInequality, brute_hull,
                       cycle_inequality, edge_inequalities,
                       facet_description, fourier_motzkin_project,
                       hypermetric_k5, is_facet, is_valid,
                       metric_inequalities, switch)
from .classify import ClassificationReport, brute_classify, classify
from .generate import GeneratorSpec, Xoshiro256StarStar, gen_k33free

__version__ = "0.1.0"

__all__ = [
    "Block", "BlockDecomposition", "CertificationError", "ClassificationReport", "Cut",
    "DisconnectedError",
    "DualGraph", "DuplicateEdgeError", "EliminationState", "EliminationStep",
    "Embedding", "GeneratorSpec", "Graph", "GraphError", "InequalitySystem",
    "K33Decomposition", "K33MinorError", "LinearInequality", "MatchingError",
    "MaxCutResult", "NodeRangeError", "NonPlanarError", "NotTwoConnectedError",
    "ParseError", "SelfLoopError", "SizeLimitError", "SkelEdge",
    "SkeletonNode", "SprTree", "TJoinError", "Xoshiro256StarStar",
    "augment_with_parallel_originals", "blocks", "brute_classify",
    "brute_hull", "chordless_cycles", "classify", "connected_components",
    "cut_from_side", "cut_vectors", "cut_weight", "cycle_inequality",
    "decompose_blocks", "dual_graph", "edge_inequalities", "enumerate_cuts",
    "facet_description", "faces_of", "format_graph",
    "fourier_motzkin_project", "gen_k33free", "has_minor", "hypermetric_k5",
    "is_c4_minor_free", "is_connected", "is_facet", "is_k_connected",
    "is_valid", "k33_decompose", "maxcut",
    "maxcut_bruteforce", "maximal_completion", "metric_inequalities",
    "minor_exhaustive", "min_weight_perfect_matching", "min_weight_t_join",
    "parse_graph", "planar_embed", "planar_maxcut",
    "recompose", "spr_tree", "switch", "triangles",
]
