"""Exact algebra of graph path groupoids.

Basic-set calculus on boundary paths, the convolution algebra in canonical
form, the generator family with its relations, acyclic vertex-set collapse
with certified checks, and the 2x2 context calculus with surjectivity
witnesses.  Everything is exact and deterministic; see the CLI in
``steinalg.cli`` for the command-line entry points.
"""

from .collapse import (CollapseCertificate, CollapseSpec, check_phi_fin_image,
                       collapse, first_hit_extensions, pointed_groupoid_iso_check,
                       validate_collapsible)
from .cylinder import (BasicBisection, GroupoidProbe, PathPair, as_bisection,
                       boundary_tails, compose_pairs, expand, pair_contains,
                       pairs_to_depth)
from .errors import InputError
from .graph import (Edge, Graph, GraphFormatError, Path, VertexSubset, concat,
                    enumerate_paths, is_acyclic, is_prefix, load_graph,
                    load_graph_file, serialize_graph, sources, strip_prefix,
                    subgraph)
from .leavitt import (WordSyntaxError, check_ck_relations, eval_word,
                      generator, indicator_as_word, parse_word)
from .morita import (Corner, CornerSupportError, LinkingElement,
                     LinkingInvariantError, MoritaWitness, Transversal,
                     corner_of, eq_ops_check, least_connectors, linking_convolve,
                     morita_report, phi, psi, surjectivity_witness)
from .report import Report
from .rings import (CoefficientRing, IntegerRing, IntegersMod, RationalRing,
                    ring_from_spec)
from .steinberg import (GradedDecomposition, SteinbergElement, add, convolve,
                        evaluate, from_terms, grade, graded_component,
                        indicator, negate, oracle_convolve_at, scale, zero)

__version__ = "0.1.0"
