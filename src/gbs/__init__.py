"""Invariants and finite-index-subgroup witnesses for groups presented by
labelled graphs: rank via plateaux, largeness, commensurability, admissible
maps and covers, and mapping tori of finite-order graph automorphisms."""

from .analysis import (AuditReport, MapClassification, check_inequalities,
                       classify, minimal_plateaux, totally_unfolded)
from .coloring import stable_colorings
from .covering import (AdmissibleMap, Verification, branched_cover, compose,
                       covering_characterizations, extract_proper_plateau,
                       identity_map, is_topological_covering,
                       orientation_double_cover, plateau_free_cover,
                       restrict_to_component, verify_admissible,
                       voltage_cover)
from .decide import CommensurabilityVerdict, commensurable, is_large
from .errors import GbsError, InputError, InternalError, ParseError
from .generate import GeneratorConfig, generate_admissible_map, generate_graph
from .graph import (CycleBasisModulus, Dart, EdgeRecord, LabelledGraph,
                    ModulusEntry)
from .io import (emit_automorphism, emit_graph, emit_map, load_automorphism,
                 load_graph, load_map, parse_automorphism, parse_graph,
                 parse_map)
from .plateau import (Plateau, PlateauCollection, all_plateaux, check_plateau,
                      generates, has_proper_plateau, label_primes,
                      minimum_generating_vertices, minimum_hitting_set, mu,
                      plateaux_for_prime, rank)
from .suites import SuiteReport, run_suite
from .torus import (GraphAutomorphism, mapping_torus_graph, mapping_torus_rank,
                    subdivide_inverted_edges, verify_automorphism)

__version__ = "0.1.0"
