"""Defective (improper) colorings of toroidal graphs.

Constructs, decides, and verifies colorings whose classes may induce
bounded-degree subgraphs, for graphs embedded on the torus.  Every coloring
emitted anywhere in the package is certified by the independent verifier in
:mod:`torodef.graph`.
"""
from .graph import (Coloring, DefectVector, Graph, VerificationReport, build_graph,
                    degeneracy, induced_subgraph, join, verify_coloring)
from .iso import are_isomorphic
from .generators import (CirculantSpec, GridSpec, InvalidSpec, classify_6regular,
                         gen_circulant, gen_grid, gen_named)
from .embedding import (CutResult, CycleCert, RotationSystem, cut_and_contract,
                        contract_path, edge_signatures, euler_genus,
                        shortest_noncontractible_cycle, shortest_path, trace_faces)
from .solver import (INDETERMINATE, SAT, UNSAT, SolveResult, enumerate_oracle, solve,
                     solve_with_precoloring)
from .constructions import (Certificate, color_0004, color_00002, color_0122,
                            color_600001, color_6regular, color_0003_high_min_degree,
                            color_cycle_56, color_01_paths_cycles, pattern_circ123,
                            pattern_exception)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
