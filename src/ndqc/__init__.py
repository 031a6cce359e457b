"""Exact workbench for nondeterministic quantum query and communication
complexity of total Boolean functions."""

from .boolfn import (SubcubeTable, SymmetricProfile, TruthTable,
                     block_sensitivity, bs_one, bs_zero, c_one, c_zero,
                     certificate_complexity, decision_tree_depth, make_named,
                     n_query, parse_table, symmetric_profile)
from .polys import (FOURIER, MONOMIAL, MultilinearPoly, NdegCertificate,
                    exact_poly, from_fourier, ndeg, ndeg_decide,
                    nisan_smolensky_procedure, schwartz_stats, symmetric_ndeg,
                    symmetric_ndet_poly, to_fourier, verify_ndet)
from .querysim import (QueryAlgorithm, SymbolicState, VerifierSpec,
                       compile_from_ndet_poly, extract_ndet_poly, simulate,
                       symbolic_simulate, verifier_to_ndet)
from .commsim import (NondetMatrix, PairTable, ProtocolSpec, Rectangle,
                      Transcript, cover_number, fooling_set_check,
                      full_rank_check, make_pair_function, matrix_from_poly,
                      matrix_from_vector_families, ne_protocol, run_protocol,
                      svd_protocol)

__version__ = "0.1.0"
