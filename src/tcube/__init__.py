"""Exact construction and verification of the hypercube Terwilliger algebra.

The scalar field is Q(i); everything downstream (operators, idempotents,
module decomposition, the six bases per irreducible module, representation
and transition matrices, the Leonard-triple recognizer) is computed and
compared with exact equality.
"""

from .scalar import GaussRat
from .linalg import (ExactMatrix, ExactVector, gram_schmidt, inner,
                     kernel_basis, rank)
from .cube import (CubeContext, build_context, verify_commutators,
                   verify_conjugation, verify_idempotent_families)
from .decomposition import (Decomposition, IrreducibleModule, decompose,
                            multiplicity, verify_seed_norms)
from .leonard import (BASIS_LABELS, LeonardVerdict, PhiMatrix, SixBases,
                      build_six_bases, hypergeometric_2f1, is_leonard_triple,
                      module_report, module_triple, phi_matrix,
                      transition_matrices, verify_phi, verify_inner_products,
                      verify_rep_matrices)

__all__ = [
    "GaussRat", "ExactMatrix", "ExactVector",
    "gram_schmidt", "inner", "kernel_basis", "rank",
    "CubeContext", "build_context", "verify_commutators",
    "verify_conjugation", "verify_idempotent_families",
    "Decomposition", "IrreducibleModule", "decompose", "multiplicity",
    "verify_seed_norms", "BASIS_LABELS", "LeonardVerdict",
    "PhiMatrix",
    "SixBases", "build_six_bases", "hypergeometric_2f1", "is_leonard_triple",
    "module_report", "module_triple", "phi_matrix", "transition_matrices",
    "verify_phi", "verify_inner_products", "verify_rep_matrices",
]

__version__ = "0.1.0"
