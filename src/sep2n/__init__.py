"""Separability analysis of density operators on C2 x CN.

Decides whether a positive-partial-transpose state is separable by
subtracting product vectors, reducing through kernel product vectors, and
enumerating range product vectors as eigenvalues of an operator-determinant
pencil.  Every
"separable" verdict comes with a machine-checkable product-state
certificate.
"""

from .matrixcore import (
    DensityState,
    ToleranceConfig,
    numerical_rank_kernel,
    operator_norm,
    partial_transpose_matrix,
    psd_difference_check,
)
from .productfinder import (
    ConstraintSystem,
    InfiniteFamily,
    NonGenericInput,
    ProductVector,
    kernel_product_vector,
    kernel_product_vectors,
    paired_products,
    products_in_subspace,
    real_e_products,
)
from .sepengine import (
    DependentProjectors,
    NotPTInvariant,
    ReductionTrace,
    SeparabilityCertificate,
    SupportViolation,
    Verdict,
    VerdictKind,
    analyze,
    biorthogonal_check,
    decompose_rank_n,
    pt_invariant_decompose,
    pt_symmetrizing_search,
    reduce_by_kernel,
    strip_support,
    subtract,
    symmetric_split_check,
    two_qubit_decompose,
    verify_certificate,
)

__version__ = "0.1.0"
