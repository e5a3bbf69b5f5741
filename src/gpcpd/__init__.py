"""CP decomposition of order-3 complex tensors, specialized for ranks between
the second-largest and largest dimension, via a two-stage optimization over
generating matrices: a sequential generalized-eigenvector search, then a
null-space-parametrized commutation solve when the search stalls.
"""

from .als import als_decompose
from .assembly import (
    decompose,
    decomposition_from_eigmatrix,
    eigmatrix_from_pkset,
    gevd_lowrank_decompose,
    recover_U1_lls,
)
from .bench import BenchConfig, BenchInstance, RunReport, run_benchmark
from .exceptions import (
    AssemblyError,
    ConditioningError,
    DecompositionError,
    DegenerateInputError,
    DimensionMismatchError,
    DomainGuardViolation,
    FormatError,
    GenericityError,
    GpcpdError,
    InconsistentSystemError,
    Stage2FailureError,
    UnsupportedRankError,
)
from .fixtures import fixture_example41, fixture_example42, gen_random_rank_r
from .io import load_factors, load_tensor, save_factors, save_tensor
from .lm import LMOutcome, finite_difference_check, minimize
from .options import SUCCESS_TOL, SolveOptions
from .preprocess import (
    ReducedTensor,
    build_reduced_tensor,
    build_reduced_tensor_lowrank,
    random_mode_mixing,
)
from .stage1 import EigRowSet, run_stage1
from .stage2 import Stage2System, run_stage2
from .tensors import (
    DecompReport,
    FactorTriple,
    Tensor3,
    cpd_to_tensor,
    khatri_rao,
    mode_k_flatten,
    mode_t_matrix_product,
    relative_error,
    unflatten_mode_k,
)

__version__ = "0.1.0"
