"""Linear-time orthogonal spectral analysis of permuted vectors.

The core object is an orthogonal n x n transform computable in O(n) with
exactly 2n-2 multiplications and 2n-2 additions.  Its spectrum splits into a
mean component and an (n-1)-dimensional block on which permutations of the
input act through explicit orthogonal matrices, so permuting a vector and
shifting its spectrum commute.  A brute-force full-group oracle validates
the representation-theoretic structure at small n.
"""

from .counting import CountedArray
from .oracle import (
    BandlimitReport,
    SchurReport,
    TranslationReport,
    derive_schur_constants,
    enumerate_partitions,
    fourier_full,
    fourier_standard_block,
    lift,
    stabilizer_projection,
    verify_bandlimit,
    verify_translation,
    yor_generator,
    yor_matrix,
)
from .permutations import (
    DEFAULT_ORACLE_CAP,
    ORACLE_CAP_ENV,
    OracleCapExceeded,
    Permutation,
    adjacent_transposition,
    compose,
    enumerate_group,
    from_one_line,
    oracle_cap,
    random_permutation,
)
from .transform import (
    TransformPlan,
    build_plan,
    contrast_matrix,
    dense_transform,
    inverse_transform,
    spectral_shift,
    transform,
    transform_counted,
    transform_counted_scalarwise,
)
from .verify import Check, SuiteReport, run_suite
from .yor import (
    standard_irrep,
    standard_irrep_generator,
    standard_irrep_transpose_apply,
    verify_coxeter,
)

__version__ = "0.1.0"

__all__ = [
    "BandlimitReport",
    "Check",
    "CountedArray",
    "DEFAULT_ORACLE_CAP",
    "ORACLE_CAP_ENV",
    "OracleCapExceeded",
    "Permutation",
    "SchurReport",
    "SuiteReport",
    "TransformPlan",
    "TranslationReport",
    "adjacent_transposition",
    "build_plan",
    "compose",
    "contrast_matrix",
    "dense_transform",
    "derive_schur_constants",
    "enumerate_group",
    "enumerate_partitions",
    "fourier_full",
    "fourier_standard_block",
    "from_one_line",
    "inverse_transform",
    "lift",
    "oracle_cap",
    "random_permutation",
    "run_suite",
    "spectral_shift",
    "stabilizer_projection",
    "standard_irrep",
    "standard_irrep_generator",
    "standard_irrep_transpose_apply",
    "transform",
    "transform_counted",
    "transform_counted_scalarwise",
    "verify_bandlimit",
    "verify_coxeter",
    "verify_translation",
    "yor_generator",
    "yor_matrix",
]
