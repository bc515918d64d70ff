"""Hierarchical-erasure-correcting linear codes over finite extension fields."""

from .bounds import (
    AsymptoticLimit,
    ExcludedColumnsBound,
    GvThreshold,
    SingletonReport,
    asymptotic_field_size,
    excluded_columns_bound,
    gv_field_threshold,
    singleton_check,
)
from .codes import LinearCode, code_from_rows
from .constructions import (
    GVWitness,
    SubfieldChainBasis,
    b_symmetric_basis,
    balanced_code,
    fold_halves,
    gabidulin_code,
    greedy_gv_code,
    length2_code,
    power_code,
    recover_gv_witness,
    square_trace_code,
    square_trace_udms,
    subfield_chain_basis,
    trace_code,
)
from .correctability import (
    CorrectabilityReport,
    DecodeResult,
    ExpandedSystem,
    decode,
    is_correcting,
    kernel_basis,
    pattern_correctable,
    pattern_system,
    patterns_correctable,
)
from .errors import (
    ConstructionError,
    InvalidBasisError,
    MissingEigenvectorError,
    ParameterError,
)
from .fields import (
    Element,
    ExtSpec,
    FieldSpec,
    OrderedBasis,
    QuadraticRoot,
    dual_basis,
    find_quadratic_root,
    is_basis,
    lucas_binom,
    make_extension,
    make_field,
    make_tower,
    quadratic_root_with_constant,
    subfield_basis,
    trace,
)
from .patterns import (
    BalancedFamily,
    BoundedFamily,
    FullFamily,
    PatternFamily,
    PowerFamily,
    ReceivedWord,
    apply_erasure,
    enumerate_family,
    family_contains,
    hierarchical_weight,
    invisible_generators,
    maximal_patterns,
    parse_family,
)
from .udm import (
    UdmCheck,
    UdmSet,
    check_vector_to_udms,
    trace_check_matrix,
    udms_to_check_vector,
    verify_udm,
    vontobel_udms,
)

__version__ = "0.1.0"
