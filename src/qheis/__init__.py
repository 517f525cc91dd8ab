"""Exact symbolic computation for quantum Heisenberg algebras: structure
constants and their inverse matrix, the Weyl-algebra realization at nonzero
level, imaginary Verma-type modules with graded dimensions and
truncation-scale irreducibility, and loop-module weight multiplicities."""

from .cartan import (
    CartanData,
    FiniteRoot,
    IndexOutOfRange,
    InvalidType,
    LatticePoint,
    highest_root,
    load_type,
    positive_roots,
)
from .heisenberg import (
    HeisenbergAlgebra,
    RelationCheck,
    SingularMatrix,
    StructureConvention,
    ZeroK,
    ZeroLevel,
    central_bracket,
    gamma_bracket,
    inverse_structure_matrix,
    oscillator_table,
    primed_generators,
    relation_table,
    single_heisenberg_table,
    structure_constant,
    structure_matrix,
    verify_canonical_relations,
)
from .loopweights import (
    GradedDims,
    MultiplicityReport,
    NotInSupport,
    RootSetS,
    phi_verma_graded_dims,
    phi_verma_weight_dim,
    support_contains,
    weight_multiplicity,
)
from .qscalar import (
    ONE,
    ZERO,
    DivisionByZero,
    PoleAtOne,
    Scalar,
    UndefinedFactorial,
    arith,
    parse_scalar,
    q_power,
    qbinom,
    qfactorial,
    qint,
    s_power,
    specialize_q1,
)
from .termalg import (
    AlgebraElement,
    GenId,
    RelationTable,
    a_gen,
    commutator,
    d_gen,
    h_gen,
    hp_gen,
    multiply,
    normal_order,
    parse_element,
    reduce_element,
    render_element,
    specialize_gamma,
    total_degree,
    x_gen,
)
from .verma import (
    EmptyComponent,
    GradedDimReport,
    IrreducibilityReport,
    PhiSignature,
    Truncation,
    TruncationExceeded,
    Verdict,
    VermaModule,
    build_module,
    partition_count,
)
from .weyliso import (
    UnspecializedGamma,
    WeylIsomorphism,
    from_weyl,
    to_weyl,
    verify_weyl_iso,
    weyl_relation_table,
)

__version__ = "0.1.0"
