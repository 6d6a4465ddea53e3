"""Exact invariants of persistence modules over finite posets.

The package computes, in exact arithmetic over a prime field, births and
deaths of a module relative to a subset of its index poset, splitting
quotients, minimal projective covers and generator/relation multisets, and
finite supports of presentations via minimal-upper-bound closures.  It also
realizes, on finite instances, the equivalences between functor modules on
an action category, modules graded by a monoid act, and unital modules over
the associated smash product.
"""

from .errors import (
    ArityMismatch,
    CycleError,
    EmptySetError,
    FunctorialityError,
    GpmodError,
    InputTooLarge,
    InternalError,
    MismatchedBase,
    NoSolution,
    NotAGrid,
    NotAnInterval,
    NotComparable,
    NotDetermined,
    NotGenerated,
    NotPresented,
    NotUnital,
    ParseError,
    ShapeError,
    TooLargeError,
    UnknownElement,
    ValidationError,
)
from .linalg import FieldSpec, SubspaceBasis
from .posets import (
    ElementSet,
    PROPERTY_M,
    Poset,
    build_poset,
    chain,
    down_set,
    grid_poset,
    hat,
    is_connected,
    is_interval,
    mub,
    up_set,
)
from .modules import (
    ModuleMorphism,
    PersModule,
    direct_sum,
    free_module,
    free_sum,
    hom_basis,
    hom_space_dim,
    interval_module,
    is_epi,
    is_iso,
    is_mono,
    kernel_module,
    cokernel_module,
    new_module,
    random_module,
    random_morphism,
    zero_module,
)
from .kan import (
    ColimitResult,
    canonical_mu,
    colim_injection,
    induce,
    lambda_map,
    restrict,
)
from .invariants import (
    Presentation,
    births,
    birth_death_report,
    deaths,
    finitely_presented_witness,
    fsp_from_determined,
    is_determined,
    is_generated,
    is_presented,
    minimal_generating_degrees,
    minimal_presentation,
    minimal_presentation_support,
    projective_cover,
    splitting,
    splitting_map,
    verify_split_esim,
)
from .graded import (
    FunctorModule,
    GAct,
    GradedAlgebra,
    GradedModule,
    Monoid,
    SmashAlgebra,
    SmashModule,
    act_preorder,
    act_properties,
    category_algebra_iso,
    cyclic_monoid,
    enumerate_acts,
    enumerate_monoids,
    gamma,
    is_unital,
    lambda_functor,
    local_unit,
    mcd_grid,
    monoid_algebra,
    mub_grid,
    phi,
    psi,
    smash_product,
    witness_map,
)
from .verify import SUITES, VerifyConfig, run_config, run_suite

__version__ = "0.1.0"
