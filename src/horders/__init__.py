"""Exact arithmetic for block hereditary orders over power-series rings.

Public surface: the scalar/jet tower, block orders with their valuation
patterns and cyclic invariants, unramified base change of invariants,
twisted involutions with residue isotropy, transport-witness
verification, and a session-file DSL with a CLI.
"""

__version__ = "0.1.0"

from .basechange import (
    ShResult,
    becomes_iso_after_sh,
    descend_signature,
    sh_order,
    sh_permutation,
    sh_signature,
    verify_sh_pattern,
)
from .errors import Diagnostics, HordersError, SessionError
from .involutions import (
    ANISOTROPIC,
    DISTINGUISHED,
    INCONCLUSIVE,
    ISOTROPIC,
    DistinguishResult,
    InvolutionSpec,
    IsotropyResult,
    ResidueBlock,
    ResidueInvolution,
    anisotropy,
    apply_sigma,
    apply_tau,
    diagonalize_form,
    distinguish,
    residually_anisotropic,
    residue_involution,
    wellformed,
)
from .matrices import JetMatrix
from .orders import (
    BlockOrder,
    DivisionSpec,
    PatternMatrix,
    SemisimpleOrder,
    Signature,
    contains,
    cyclic_equal,
    cyclic_normal_form,
    in_radical,
    inv_of,
    iso_decide,
    pattern_mul,
    pattern_of,
    pattern_pow,
    radical_pattern,
    ss_iso_decide,
    ss_iso_decide_fixed,
)
from .scalars import (
    BASE,
    QUATERNION,
    LaurentJet,
    Scalar,
    ScalarKind,
    default_precision,
    quadratic,
)
from .session import Report, Session, parse_session, print_session, run_session
from .witness import (
    MODE_BASE,
    MODE_F,
    SCENARIOS,
    ReplayReport,
    RingMode,
    WitnessCheck,
    counterexample_pair,
    mode_etale,
    replay,
    semisimple_pair,
    transport_check,
    verify_witness,
)
