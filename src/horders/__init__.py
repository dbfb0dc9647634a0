"""Exact arithmetic for block hereditary orders over power-series rings.

Public surface: the scalar/jet tower, block orders with their valuation
patterns and cyclic invariants, unramified base change of invariants,
twisted involutions with residue isotropy, transport-witness
verification, and a session-file DSL with a CLI.

``import horders`` loads no submodule.  The first use of a public name
imports the submodule that defines it (PEP 562) and binds the name
here, so later lookups are plain attribute reads; ``from horders import
X`` and ``import *`` work as for eager imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "basechange": (
        "ShResult", "becomes_iso_after_sh", "descend_signature", "sh_order",
        "sh_permutation", "sh_signature", "verify_sh_pattern",
    ),
    "errors": ("Diagnostics", "HordersError", "SessionError"),
    "involutions": (
        "ANISOTROPIC", "DISTINGUISHED", "INCONCLUSIVE", "ISOTROPIC", "DistinguishResult",
        "InvolutionSpec", "IsotropyResult", "ResidueBlock", "ResidueInvolution", "anisotropy",
        "apply_sigma", "diagonalize_form", "distinguish", "residually_anisotropic",
        "residue_involution", "residue_isotropy", "wellformed",
    ),
    "matrices": ("JetMatrix",),
    "orders": (
        "BlockOrder", "DivisionSpec", "PatternMatrix", "SemisimpleOrder", "Signature",
        "contains", "cyclic_equal", "cyclic_normal_form", "in_radical", "inv_of",
        "iso_decide", "pattern_mul", "pattern_of", "pattern_pow", "radical_pattern",
        "ss_iso_decide", "ss_iso_decide_fixed",
    ),
    "scalars": (
        "BASE", "QUATERNION", "LaurentJet", "Scalar", "ScalarKind", "default_precision",
        "quadratic",
    ),
    "session": ("Report", "Session", "parse_session", "print_session", "run_session"),
    "witness": (
        "MODE_BASE", "MODE_F", "SCENARIOS", "ReplayReport", "RingMode", "WitnessCheck",
        "counterexample_pair", "mode_etale", "replay", "semisimple_pair", "transport_check",
        "verify_witness",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:  # ``horders.scalars`` before anything imported it
            return _import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())
