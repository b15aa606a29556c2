"""Perfectly secure 1-private multi-server distributed point functions.

A point function f(x) = beta * [x == alpha] on [1, N] with outputs in
Z_p is split into 2n keys such that per-server evaluations sum to
f(x) while any single key is distributed independently of (alpha,
beta).  The construction blinds the secret index along a multiplicative
line in an extension-field subgroup and recovers the function value
from point evaluations plus first derivatives through a certified
zero-interpolation scheme.
"""

from .dpf import (DpfKey, PointFunction, deserialize_key,
                  evaluate_all, evaluate_key, keygen, make_shares,
                  serialize_key)
from .errors import (ArtifactMismatchError, FamilyViolationError,
                     KeyParseError, LiftInconsistentError, ParameterError)
from .field import Field, FieldElement, find_irreducible
from .interpolation import (InterpolationScheme, build_scheme, hasse_monomial,
                            verify_scheme)
from .matching import (MatchingFamily, product_family, trivial_family,
                       verify_family)
from .oracles import convert_share
from .params import DpfParams, build_params, canonical_set, check_lift_condition

__all__ = [
    "ArtifactMismatchError", "DpfKey", "DpfParams", "FamilyViolationError",
    "Field", "FieldElement", "InterpolationScheme", "KeyParseError",
    "LiftInconsistentError", "MatchingFamily", "ParameterError",
    "PointFunction", "build_params", "build_scheme",
    "canonical_set", "check_lift_condition", "convert_share",
    "deserialize_key", "evaluate_all", "evaluate_key", "find_irreducible",
    "hasse_monomial", "keygen", "make_shares", "product_family",
    "serialize_key", "trivial_family", "verify_family", "verify_scheme",
]
