"""Exact construction, certification and reduction analysis of rational
Diophantine sextuples.

A rational Diophantine m-tuple is a set of m nonzero rationals such that the
product of any two of them increased by 1 is a perfect square.  This package
builds sextuples from a one-parameter elliptic-curve construction, certifies
every pairwise square condition with exact witnesses, and analyzes the
reduction types and p-adic valuations that make the construction work.
All arithmetic is exact; nothing here touches floating point.
"""

from .errors import ConsistencyError, DegeneracyError, UnfactorableError
from .exactnum import (
    DEFAULT_FACTOR_BOUND,
    Rat,
    format_rat,
    parse_rat,
    sqrt_exact,
    vp,
)
from .family import TripleABC, require_param, triple_from_multiple
from .paramfam import (
    CatalogEntry,
    FamilyPoint,
    catalog,
    catalog_entry,
    family_point,
    family_triple,
)
from .reduction_lab import (
    BadPrimesReport,
    ReductionReport,
    ValuationRow,
    bad_primes_epp,
    classify,
    mod3_sign_table,
    nonsingular_residues,
    p_minimal_model,
    valuation_table,
)
from .sextuple_engine import (
    PairWitness,
    SextupleRecord,
    VerificationReport,
    extend_to_sextuple,
    induced_curve,
    point_Pprime,
    verify_tuple,
)
from .weierstrass import Curve, INFINITY, Point

__version__ = "0.1.0"
