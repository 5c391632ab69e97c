"""Exact arithmetic for hypergraph configurations and their Mobius polynomials.

A configuration is a finite vertex set with a downward closed family of
independence sets containing every singleton, stored by its nubs (the
minimal dependent sets).  This package computes the family of relative
Mobius polynomials, isolates the critical root exactly, classifies
configurations as type I or II, and constructs and verifies the
canonical finite probability space attached to each configuration.
"""

from .core import (
    Configuration,
    Valuation,
    Restriction,
    from_nubs,
    from_independence_list,
    enumerate_independence_sets,
    relative_configuration,
    valuation_of,
    canonical_key,
    components,
    is_right_angled,
)
from .mobius import (
    Classification,
    MobiusFamily,
    RestBound,
    TYPE_I,
    TYPE_II,
    mobius_polynomial,
)
from .poly import (
    AlgebraicRoot,
    Polynomial,
    compare_roots,
    first_positive_root,
    series_inverse,
    sturm_count,
)
from .probspace import (
    ConfiguredSpace,
    RealizationReport,
    SignedWord,
    atoms_from_intersections,
    canonical_space,
    event_probability,
    sample,
    verify_realization,
)
from .structure import (
    builtin,
    from_dependence_graph,
    is_irreducible,
    right_angled_properties,
    star,
    symmetric_counts,
    trace_count_cf,
    trace_series,
)

__version__ = "0.1.0"
