"""Exact-arithmetic toolkit for weighted projective spaces: weight
well-forming, weighted-homogeneous polynomial algebra, Veronese truncation,
point/orbit geometry over Q and F_p, weighted plane-curve genus machinery,
Hilbert series, and brute-force finite-field verification oracles.

Public names are imported from their module, e.g. `from wps.curves import genus`.
"""

from . import curves, errors, exactmath, geometry, hilbert, oracle, parser, truncation, weights, wpoly

__version__ = "0.1.0"
