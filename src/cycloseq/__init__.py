"""Cyclotomic binary sequences and exact pseudorandomness measures.

Every reader imports from the defining module (`cycloseq.measures`,
`cycloseq.bounds`, ...); the package re-exports nothing.
"""

__version__ = "0.1.0"
