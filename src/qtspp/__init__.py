"""Workbench for the q-TSPP determinant certificate.

Builds the certificate table of normalized cofactors over GF(p), discovers
its bivariate q-recurrence by modular guessing and reconstruction, and
verifies the certificate identities at scale with independent brute-force
oracles at small sizes.  Import from the submodules: fieldcore, okada,
cofactors, guessing, verify and cli.
"""

__version__ = "0.1.0"
