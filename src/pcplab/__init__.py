"""pcplab: exact prime-field algebra, vanishing ideals, and toy PCP verifiers.

Layers, bottom to top: field arithmetic and exact linear algebra; capped
multivariate polynomials with symbolic line restriction; point varieties with
low-degree extension, generating sets of the vanishing ideal, and vanishing
certificates; query-counted oracles with keyed corruption; the two-query
low-degree test and local corrector; the 7-query zero-on-variety verifier;
the 24-query 3-coloring PCP; and an experiment harness with a CLI.
"""

__version__ = "0.1.0"
