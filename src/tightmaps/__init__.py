"""Exact-arithmetic classification and verification of tight maps between
Hermitian Lie algebras: root-system data, explicit symmetric-power models,
branching to regular subalgebras, bounded-class bookkeeping, and a
cross-checked classification engine."""

__version__ = "0.1.0"
