"""Finite-quotient workbench for double coset separability experiments."""
