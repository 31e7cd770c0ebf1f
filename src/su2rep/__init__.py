"""Exact cohomology invariants of SU(2) representation varieties of
nonorientable surfaces, with a quaternion numerical oracle for the
underlying geometry.

Each public name is imported from its module, so ``import su2rep`` alone
imports no submodule, and a CLI request imports only the modules its
command computes with.
"""

__version__ = "0.1.0"
