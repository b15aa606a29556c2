"""Perfectly secure 1-private multi-server distributed point functions.

A point function f(x) = beta * [x == alpha] on [1, N] with outputs in
Z_p is split into 2n keys such that per-server evaluations sum to
f(x) while any single key is distributed independently of (alpha,
beta).  The construction blinds the secret index along a multiplicative
line in an extension-field subgroup and recovers the function value
from point evaluations plus first derivatives through a certified
zero-interpolation scheme.
"""
