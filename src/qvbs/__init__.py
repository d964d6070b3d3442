"""Exact construction and verification toolkit for deformed
valence-bond-solid chains: states, matrix product tensors, transfer-matrix
correlators, and the machine checks behind every closed form."""

__version__ = "0.1.0"

from .qnum import LaurentQ, RatQ, q_binomial, q_factorial, q_integer

__all__ = [
    "LaurentQ",
    "RatQ",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "__version__",
]
