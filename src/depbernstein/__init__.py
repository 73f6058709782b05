"""Deviation bounds for sums of dependent self-adjoint random matrices.

Subpackages:
  spectral  symmetric-matrix kernels on one type, SymMatrix
  cantor    recursive blocking of index sets
  bounds    closed-form bound formulas and the certified tail bound
  mixing    exact beta-mixing machinery for finite Markov chains
  models    simulators and the Monte-Carlo experiment harness
  checks    every invariant of `verify` and the acceptance tests, with its slack
  cli       command-line interface
"""

from .bounds import BernsteinInputs, tail_bound_certified, master_log_laplace
from .cantor import cantor_params, cantor_set
from .mixing import MarkovChain, beta_k_exact, fit_geometric_rate
from .models import ModelSpec, run_tail_experiment
from .spectral import SymMatrix

__all__ = [
    "BernsteinInputs",
    "MarkovChain",
    "ModelSpec",
    "SymMatrix",
    "beta_k_exact",
    "cantor_params",
    "cantor_set",
    "fit_geometric_rate",
    "master_log_laplace",
    "run_tail_experiment",
    "tail_bound_certified",
]

__version__ = "0.1.0"
