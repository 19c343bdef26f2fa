"""Deterministic equivalents for random matrix models of linear and neural
networks, verified against seeded Monte Carlo simulation at desk scale.

The submodules are the API: ``from rmt_equiv import ridge``,
``from rmt_equiv.randgen import gaussian_matrix`` and so on."""

__version__ = "0.1.0"

# Always False: the hot loops are plain numpy. perfbench/worker.py:env_record
# reads it into the environment record of each benchmark run.
HAS_NUMBA = False
