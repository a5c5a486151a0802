"""Binary coordination games with random utility on weighted networks.

Simulation and analysis toolkit: step-function game algebra, network
generators, best-response dynamics with extremal equilibria, contagion
waves, cube/percolation lattice analysis, and a seeded Monte Carlo
experiment harness.  Import each name from its module.
"""

__version__ = "0.1.0"
