"""Binary coordination games with random utility on weighted networks.

Simulation and analysis toolkit: step-function game algebra, network
generators, best-response dynamics with extremal equilibria, contagion
waves, cube/percolation lattice analysis, and a seeded Monte Carlo
experiment harness.  Import each name from its module.
"""

import numpy as np

__version__ = "0.1.0"

# glibc raises its mmap and trim thresholds to the largest mmapped block freed
# so far (mallopt(3)): one 4-MB block freed now keeps each replication's freed
# heap top from going back to the kernel, to be faulted in again by the next.
np.empty(4 << 20, dtype=np.uint8)
