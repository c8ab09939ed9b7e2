"""Fixed reference work that measures how fast the host runs right now.

The benchmark runs this file as a child just before each set-up and
workload child and reports their wall times in units of its wall time.  On
a shared VM the speed of the host drifts by a third or more within a
minute; the ratio of two adjacent children cancels most of that drift.

The mix resembles qwproj's hot path: a fresh interpreter importing numpy,
sorting integer coordinate pairs with ``np.unique(axis=0)``, building a
dict keyed by position tuples, and multiplying complex blocks.  It imports
nothing from qwproj, so no change to the library moves it.  Any change to
this file changes every normalized metric: measure the baseline again.
"""

import numpy as np

rng = np.random.default_rng(0)
for _ in range(12):
    coords = rng.integers(-60, 60, size=(30000, 2))
    uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
    support = dict(zip(map(tuple, coords.tolist()), rng.standard_normal((30000, 4)) + 0j))
    block = np.array(list(support.values())) @ np.eye(4)
