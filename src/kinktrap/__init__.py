"""Deterministic scattering of an internally bound particle pair off an
attractive Gaussian well.

Two unit-mass particles on a line, tied by a spring and kept apart by a
short-range repulsion, are launched at a finite well.  Depending on the launch
speed the pair passes through, bounces back, or is captured, and near the
class boundaries the outcome is chaotically sensitive to the initial speed.
The package provides the dynamics, fixed-step symplectic integration, small
oscillation closed forms, outcome classification, velocity sweeps, and
divergence diagnostics, plus a CSV-producing command line tool.  Every result
is bitwise reproducible for a given configuration, independent of worker
count.
"""

__version__ = "0.1.0"

from . import dynamics, integrator, linearized, scattering
from . import sweep as _sweep

# Re-export each submodule's public names, sorted within each submodule.  The
# function sweep replaces the submodule of the same name as an attribute.
__all__ = ["__version__"]
for _module in (dynamics, integrator, linearized, scattering, _sweep):
    _names = sorted(_module.__all__)
    globals().update((name, getattr(_module, name)) for name in _names)
    __all__ += _names
del _module, _names, _sweep
