"""Coherence vectors, correlation matrices, and Hilbert-Schmidt discord
for bipartite qudit density matrices.

Each quantity is available in a definition-based (naive) form and an
optimized matrix-element form; the optimized forms never build operators
and are the ones to use in anything but cross-checks.
"""

from . import bench, bloch, discord, gellmann, linalg, matfile, states

# Join the lists first: "from .gellmann import *" rebinds gellmann to the function.
__all__ = [*bench.__all__, *bloch.__all__, *discord.__all__, *gellmann.__all__,
           *linalg.__all__, *matfile.__all__, *states.__all__]

from .bench import *
from .bloch import *
from .discord import *
from .gellmann import *
from .linalg import *
from .matfile import *
from .states import *

__version__ = "0.1.0"
