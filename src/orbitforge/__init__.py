"""Finite-scale orbit rewiring with certified statistics bounds.

The package exports the ``__all__`` list of each module below, so every
public name is declared once, next to its definition.
"""

from .freegroup import *  # noqa: F403
from .permutations import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .rearrange import *  # noqa: F403
from .rewire import *  # noqa: F403
from .spaces import *  # noqa: F403
from .weak import *  # noqa: F403

__version__ = "0.1.0"
