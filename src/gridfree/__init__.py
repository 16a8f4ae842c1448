"""Dense grid-free linear 3-uniform hypergraphs from parabolas over F_p.

Three constructions on the parabolas y = x^2 and y = x^2 + 1 (the full
two-parabola instance, a seeded random thinning, and a quadratic-residue
thinning), detectors for the forbidden 3x3 grid and related min-degree-2
configurations, exact covering-lemma arithmetic, and a character-sum
census auditing the closed-form secant counts.
"""

__version__ = "0.1.0"

from .ffield import *
from .geometry import *
from .hypergraph import *
from .construct import *
from .detect import *
from .lemma import *
from .charsum import *

__all__ = (["__version__"] + ffield.__all__ + geometry.__all__ + hypergraph.__all__
           + construct.__all__ + detect.__all__ + lemma.__all__ + charsum.__all__)
