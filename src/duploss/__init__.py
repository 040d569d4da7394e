"""Bounded-width tandem duplication - random loss rearrangement of permutations.

A step duplicates a contiguous window in tandem and immediately loses one
copy of each duplicated entry; bounding the window width by K and counting
steps gives a rearrangement model whose reachable sets are pattern-avoiding
classes.  The package provides the step semantics, scenario generators with
matching step-count bounds, exact class enumeration with forbidden-pattern
bases, the value-position analysis toolkit, and a benchmark harness.

The package re-exports each module's ``__all__``, which alone decides what
is public, plus the error classes of ``errors``.
"""

from .errors import *
from .permutation import *
from .steps import *
from .scenarios import *
from .classes import *
from .vp import *
from .bench import *

__version__ = "0.1.0"
