"""Quadratic residue codes of prime length over Z/2^m, in exact arithmetic.

The package namespace carries the names of the library example in
README.md; everything else is imported from its submodule (qr2m.lincode,
qr2m.qr, qr2m.verify, ...).
"""

from .lincode import dual, intersect
from .qr import build_family

__version__ = "1.0.0"

__all__ = ["build_family", "dual", "intersect", "__version__"]
