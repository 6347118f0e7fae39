"""Exact verification toolkit for complete projective resolutions and
Gorenstein projective modules over tensor rings.

The package is layered bottom-up:

- ``exactlin``      dense exact matrices over F_p and Q
- ``algebra``       structure-constant algebras, modules, hom spaces
- ``bimodule``      bimodules, tensor products over the base ring, tensor powers
- ``tensor_ring``   T_R(M)-modules as pairs, induced projectives, block morphisms
- ``resolution``    the resolution condition checkers and their oracles
- ``special_rings`` trivial extensions, Morita context rings, triangular rings
- ``search``        bounded enumeration and seeded random generators
- ``formats``       canonical YAML files: parsing with validation, rendering
- ``cli``           the command line front end
"""

from tensorgp.exactlin import FieldSpec, Matrix

__all__ = ["FieldSpec", "Matrix"]

__version__ = "0.1.0"
