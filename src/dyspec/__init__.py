"""Dynamic token-tree speculative decoding simulator and benchmark harness.

Import each name from the module that defines it (``dyspec.engine``,
``dyspec.construct``, ...); the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
