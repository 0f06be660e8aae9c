"""unitcat: concatenative unit-selection data augmentation and
speaker-verification evaluation toolkit.

The package root exports only ``__version__``; import names from the
submodules (``from unitcat.pipeline import run_pipeline``).
"""

__version__ = "0.1.0"
