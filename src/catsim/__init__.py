"""Simulator of repeated parity-syndrome measurement on a cat-encoded cavity."""

__version__ = "0.1.0"

from . import analytics, dynamics, hilbert, model, protocols, tomography

__all__ = [
    "analytics",
    "dynamics",
    "hilbert",
    "model",
    "protocols",
    "tomography",
    "__version__",
]
