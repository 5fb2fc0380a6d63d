"""Persistent homology and clustering for weighted dissimilarity graphs
and word-association networks.

Each public name is imported from the submodule that defines it on
first use (PEP 562), through the table in :mod:`wordhom._names`, which
is itself imported on the first such lookup. ``import wordhom``
therefore loads no submodule, and neither numpy nor scipy: the
functions that compute with them import them when called.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    return importlib.import_module(f"{__name__}._names").resolve(name)


def __dir__():
    return importlib.import_module(f"{__name__}._names").names()
