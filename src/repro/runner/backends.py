"""``make_store``: the factory name the benchmark harness imports.

The results store has one implementation,
:class:`~repro.runner.store.ResultsStore`, which every writer (the CLI,
the server and its workers) builds directly.  ``perfbench/sim.py``
still builds its in-process store through this name.
"""

from __future__ import annotations

import os
from typing import Union

from repro.runner.store import ResultsStore

__all__ = ["make_store"]


def make_store(root: Union[str, os.PathLike, None] = None) -> ResultsStore:
    """The results store at *root*: ``ResultsStore(root)``."""
    return ResultsStore(root)
