"""Choose which implementation runs the Gibbs visits: numpy or the compiled kernel.

A :class:`~binclust.model.ClusterState` asks ``binclust._kernel.library()``
for its path each time it binds a kernel: at its first scoring, under another
``Hyperparams`` object and after growing its row buffers.  That function reads
``binclust._kernel._lib``; :func:`visit_path` sets that attribute for the
duration of a block, so states scored inside it take that path.
"""

import contextlib

from binclust import _kernel

PATHS = ("numpy", "compiled")


@contextlib.contextmanager
def visit_path(name):
    """Run the visits of states scored in the block on path ``name``.

    ``"compiled"`` builds or loads the kernel first, and fails where it cannot.
    """
    lib = False if name == "numpy" else _kernel.library()
    if lib is None:
        raise AssertionError("the compiled visit kernel cannot be built or loaded")
    saved = _kernel._lib
    _kernel._lib = lib
    try:
        yield
    finally:
        _kernel._lib = saved
