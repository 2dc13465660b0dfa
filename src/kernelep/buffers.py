"""Large work arrays that give their pages back when freed.

Training's feature phase and the EP path build arrays of a megabyte or more
and drop them soon after: pair distances, Beta rows and centred embeddings
in training; an online update's carry, a batch's (M X)^T and ActiveSource's
queued features in EP, and a fold's square.  From _MAPPED_BYTES up,
``_transient`` puts each in a private anonymous mapping of its own, so
freeing it unmaps its pages at once.  A freed heap block may stay resident
instead: once glibc has freed a block it had mapped, it raises its mmap
threshold to that block's size (up to 32 MiB) and serves later blocks up to
it from the heap, which it shrinks only from the top, so a stream of
growing blocks keeps every freed one.  tracemalloc does not see a mapped
array.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

# smallest array _transient maps; smaller ones come from NumPy's allocator
_MAPPED_BYTES = 1 << 20

# a private mapping, so a forked child writes its own copy of the pages; an
# anonymous mapping is private already where mmap has no flags (Windows)
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _transient(shape, dtype=float) -> np.ndarray:
    """An uninitialised array, in a private anonymous mapping of its own
    from _MAPPED_BYTES up and from NumPy's allocator below."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _MAPPED_BYTES:
        return np.empty(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes, **_PRIVATE), dtype).reshape(shape)
