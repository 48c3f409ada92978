"""Cores, BLAS's threads, and work run on a thread of its own.

Encode's pooling product and part of the gallery's primal solve run on a
second thread only when BLAS leaves a core free (:func:`spare_core`) and
the work is large enough to pay for the thread (``POOL_THREAD_MACS``);
:class:`Task` runs such work and raises its exception again where it is
joined.  Synth sizes its pool by :func:`usable_cores`.
"""

import os
import re
import threading

# A product is run on a thread of its own only when it takes at least
# this many multiply-adds (encode: n * H * W * C * C a chunk; the primal
# solve: n * dim * k a part of k identities).  Below it, starting,
# joining and handing the lock to a thread (about 0.1 ms a chunk) cost
# about what the overlap saves, or more: at one BLAS thread, 16x16x128
# maps (4.2M a chunk) encoded no faster on a thread and 12x12x128 (2.4M)
# 28 % slower; 14x14x256 (12.8M) 20 % faster.  A 27x27x512 map takes
# 191M, a chunk of 56 maps of 6x6x16 0.5M.  Below about 10^6, OpenBLAS
# also takes a small-matrix path whose last bits follow the matrix's
# width, so a split solve would not keep the bits of the whole one.
POOL_THREAD_MACS = 1 << 23

# What C's atoi reads: leading white space, a sign and digits.
_ATOI = re.compile(r"[ \t\n\v\f\r]*([+-]?[0-9]+)")


def usable_cores():
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _atoi(text):
    """``text`` read as C's ``atoi`` reads it: 0 without leading digits."""
    match = _ATOI.match(text)
    return int(match.group(1)) if match else 0


def spare_core():
    """Whether this process has a core to spare beside BLAS's threads:
    more cores than OpenBLAS runs threads.  OpenBLAS runs the first
    positive of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS, each read with ``atoi``, else one per core."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        blas = _atoi(os.environ.get(name, ""))
        if blas > 0:
            return blas < usable_cores()
    return False


class Task(threading.Thread):
    """``fn(*args)`` on a thread of its own, once started."""

    def __init__(self, name, fn, *args):
        super().__init__(name=name, daemon=True)
        self._call, self._value, self._error = (fn, args), None, None

    def run(self):
        fn, args = self._call
        try:
            self._value = fn(*args)
        except BaseException as exc:  # such as a MemoryError, for result()
            self._error = exc
        self._call = None

    def result(self):
        """``fn``'s value, once it has returned; its exception is raised
        again here, with its own type."""
        self.join()
        value, error, self._value, self._error = self._value, self._error, None, None
        if error is not None:
            raise error
        return value
