"""mmadapt: a desk-scale lab for steering a frozen byte-level LM with
pseudo tokens built from audio/vision feature sequences.

Importing the package sets glibc's malloc to serve arrays of up to 32 MiB
from its heap and to keep up to 128 MiB of freed memory there: a training,
pretraining or decoding step allocates and frees megabytes of activations,
and with the default thresholds those pages go back to the system and fault
in again on every step. C libraries without `mallopt` keep their defaults."""

import ctypes as _ctypes

__version__ = "0.1.0"

_mallopt = getattr(_ctypes.CDLL(None), "mallopt", None)
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (_ctypes.c_int, _ctypes.c_int), _ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
