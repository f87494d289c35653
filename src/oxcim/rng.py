"""Counter-based keyed noise streams.

Every stochastic quantity in the simulator (device-to-device spread, per-read
cycle-to-cycle noise) is a pure function of an integer key tuple such as
(seed, array id, row, col, read index).  Nothing is drawn from a mutable
generator, so results do not depend on evaluation order, batching, or thread
count: querying one cell in isolation returns the same value as querying it
as part of a full-array sweep.

Keys are folded together with the SplitMix64 finalizer, a cheap bijective
avalanche mix.  The one sampler mixes a key once more and maps the top 53
bits of the word to a standard normal via the inverse Gaussian CDF.  D2D
draws call it as _normals; the crossbar's C2C draws call it as
normals_consuming_keys, the name to patch to count C2C draws alone.  The
statistical quality is far beyond what Gaussian-moment Monte Carlo needs.

That inverse CDF is scipy.special.ndtri, resolved at the first keyed draw
rather than at import: loading scipy.special (and the numpy.testing,
f2py and unittest modules it pulls in) costs more than half of a cold
``import oxcim``, and ideal inference, training and zero-variability
hardware runs never draw.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)

# Stream tags keep unrelated uses of the same (seed, array, cell) apart.
TAG_D2D = 0x1D2D
TAG_C2C = 0x2C2C


def _mix64_inplace(h):
    """SplitMix64 finalizer, mutating its (fresh, uint64) argument."""
    h = np.asarray(h)  # a scalar uint64 multiply would warn on overflow
    t = np.empty_like(h)  # one scratch buffer for the three shifts
    h ^= np.right_shift(h, np.uint64(30), out=t)
    h *= _MUL1
    h ^= np.right_shift(h, np.uint64(27), out=t)
    h *= _MUL2
    h ^= np.right_shift(h, np.uint64(31), out=t)
    return h


def fold(h, word):
    """Absorb one key word into state ``h``; broadcasting applies."""
    w = np.asarray(word, dtype=np.uint64)
    return _mix64_inplace(np.asarray(h, dtype=np.uint64) ^ (w + _GOLDEN))


def stream_key(seed, *words):
    """Derive a 64-bit stream key from a seed and any number of key words."""
    h = fold(np.uint64(0), np.uint64(np.int64(seed).view(np.uint64) if seed < 0 else seed))
    for w in words:
        h = fold(h, w)
    return h[()] if np.ndim(h) == 0 else h


def cell_key_grid(seed, tag, array_id, rows, cols):
    """Per-cell keys of one array's stream ``tag``, a rows x cols grid."""
    r = np.arange(rows, dtype=np.uint64)[:, None]
    c = np.arange(cols, dtype=np.uint64)[None, :]
    return fold(stream_key(seed, tag, array_id), (r << np.uint64(32)) | c)


def _normals(keys):
    """Standard normals from uint64 keys, clobbering the keys."""
    from scipy.special import ndtri  # deferred: see the module docstring
    bits = _mix64_inplace(keys)
    bits >>= np.uint64(11)
    # out= keeps a 0-d key's u an array, for the in-place minimum below
    u = np.multiply(bits, 2.0**-53, out=np.empty(bits.shape))
    u += 2.0**-54
    # top bits 2**53 - 1 round half to even up to 1.0, where ndtri is +inf
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


normals_consuming_keys = _normals  # C2C draws: see the module docstring


def d2d_normals(seed, array_id, rows, cols):
    """Device-to-device standard normals, fixed per (seed, array, cell)."""
    return _normals(cell_key_grid(seed, TAG_D2D, array_id, rows, cols))


def read_event_words(read_ids):
    """Mixed 64-bit words identifying READ events; XOR them into cell keys."""
    return _mix64_inplace(np.asarray(read_ids, dtype=np.uint64) + _GOLDEN)
