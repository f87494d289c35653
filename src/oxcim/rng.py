"""Counter-based keyed noise streams.

Every stochastic quantity in the simulator (device-to-device spread, per-read
cycle-to-cycle noise) is a pure function of an integer key tuple such as
(seed, array id, row, col, read index).  Nothing is drawn from a mutable
generator, so results do not depend on evaluation order, batching, or thread
count: querying one cell in isolation returns the same value as querying it
as part of a full-array sweep.

Keys are folded together with the SplitMix64 finalizer, which is a cheap
bijective avalanche mix; standard normals are produced from the mixed 64-bit
word via the inverse Gaussian CDF on its top 53 bits.  The statistical
quality is far beyond what Gaussian-moment Monte Carlo needs.

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
    t = np.empty_like(h)  # one scratch buffer for the three shifts
    h ^= np.right_shift(h, np.uint64(30), out=t)
    h *= _MUL1
    h ^= np.right_shift(h, np.uint64(27), out=t)
    h *= _MUL2
    h ^= np.right_shift(h, np.uint64(31), out=t)
    return h


def mix64(h):
    """SplitMix64 finalizer over uint64 scalars or arrays (vectorized)."""
    return _mix64_inplace(np.asarray(h, dtype=np.uint64).copy())


def fold(h, word):
    """Absorb one key word into state ``h``; broadcasting applies."""
    w = np.asarray(word, dtype=np.uint64)
    return mix64(np.asarray(h, dtype=np.uint64) ^ (w + _GOLDEN))


def stream_key(seed, *words):
    """Derive a 64-bit stream key from a seed and any number of key words."""
    h = fold(np.uint64(0), np.uint64(np.int64(seed).view(np.uint64) if seed < 0 else seed))
    for w in words:
        h = fold(h, w)
    return h[()] if np.ndim(h) == 0 else h


def cell_keys(base_key, rows, cols):
    """Per-cell keys for an rows x cols grid, derived from one stream key."""
    r = np.arange(rows, dtype=np.uint64)[:, None]
    c = np.arange(cols, dtype=np.uint64)[None, :]
    idx = (r << np.uint64(32)) | c
    return fold(np.uint64(base_key), idx)


def uniforms_from_keys(keys):
    """Map keys to float64 uniforms strictly inside (0, 1)."""
    bits = mix64(keys)
    # Top 53 bits -> [0,1) on the representable grid, then offset off zero.
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return u


def normals_from_keys(keys):
    """Map keys to standard normal draws via the inverse Gaussian CDF."""
    from scipy.special import ndtri  # deferred: see the module docstring
    return ndtri(uniforms_from_keys(keys))


def normals_consuming_keys(keys):
    """Like normals_from_keys but allowed to clobber its argument (hot path)."""
    from scipy.special import ndtri  # deferred: see the module docstring
    _mix64_inplace(keys)
    keys >>= np.uint64(11)
    u = keys.astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return ndtri(u, out=u)


def d2d_normals(seed, array_id, rows, cols):
    """Device-to-device standard normals, fixed per (seed, array, cell)."""
    base = stream_key(seed, TAG_D2D, array_id)
    return normals_from_keys(cell_keys(base, rows, cols))


def read_event_words(read_ids):
    """Mixed 64-bit words identifying READ events; XOR them into cell keys."""
    return mix64(np.asarray(read_ids, dtype=np.uint64) + _GOLDEN)


def c2c_cell_key_grid(seed, array_id, rows, cols):
    """Per-cell base keys for the cycle-to-cycle stream of one array."""
    return cell_keys(stream_key(seed, TAG_C2C, array_id), rows, cols)
