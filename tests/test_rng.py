import hashlib
import subprocess
import sys
import textwrap

import numpy as np
from scipy.special import ndtri

from oxcim import rng
from oxcim.crossbar import CrossbarTile
from oxcim.device import default_device_config

# A noisy 4x4 HRS tile and one READ pair of two input patterns.
TILE_TRITS = [[1, -1, 0, 1], [0, 1, -1, -1], [-1, 0, 1, 0], [1, 1, -1, 0]]
READ_INPUT = [[1, -1, 0, 1], [-1, 1, 1, 0]]
EDGE_KEYS = [0, 1, 2**63, 2**64 - 1]
# sha256 of d2d_normals(seed=1, array_id=3, rows=64, cols=64)
D2D_PIN = "d58b75d0d8c7282dd9a1460cbeb5005463a3f4cf13998cccf9cb22d199f1e1b8"


def test_same_key_same_value():
    k = rng.stream_key(42, 1, 2)
    assert rng.normals_consuming_keys(k) == rng.normals_consuming_keys(k)


def test_distinct_fields_change_streams():
    a = rng.d2d_normals(seed=1, array_id=1, rows=4, cols=4)
    b = rng.d2d_normals(seed=1, array_id=2, rows=4, cols=4)
    c = rng.d2d_normals(seed=2, array_id=1, rows=4, cols=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cell_lattice_is_stable_under_shape():
    # the value at (r, c) must not depend on how large a grid was requested
    big = rng.d2d_normals(seed=3, array_id=7, rows=64, cols=64)
    small = rng.d2d_normals(seed=3, array_id=7, rows=8, cols=8)
    np.testing.assert_array_equal(big[:8, :8], small)


def test_d2d_normals_keep_their_bits():
    z = rng.d2d_normals(seed=1, array_id=3, rows=64, cols=64)
    assert hashlib.sha256(z.tobytes()).hexdigest() == D2D_PIN


def test_uniforms_open_interval():
    # these keys' uniforms lie strictly inside (0, 1), so their normals are
    # finite and no further out than the one of u = 2**-54
    keys = rng.cell_key_grid(0, 1, 0, 200, 200)
    keys[0, :4] = EDGE_KEYS
    z = rng.normals_consuming_keys(keys)
    assert np.all(np.isfinite(z))
    assert np.abs(z).max() <= -ndtri(2.0**-54)


def test_normal_moments():
    z = rng.normals_consuming_keys(rng.cell_key_grid(123, 1, 0, 500, 400))
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2 * n)
    # tails roughly gaussian
    frac = np.mean(np.abs(z) > 3.0)
    assert 0.5 * 0.0027 < frac < 2.0 * 0.0027


MASK64 = 2**64 - 1
MIX_MUL1, MIX_MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix_mix(h):
    """The SplitMix64 finalizer in Python integers."""
    h ^= h >> 30
    h = h * MIX_MUL1 & MASK64
    h ^= h >> 27
    h = h * MIX_MUL2 & MASK64
    return h ^ h >> 31


def splitmix_unmix(h):
    """The finalizer's inverse: every xor-shift and odd multiply undone."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):  # each pass fixes s more top bits
            x = y ^ x >> s
        return x
    h = unshift(h, 31)
    h = h * pow(MIX_MUL2, -1, 2**64) & MASK64
    h = unshift(h, 27)
    h = h * pow(MIX_MUL1, -1, 2**64) & MASK64
    return unshift(h, 30)


def splitmix_normal(key):
    """Scalar reference of the sampler in Python integers: the SplitMix64
    finalizer, the top 53 bits offset by half a step and kept below 1, the
    inverse CDF."""
    u = (splitmix_mix(key) >> 11) * 2.0**-53 + 2.0**-54
    return ndtri(min(u, 1.0 - 2.0**-53))


def test_consuming_variant_matches():
    # the one sampler, C2C and D2D alike, against the scalar reference
    keys = rng.cell_key_grid(4, 4, 0, 32, 32)
    keys[0, :4] = EDGE_KEYS  # the ends of the key range
    want = [splitmix_normal(int(k)) for k in keys.ravel()]
    z = rng.normals_consuming_keys(keys.copy())
    np.testing.assert_array_equal(z.ravel(), want)
    d2d = rng.cell_key_grid(4, rng.TAG_D2D, 0, 32, 32)
    want = [splitmix_normal(int(k)) for k in d2d.ravel()]
    np.testing.assert_array_equal(rng.d2d_normals(4, 0, 32, 32).ravel(), want)


def test_top_word_draws_a_finite_normal():
    # top bits 2**53 - 1 give (2**53 - 1) * 2**-53 + 2**-54, which rounds
    # (half to even) to 1.0, where ndtri is +inf
    key = splitmix_unmix((2**53 - 1) << 11)
    assert splitmix_mix(key) >> 11 == 2**53 - 1
    z = rng.normals_consuming_keys(np.array([key], dtype=np.uint64))
    assert z[0] == ndtri(1.0 - 2.0**-53) == splitmix_normal(key)
    assert 8.2 < z[0] < 8.21


def test_import_defers_scipy_special():
    # ndtri is resolved at the first keyed draw; the draws must not move
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        import oxcim
        import oxcim.cli
        assert "scipy.special" not in sys.modules, "imported at import"
        from oxcim.crossbar import CrossbarTile
        from oxcim.device import default_device_config
        tile = CrossbarTile(default_device_config("hrs"),
                            np.array({TILE_TRITS}), array_id=5)
        i_pos, i_neg = tile.vmm_batch(np.array({READ_INPUT}), [0, 1])
        assert "scipy.special" in sys.modules
        print(tile.cell_g.tobytes().hex(), i_pos.tobytes().hex(),
              i_neg.tobytes().hex())
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    tile = CrossbarTile(default_device_config("hrs"), np.array(TILE_TRITS),
                        array_id=5)
    i_pos, i_neg = tile.vmm_batch(np.array(READ_INPUT), [0, 1])
    assert proc.stdout.split() == [a.tobytes().hex()
                                   for a in (tile.cell_g, i_pos, i_neg)]
