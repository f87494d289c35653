import subprocess
import sys
import textwrap

import numpy as np

from oxcim import rng
from oxcim.crossbar import CrossbarTile
from oxcim.device import default_device_config

# A noisy 4x4 HRS tile and one READ pair of two input patterns.
TILE_TRITS = [[1, -1, 0, 1], [0, 1, -1, -1], [-1, 0, 1, 0], [1, 1, -1, 0]]
READ_INPUT = [[1, -1, 0, 1], [-1, 1, 1, 0]]


def test_same_key_same_value():
    k = rng.stream_key(42, 1, 2)
    assert rng.normals_from_keys(k) == rng.normals_from_keys(k)


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


def test_uniforms_open_interval():
    keys = rng.cell_keys(rng.stream_key(0, 1), 200, 200)
    u = rng.uniforms_from_keys(keys)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_normal_moments():
    keys = rng.cell_keys(rng.stream_key(123, 1), 500, 400)
    z = rng.normals_from_keys(keys)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2 * n)
    # tails roughly gaussian
    frac = np.mean(np.abs(z) > 3.0)
    assert 0.5 * 0.0027 < frac < 2.0 * 0.0027


def test_consuming_variant_matches():
    keys = rng.cell_keys(rng.stream_key(4, 4), 32, 32)
    keys[0, :4] = [0, 1, 2**63, 2**64 - 1]  # the ends of the key range
    a = rng.normals_from_keys(keys)
    b = rng.normals_consuming_keys(keys.copy())
    np.testing.assert_array_equal(a, b)


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
