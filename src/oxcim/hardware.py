"""Mapping trained networks onto crossbar tiles and the analog forward pass.

Every lowered weight matrix is partitioned into row x col blocks no larger
than the configured tile size.  Each block becomes one CrossbarTile whose
cells get a frozen device-to-device conductance draw at mapping time.
During inference the partial differential currents of row-split tiles are
summed digitally before the activation; column splits are concatenated.

Imbalance reference columns
---------------------------
Cell conductances are strictly positive, so the raw two-phase differential
current carries an input-dependent offset on top of the wanted dot
product: with an affine map G(w) = a*w + b,

    delta_c = v_read * (a * popcount_c + b * (n_pos - n_neg)).

The offset term is of the same order as the popcount for any unbalanced
input, which makes raw columns useless as signed dot products on real
data.  Each tile therefore carries two reference columns, programmed
all-(+1) and all-(-1); the average of their differential currents equals
the offset term (their a-parts cancel, their b-parts match the data
columns), including its sampled device variability.  Subtracting that
common-mode reference per tile recovers

    delta_c - delta_ref = v_read * a * popcount_c        (at zero noise)

exactly for affine maps, which is what the activation stage consumes.
The raw, biased two-phase behavior stays visible at tile level
(crossbar.py); every mapped tile carries its references.

The per-layer gain converts the comparator output (uA) into the same
activation units the digital path uses:

    gain_uA = v_read * a * sqrt(fan_in) * 1e6,  a = (G(+1) - G(-1)) / 2

so one popcount unit corresponds to v_read * a of differential current and
the ternary dead band r keeps its meaning across HRS/LRS configs.  For the
output layer the scaled value feeds the sigmoid neuron directly as its
input current in uA (one activation unit = 1 uA); the neuron is strictly
monotone, so class prediction is an argmax over its output voltages with
ties broken by the lowest class index.

READ events are keyed by (image ordinal, patch, phase), which makes scores
bit-identical no matter how evaluation is ordered or parallelized.

Tile-major inputs
-----------------
A conv's tiles split its fan-in into row blocks, and each tile reads only
its block's slice of every input vector.  Mapping keeps, per row block,
the C-ordered (positions, rows) slice of the layer's im2col gather
offsets.  A forward gathers each row block's input vectors once, straight
from the layer input, into one int8 buffer per layer the size of a patch
matrix, block after block, so every tile reads a contiguous
(N * positions, rows) slab, shared by the column-split tiles of its
block: the checks, gates and float64 casts of its READ run over
contiguous memory, not over a strided column slice.  The buffer is one
allocation per layer, not one per block (see _layer_delta).  Every
column sum is exact, so the layout moves no bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .crossbar import A_TO_UA, CrossbarTile
from .device import DeviceConfig, sigmoid_neuron_voltage
from .errors import ConfigError, check_integer, check_type, shown
from .network import Conv2D, NetworkDescription, as_batch, \
    conv_weight_matrix, predicted_class, walk
# No caller here; benchmarks/tracing.py wraps these module attributes.
from .crossbar import sense_to_activation  # noqa: F401
from .network import im2col  # noqa: F401

DEFAULT_MAX_TILE = (64, 64)
REF_TRITS = (1, -1)  # trits of the reference columns that end each tile


@dataclass(frozen=True)
class TilePlacement:
    """One tile plus where its block sits in the lowered weight matrix.

    gather holds, for a conv, the flat input offsets of the tile's row
    block: the C-ordered (positions, rows) slice of the im2col gather,
    one array shared by the column-split tiles of the block.  It is None
    for a dense layer, whose tiles read column slices of the input.
    """

    tile: CrossbarTile
    row_start: int
    col_start: int
    gather: np.ndarray = field(repr=False, compare=False)


@dataclass
class LayerMapping:
    rows: int
    cols: int
    gain_uA: float
    placements: list = field(default_factory=list)


@dataclass
class TiledNetwork:
    net: object
    mappings: dict  # layer index -> LayerMapping

    def all_cells(self):
        """Yield (trit grid, conductance grid) of the weight-bearing cells.

        Reference columns are excluded: they are periphery, not weights.
        """
        for m in self.mappings.values():
            for p in m.placements:
                yield (p.tile.cell_state[:, :-len(REF_TRITS)],
                       p.tile.cell_g[:, :-len(REF_TRITS)])


def check_max_tile(max_tile):
    """max_tile as (rows, cols), or a ConfigError unless it is two integers
    with room for a data row and a data column plus two reference columns."""
    # as objects: np.shape raises a ValueError on a ragged value
    if np.asarray(max_tile, dtype=object).shape != (2,):
        raise ConfigError(f"max tile must be (rows, cols), got {shown(max_tile)}")
    return (check_integer(max_tile[0], "max tile rows", lo=1),
            check_integer(max_tile[1], "max tile columns", lo=3))


def map_network_to_tiles(net, config, max_tile=DEFAULT_MAX_TILE):
    """Program every lowered weight matrix onto crossbar tiles.

    Deterministic: array ids are assigned in (layer, row block, col block)
    order and all conductance draws are keyed from them, so the same
    (network, config) always produces identical tiles.  Every tile gets two
    extra reference columns; physical tile widths still respect max_tile.
    """
    check_type(config, DeviceConfig).require_states(
        check_type(net, NetworkDescription).precision)
    max_r, max_c = check_max_tile(max_tile)
    width = max_c - len(REF_TRITS)  # data columns per tile
    net.require_weights()
    a = config.conductance_slope()
    mappings = {}
    array_id = 1
    for li in net.parametric_indices():
        layer = net.layers[li]
        w = net.weights[li]
        if isinstance(layer, Conv2D):
            wmat = conv_weight_matrix(w.data)
        else:
            wmat = w.data
        gather = net.plan[li].gather
        rows, cols = wmat.shape
        mapping = LayerMapping(
            rows=rows, cols=cols,
            gain_uA=config.v_read * a * net.plan[li].scale * A_TO_UA,
        )
        for r0 in range(0, rows, max_r):
            band = wmat[r0:r0 + max_r]  # one row block, one reference block
            ids = None if gather is None \
                else np.ascontiguousarray(gather[:, r0:r0 + max_r])
            refs = np.tile(np.array(REF_TRITS, np.int8), (len(band), 1))
            for c0 in range(0, cols, width):
                block = band[:, c0:c0 + width]
                tile = CrossbarTile(config, np.hstack([block, refs]), array_id)
                mapping.placements.append(TilePlacement(tile, r0, c0, ids))
                array_id += 1
        mappings[li] = mapping
    return TiledNetwork(net=net, mappings=mappings)


def _layer_delta(mapping, x, read_pairs):
    """Differential currents (P, cols) for one lowered layer, from its input
    batch x: (N, C, H, W) for a conv, (N, K) for a dense layer.

    A conv's input vectors are gathered once per row block, by the
    block's first tile, into the slab at offset P * r0 of one int8 buffer
    of P * rows (module docstring); a dense layer's tiles read column
    slices of x.  The buffer lives for the whole layer: an 8-image
    accuracy call on noisy LeNet-TNN, mapping included, took about 2,000
    minor page faults with it, and about 2,100 with a slab allocated per
    row block and freed after its READ.

    Row-split partial deltas are summed digitally; each tile's reference
    columns are averaged and subtracted from its data columns before the
    digital sum.  The work runs on the (col, vector) rows under the
    transposed views vmm_batch returns, and the result is a transposed
    view too.  The mean of the two references is (a + b) * 0.5: halving is
    exact and a difference of currents is never -0.0, so it has the bits
    of 0.5 * a + 0.5 * b.
    """
    P = read_pairs.size
    flat = x.reshape(len(x), -1)
    conv = mapping.placements[0].gather is not None
    buf = np.empty(P * mapping.rows if conv else 0, np.int8)
    delta = np.zeros((mapping.cols, P))  # (col, vector)
    for pl in mapping.placements:
        t, r0 = pl.tile, pl.row_start
        if pl.gather is None:
            xs = flat[:, r0:r0 + t.rows]
        elif pl.col_start == 0:  # the row block's first tile fills its slab
            xs = buf[P * r0:P * (r0 + t.rows)].reshape(P, t.rows)
            # mode="clip": the offsets are in range, and "raise" would
            # gather into a temporary and copy it over
            np.take(flat, pl.gather, axis=1, mode="clip",
                    out=xs.reshape(len(x), -1, t.rows))
        i_pos, i_neg = t.vmm_batch(xs, read_pairs)
        d = np.subtract(i_pos, i_neg, out=i_pos).T  # (col, vector)
        n = t.cols - len(REF_TRITS)  # data columns
        ref = (d[n] + d[n + 1]) * 0.5
        delta[pl.col_start:pl.col_start + n] += d[:n] - ref
    return delta.T


def forward_hardware(tiled, x, image_ordinal=0):
    """Analog-simulated forward pass; returns the neuron voltages.

    Runs the layer walk of forward_ideal, but every conv/dense matmul runs
    as two-phase READs on the mapped tiles, and the output layer's scaled
    currents drive the sigmoid neurons.  x is one trit image or a batch
    with a leading axis (one row of voltages per image).  image_ordinal
    namespaces the READ ids so distinct images never share cycle-to-cycle
    noise; the images of a batch take consecutive ordinals from it, so a
    batch gives the same bits as one call per image.  The ordinal is an
    integer >= 0 that leaves every READ-pair id of the batch below 2**63.
    """
    batch, single = as_batch(check_type(tiled, TiledNetwork).net, x)
    n = batch.shape[0]
    # READ-pair ids are ordinal * patches + patch, below (ordinal + n) * most
    most = max((op.gather.shape[0] for op in tiled.net.plan
                if op.gather is not None), default=1)
    check_integer(image_ordinal, "image ordinal", lo=0)
    if (int(image_ordinal) + n) * most > 2**63:
        raise ConfigError(f"image ordinal must keep (ordinal + {n}) * {most} "
                          f"<= 2**63, got {shown(image_ordinal)}")
    ordinals = np.uint64(image_ordinal) + np.arange(n, dtype=np.uint64)

    def preact(op, x):
        m = tiled.mappings[op.index]
        per_image = 1 if op.gather is None else op.gather.shape[0]
        pairs = ordinals[:, None] * np.uint64(per_image) \
            + np.arange(per_image, dtype=np.uint64)
        return _layer_delta(m, x, pairs.ravel()) / m.gain_uA

    volts = walk(tiled.net, batch, preact,
                 lambda op, u: sigmoid_neuron_voltage(u))
    return volts[0] if single else volts


def predict_hardware(tiled, x, image_ordinal=0):
    return predicted_class(forward_hardware(tiled, x, image_ordinal))
