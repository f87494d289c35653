"""Time-multiplexed two-phase READ vector-matrix multiplication on a 1T-1R tile.

Weights are stored as single-device conductances (no differential pair).
Signed inputs are handled in time instead of space: rows whose input is +1
are gated on during the first READ (t0), rows with -1 during the second
READ (t1), and 0-inputs stay off in both.  Column currents from the two
phases are held by an S/H pair, and their difference

    delta_c = I+_c - I-_c  =  v_read * sum_i x_i * G(w_ic)   (at zero noise)

stands in for the signed dot product.  Because conductances are strictly
positive, an affine map G(w) = a*w + b leaves a known artifact:

    delta_c = v_read * (a * popcount_c + b * (n_pos - n_neg))

The (n_pos - n_neg) imbalance term is inherent to the single-device scheme
and tile-level results keep it: this module reports the raw phase currents
as the hardware would integrate them.  The network-level mapping cancels
the term with per-tile reference columns (see hardware.py), and the
digital popcount oracle in quant.py is the reference everything here is
compared against.

CrossbarTile.vmm_batch is the tile's one READ: it takes a batch of input
vectors with one read-pair id each and returns both phase currents, so a
single vector is a batch of one.  The column periphery is fixed: an ideal
S/H pair, an ideal subtracting comparator and the measured sigmoid neuron
of device.py.

A column current is the sum of the gated cells' conductances.  That mean
term is one BLAS matmul of the 0/1 gate matrix with [hi | lo], an
error-free split of cell_g made at programming (see _exact_split): every
partial sum of at most `rows` entries of one column of hi, or of lo, is a
float64 number, so the sums are exact whatever order BLAS adds in, and
hi_sum + lo_sum is the correctly rounded sum of the gated cell_g.  A READ
therefore gives the same bits alone or in a batch of any size, through
gemv or gemm, at any BLAS thread count; a plain matmul of cell_g does not
(its rows move with the batch size).

Cycle-to-cycle conductance noise is resampled per READ event, keyed by
(config seed, array id, row, col, read id); device-to-device offsets are
frozen when the tile is programmed.  Each (READ, gated cell) draws one
normal, clamped so that the cell never reads below the mean/100 floor, and
the noise is added to its READ's mean.  Reads keep no state on the tile: a
read that clamps draws logs it, block by block, and moves on.

One pass serves both READs of a pair.  vmm_batch walks its P input
vectors in blocks of READ_BLOCK_CELLS // (rows * cols) vectors and reads
both phases of a block at once.  READ_BLOCK_CELLS counts cells, vectors x
rows x cols; a row is gated in at most one phase, so a block draws at most
READ_BLOCK_CELLS normals (about 0.5 MB of keys) however large the batch.
The -1 means of a batch with no 0 input are the tile's column totals minus
the +1 means: both are exact sums, so their difference is the exact sum
over the -1 rows, and no second matmul is needed.  The noise of a block is
one gather of its gated (phase, vector, row) cells, in which each READ's
cells form one contiguous segment in row order, then one keyed draw, one
clamp and one np.add.reduceat over the segments.  reduceat sums a segment
as its first row plus a pairwise sum of the rest, whatever lies around the
segment, so blocking and pairing cannot move a bit: each vector's mean is
an exact sum, its noise is keyed by its own read ids and summed by
segment, and every cell of it is drawn and clamped once, in whichever
block it falls.
"""

import enum
import logging

import numpy as np

from . import rng
from .device import DeviceConfig, clamp_floor, sigmoid_neuron_voltage, \
    sample_device_conductance_grid
from .errors import ConfigError, ShapeError, check_integer, check_real, \
    check_integers, check_reals
from .network import Activation
from .quant import _as_trits, act_binary, act_ternary

log = logging.getLogger(__name__)

A_TO_UA = 1e6

# Read-noise clamp rate above which a tile complains loudly; with sane
# configs the floor sits several combined sigmas below every state mean and
# clamps stay in the 1e-5 regime.
CLAMP_WARN_FRACTION = 1e-3

# Cells (vectors x rows x cols) per block of a READ pair; see the module
# docstring.
READ_BLOCK_CELLS = 2**16


class ActivationMode(enum.Enum):
    HIDDEN_BINARY = "hidden_binary"
    HIDDEN_TERNARY = "hidden_ternary"
    OUTPUT_SIGMOID = "output_sigmoid"


class CrossbarTile:
    """A programmed rows x cols grid of 1T-1R cells.

    Immutable after programming: the per-cell device conductance (D2D draw)
    and, on a tile with C2C noise, its noise key grid are fixed at
    construction.
    """

    def __init__(self, config: DeviceConfig, cell_state, array_id=0):
        trits = _as_trits(cell_state)
        if trits.ndim != 2 or trits.size == 0:
            raise ShapeError("cell_state must be a non-empty 2-D trit grid")
        self.config = config
        self.array_id = int(check_integer(array_id, "array id", 0, 2**64))
        self.cell_state = trits
        self.rows, self.cols = trits.shape
        _, _, c2c, floor = config.grids_for(trits)
        self._c2c_sigma = c2c
        self.cell_g = sample_device_conductance_grid(config, trits, self.array_id)
        self._split = _exact_split(self.cell_g, self.array_id)
        self._totals = self._split.sum(axis=0)  # exact: see _exact_split
        self._has_c2c = bool(np.any(c2c > 0.0))
        self._headroom = self._c2c_keys = None
        if self._has_c2c:
            # Lowest C2C offset per cell, rounded up so that cell_g +
            # headroom (an exact sum, by Sterbenz) never lies below the floor.
            head = floor - self.cell_g
            self._headroom = np.where(self.cell_g + head < floor,
                                      np.nextafter(head, np.inf), head)
            self._c2c_keys = rng.cell_key_grid(config.seed, rng.TAG_C2C,
                                               self.array_id, *trits.shape)

    def vmm_batch(self, x_batch, read_pairs):
        """Two-phase VMM for a batch of input vectors.

        x_batch    : (P, rows) trit matrix
        read_pairs : (P,) integer read-pair ids in [0, 2**63); READ ids are
                     2p and 2p+1, which must not wrap in uint64

        Returns (i_pos, i_neg), each (P, cols) in uA.  +1 rows are gated on
        during READ 2p, -1 rows during READ 2p+1, 0 rows never.  Each row's
        currents are the same bits whatever batch it is read in: the mean
        is an exact sum and the per-cell noise is keyed, not sequential.
        """
        xb = _as_trits(x_batch)
        if xb.ndim != 2:
            raise ShapeError("x_batch must be 2-D (batch, rows)")
        if xb.shape[1] != self.rows:
            raise ShapeError(f"input length {xb.shape[1]} != tile rows "
                             f"{self.rows}")
        pairs = check_integers(read_pairs, "read pair ids", 0, 2**63)
        if pairs.shape != (xb.shape[0],):
            raise ShapeError("read_pairs must match the batch length")
        pairs = pairs.astype(np.uint64, copy=False)
        gates = np.empty((2,) + xb.shape, dtype=bool)  # (phase, vector, row)
        np.greater(xb, 0, out=gates[0])
        np.less(xb, 0, out=gates[1])
        dense = xb.all()  # no 0 input: the -1 sums are totals - the +1 sums
        out = np.empty((2, xb.shape[0], self.cols))  # (phase, vector, col)
        step = max(1, READ_BLOCK_CELLS // (self.rows * self.cols))
        for a in range(0, xb.shape[0], step):
            g = gates[:, a:a + step]
            # Exact in any order (module docstring): one rounding, of hi + lo.
            pos = g[0].astype(np.float64) @ self._split
            neg = (self._totals - pos if dense
                   else g[1].astype(np.float64) @ self._split)
            blk = out[:, a:a + step]
            np.add(pos[:, :self.cols], pos[:, self.cols:], out=blk[0])
            np.add(neg[:, :self.cols], neg[:, self.cols:], out=blk[1])
            if self._has_c2c:
                self._add_c2c(blk, g, pairs[a:a + step])
        out *= self.config.v_read * A_TO_UA
        return out[0], out[1]

    def _add_c2c(self, out, gates, pairs):
        """Add the clamped C2C noise of every gated cell to its READ's row.

        out is (2, p, cols) and gates (2, p, rows); phase 0 is READ
        2 * pairs, phase 1 READ 2 * pairs + 1.
        """
        cells = np.flatnonzero(gates)  # gated (phase, vector, row), row-major
        if cells.size == 0:
            return
        seg, row = np.divmod(cells, self.rows)  # seg: phase * p + vector
        # One keyed draw per (READ, gated cell); gated-off cells are never
        # sampled, which leaves their stream untouched.
        words = rng.read_event_words(
            (2 * pairs + np.arange(2, dtype=np.uint64)[:, None]).ravel())
        keys = np.take(self._c2c_keys, row, axis=0)
        keys ^= np.take(words, seg)[:, None]
        z = rng.normals_consuming_keys(keys)
        z *= np.take(self._c2c_sigma, row, axis=0)
        z, n = clamp_floor(z, np.take(self._headroom, row, axis=0))
        if n:
            log.debug("array %d: %d of %d read draws clamped",
                      self.array_id, n, z.size)
            if z.size > 1000 and n > CLAMP_WARN_FRACTION * z.size:
                log.warning(
                    "variability overflow: array %d clamped %d of %d read "
                    "draws to the mean/100 floor; states sit too close to "
                    "zero conductance for their sigmas", self.array_id, n,
                    z.size)
        # Segment-sum the noise rows back onto their READ (module docstring).
        counts = np.bincount(seg, minlength=words.size)
        nonempty = counts > 0
        starts = np.cumsum(counts) - counts
        out[nonempty.reshape(2, -1)] += np.add.reduceat(z, starts[nonempty],
                                                        axis=0)


def _exact_split(g, array_id):
    """[hi | lo] with g == hi + lo and every column sum of either exact.

    Per column c, hi is g rounded to a multiple of u_c = 2**(e_c + L - 53),
    where g < 2**e_c and 2**L >= rows: any sum of at most rows entries of
    hi is an integer multiple of u_c no larger than 2**53 * u_c.  lo = g - hi
    is exact (the ExtractScalar step of Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 2005), at most u_c / 2 in size and a multiple of the ulp of the
    column minimum, so its sums stay exact while max/min < about
    2**(54 - 2L); a wider column raises ConfigError.
    """
    rows = g.shape[0]
    L = (rows - 1).bit_length()
    _, e_max = np.frexp(g.max(axis=0))
    _, e_min = np.frexp(g.min(axis=0))
    wide = np.flatnonzero(e_max - e_min > 54 - 2 * L)
    if wide.size:
        c = int(wide[0])
        raise ConfigError(
            f"array {array_id} column {c}: conductances from {g[:, c].min()!r} "
            f"to {g[:, c].max()!r} S span more than 2**{54 - 2 * L}, too wide "
            f"for exact {rows}-row column sums")
    u = np.ldexp(1.0, e_max + L - 53)
    hi = np.rint(g / u) * u
    return np.concatenate([hi, g - hi], axis=1)


def sense_to_activation(delta_uA, mode, r=Activation.r, gain_uA=1.0):
    """Convert differential column currents into activations or voltages.

    delta_uA is i_pos - i_neg of a two-phase READ.  gain_uA is the
    comparator-output scale in microamps per activation unit: the
    activation functions see delta / gain_uA.  For OUTPUT_SIGMOID the
    scaled value is the neuron input current in uA and the neuron voltages
    are returned.
    """
    check_real(gain_uA, "gain", 0.0, strict=True)
    u = check_reals(delta_uA, "differential current") / gain_uA
    if mode is ActivationMode.HIDDEN_BINARY:
        return act_binary(u)
    if mode is ActivationMode.HIDDEN_TERNARY:
        return act_ternary(u, r)
    if mode is ActivationMode.OUTPUT_SIGMOID:
        return sigmoid_neuron_voltage(u)
    raise ConfigError(f"unknown activation mode {mode!r}")
