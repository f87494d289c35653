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

The column periphery is fixed: an ideal S/H pair, an ideal subtracting
comparator and the measured sigmoid neuron of device.py.

Cycle-to-cycle conductance noise is resampled per READ event, keyed by
(config seed, array id, row, col, read id); device-to-device offsets are
frozen when the tile is programmed.  Reads keep no state on the tile: a
read that clamps draws to the conductance floor logs it and moves on.
"""

import enum
import logging
from dataclasses import dataclass

import numpy as np

from . import rng
from .device import DeviceConfig, clamp_floor, sigmoid_neuron_voltage, \
    sample_device_conductance_grid
from .errors import ConfigError, ShapeError
from .quant import act_binary, act_ternary

log = logging.getLogger(__name__)

A_TO_UA = 1e6

# Read-noise clamp rate above which a tile complains loudly; with sane
# configs the floor sits several combined sigmas below every state mean and
# clamps stay in the 1e-5 regime.
CLAMP_WARN_FRACTION = 1e-3


@dataclass
class SenseResult:
    """Per-column currents of the two READ phases."""

    i_pos_uA: np.ndarray
    i_neg_uA: np.ndarray

    @property
    def delta_uA(self):
        return self.i_pos_uA - self.i_neg_uA


class ActivationMode(enum.Enum):
    HIDDEN_BINARY = "hidden_binary"
    HIDDEN_TERNARY = "hidden_ternary"
    OUTPUT_SIGMOID = "output_sigmoid"


class CrossbarTile:
    """A programmed rows x cols grid of 1T-1R cells.

    Immutable after programming: the per-cell device conductance (D2D draw)
    and the noise key grid are fixed at construction.
    """

    def __init__(self, config: DeviceConfig, cell_state, array_id=0):
        trits = np.asarray(cell_state, dtype=np.int8)
        if trits.ndim != 2 or trits.size == 0:
            raise ShapeError("cell_state must be a non-empty 2-D trit grid")
        self.config = config
        self.array_id = int(array_id)
        self.cell_state = trits
        self.rows, self.cols = trits.shape
        mean, _, c2c, floor = config.grids_for(trits)
        self._c2c_sigma = c2c
        self._floor = floor
        self.cell_g = sample_device_conductance_grid(config, trits, self.array_id)
        self._c2c_keys = rng.c2c_cell_key_grid(config.seed, self.array_id,
                                               self.rows, self.cols)
        self._has_c2c = bool(np.any(c2c > 0.0))

    def _check_rows(self, n):
        if n != self.rows:
            raise ShapeError(f"input length {n} != tile rows {self.rows}")

    def read_phase(self, gates, read_id):
        """One READ: column currents (uA) with the given rows gated on.

        Fresh C2C noise per cell for this read_id; conductances clamped to
        the positive floor before summation.  Shares the batch code path so
        a lone read is bit-identical to the same read inside a batch.
        """
        g = np.asarray(gates, dtype=bool)
        self._check_rows(g.shape[0])
        return self._read_phases(g[None, :], np.asarray([read_id],
                                                        dtype=np.uint64))[0]

    def vmm_two_phase(self, x, read_pair=0):
        """Both READ phases for one input vector; returns the sense result.

        +1 rows are gated on during t0, -1 rows during t1, 0 rows never.
        """
        arr = np.asarray(x, dtype=np.int8)
        if arr.ndim != 1:
            raise ShapeError("input vector must be 1-D")
        rid = 2 * int(read_pair)
        return SenseResult(i_pos_uA=self.read_phase(arr > 0, rid),
                           i_neg_uA=self.read_phase(arr < 0, rid + 1))

    def vmm_batch(self, x_batch, read_pairs):
        """Two-phase VMM for a batch of input vectors.

        x_batch    : (P, rows) trit matrix
        read_pairs : (P,) integer read-pair ids; READ ids are 2p and 2p+1

        Returns (i_pos, i_neg), each (P, cols) in uA.  Exactly equivalent to
        calling vmm_two_phase per row (the per-cell noise is keyed, not
        sequential), just vectorized.
        """
        xb = np.asarray(x_batch, dtype=np.int8)
        if xb.ndim != 2:
            raise ShapeError("x_batch must be 2-D (batch, rows)")
        self._check_rows(xb.shape[1])
        pairs = np.asarray(read_pairs, dtype=np.uint64)
        if pairs.shape != (xb.shape[0],):
            raise ShapeError("read_pairs must match the batch length")
        i_pos = self._read_phases(xb > 0, 2 * pairs)
        i_neg = self._read_phases(xb < 0, 2 * pairs + np.uint64(1))
        return i_pos, i_neg

    def _read_phases(self, gates, read_ids):
        P = gates.shape[0]
        out = np.zeros((P, self.cols), dtype=np.float64)
        pat, rat = np.nonzero(gates)  # active (pattern, row) pairs, row-major
        if pat.size == 0:
            return out
        g_read = self.cell_g[rat, :]
        if self._has_c2c:
            # One keyed draw per (read event, cell); gated-off cells are
            # never sampled, which leaves their stream untouched.
            words = rng.read_event_words(read_ids)
            z = rng.normals_consuming_keys(self._c2c_keys[rat, :] ^ words[pat, None])
            z *= self._c2c_sigma[rat, :]
            g_read = g_read + z
            g_read, n = clamp_floor(g_read, self._floor[rat, :])
            if n:
                log.debug("array %d: %d of %d read draws clamped",
                          self.array_id, n, g_read.size)
                if g_read.size > 1000 and n > CLAMP_WARN_FRACTION * g_read.size:
                    log.warning(
                        "variability overflow: array %d clamped %d of %d read "
                        "draws to the mean/100 floor; states sit too close to "
                        "zero conductance for their sigmas", self.array_id, n,
                        g_read.size)
        # Segment-sum rows of g_read back onto their pattern index.  reduceat
        # sums every segment from a fresh accumulator, so each pattern's
        # current is bit-identical whether it is read alone or in a batch.
        counts = np.bincount(pat, minlength=P)
        nonempty = counts > 0
        starts = np.cumsum(counts) - counts
        out[nonempty, :] = np.add.reduceat(g_read, starts[nonempty], axis=0)
        return out * (self.config.v_read * A_TO_UA)


def sense_to_activation(result, mode, r=0.5, gain_uA=1.0):
    """Convert a sense result into activations or neuron voltages.

    gain_uA is the comparator-output scale in microamps per activation unit:
    the activation functions see delta / gain_uA.  For OUTPUT_SIGMOID the
    scaled value is the neuron input current in uA and the neuron voltages
    are returned.
    """
    if not (gain_uA > 0.0):
        raise ConfigError(f"gain must be > 0, got {gain_uA}")
    u = result.delta_uA / gain_uA
    if mode is ActivationMode.HIDDEN_BINARY:
        return act_binary(u)
    if mode is ActivationMode.HIDDEN_TERNARY:
        return act_ternary(u, r)
    if mode is ActivationMode.OUTPUT_SIGMOID:
        return sigmoid_neuron_voltage(u)
    raise ConfigError(f"unknown activation mode {mode!r}")
