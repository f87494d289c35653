"""Behavioral OxRAM device models and the CMOS sigmoid neuron.

Each programmable multi-level-cell (MLC) state is a Gaussian conductance
distribution with two independent spread parameters:

* d2d_sigma - device-to-device: drawn once per physical cell when a network
  is mapped, then frozen (a static per-cell offset).
* c2c_sigma - cycle-to-cycle: drawn fresh for every READ event.

Both draws are keyed (see rng.py), so a given cell/read always sees the
same noise no matter how the evaluation is batched or parallelized.
Sampled conductances are clamped to a floor of mean/100; a clamp means the
Gaussian tail went nonphysical and is logged, since with sane configs it
should essentially never fire.

Device constants live in config files of ``key = value`` records, read by
``errors.read_records`` (see ``parse_device_config`` for the keys); two
calibrated defaults ship with the package, one per resistance region
("hrs_default", "lrs_default").
"""

import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, ParseError, check_integer, \
    check_real, check_reals, check_trits, read_records, shown
from .quant import check_precision

log = logging.getLogger(__name__)

CLAMP_FLOOR_FRACTION = 0.01  # conductance floor as a fraction of the state mean

HRS = "HRS"
LRS = "LRS"


@dataclass(frozen=True)
class MlcStateModel:
    """One programmable conductance state."""

    label: str
    mean_S: float
    d2d_sigma_S: float = 0.0
    c2c_sigma_S: float = 0.0

    def __post_init__(self):
        check_real(self.mean_S, f"state {self.label}: mean conductance", 0.0,
                   strict=True)
        check_real(self.d2d_sigma_S, f"state {self.label}: D2D sigma", 0.0)
        check_real(self.c2c_sigma_S, f"state {self.label}: C2C sigma", 0.0)


@dataclass(frozen=True)
class DeviceConfig:
    """Read conditions plus the trit -> MLC state map for one region."""

    region: str
    states: dict  # trit (-1/0/+1) -> MlcStateModel
    v_read: float = 0.2
    seed: int = 0
    name: str = "unnamed"

    def __post_init__(self):
        if self.region not in (HRS, LRS):
            raise ConfigError(f"region must be HRS or LRS, got {shown(self.region)}")
        if not (isinstance(self.states, dict)
                and {-1, 1} <= set(self.states) <= {-1, 0, 1}
                and all(isinstance(s, MlcStateModel)
                        for s in self.states.values())):
            raise ConfigError(f"states must map -1, +1 and optionally 0 to "
                              f"MlcStateModels, got {shown(self.states)}")
        # More positive weight must map to higher conductance.
        present = sorted(self.states)
        means = [self.states[t].mean_S for t in present]
        if any(a >= b for a, b in zip(means, means[1:])):
            raise ConfigError(
                f"state means must increase with the trit: {list(zip(present, means))}"
            )
        check_real(self.v_read, "v_read", 0.0, strict=True)
        check_seed(self.seed)
        if not isinstance(self.name, str):
            raise ConfigError(f"config name must be a string, got {shown(self.name)}")

    def require_states(self, precision):
        """Check the trit -> state map covers the given precision."""
        missing = [t for t in check_precision(precision).allowed_values
                   if t not in self.states]
        if missing:
            raise ConfigError(
                f"config {shown(self.name)} lacks states for trits {missing} "
                f"required by {precision.value} precision"
            )

    def conductance_slope(self):
        """Conductance step per trit unit: (G(+1) - G(-1)) / 2."""
        return 0.5 * (self.states[1].mean_S - self.states[-1].mean_S)

    def grids_for(self, state_grid):
        """Per-cell (mean, d2d_sigma, c2c_sigma, floor) grids for a trit grid.

        One np.take per parameter from a table indexed by trit + 1.  Each
        grid is an array of its own, so a tile that keeps one grid keeps no
        other alive.
        """
        try:
            idx = check_trits(state_grid, "cell states", tuple(self.states)) + 1
        except DomainError as exc:
            raise ConfigError(f"config {shown(self.name)} has no state for a "
                              f"weight: {exc}") from None
        table = np.zeros((3, 3))  # (mean, d2d, c2c) x (trit + 1)
        for t, s in self.states.items():
            table[:, t + 1] = s.mean_S, s.d2d_sigma_S, s.c2c_sigma_S
        mean, d2d, c2c = (np.take(row, idx) for row in table)
        return mean, d2d, c2c, mean * CLAMP_FLOOR_FRACTION

    def with_zero_variability(self):
        """Copy of this config with all sigmas forced to zero."""
        states = {
            t: MlcStateModel(s.label, s.mean_S, 0.0, 0.0)
            for t, s in self.states.items()
        }
        return DeviceConfig(
            self.region, states, self.v_read, self.seed, self.name + "+novar",
        )


def check_seed(seed):
    """seed, or a ConfigError unless it is an integer that fits the one
    64-bit word (signed or not) that rng.stream_key folds it into."""
    return check_integer(seed, "seed", -2**63, 2**64)


# ---------------------------------------------------------------------------
# Conductance sampling
# ---------------------------------------------------------------------------


def clamp_floor(g, floor):
    """Clamp conductances to the positive floor in place; returns (g, n_hits)."""
    n = int(np.count_nonzero(g < floor))
    if n:
        np.maximum(g, floor, out=g)
    return g, n


def sample_device_conductance_grid(config, mean, d2d, floor, array_id):
    """Device conductances from config.grids_for's grids, D2D keyed per cell."""
    if np.any(d2d > 0.0):
        z = rng.d2d_normals(config.seed, array_id, *mean.shape)
        g = mean + d2d * z
    else:
        g = mean.copy()
    g, n = clamp_floor(g, floor)
    if n:
        log.warning("variability overflow: %d of %d D2D draws on array %d "
                    "clamped to the mean/100 floor", n, g.size, array_id)
    return g


# ---------------------------------------------------------------------------
# Sigmoid neuron
# ---------------------------------------------------------------------------

# Fitted transfer-curve constants of the fabricated 6T neuron.
MEASURED_AMPLITUDE_V = 1.5156
MEASURED_MIDPOINT_UA = 1.56
MEASURED_OFFSET_V = 0.1


def sigmoid_ideal(x):
    """Numerically stable logistic 1 / (1 + exp(-x)), strictly in (0, 1)."""
    arr = np.asarray(check_reals(x, "sigmoid input"), dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out[()] if np.ndim(x) == 0 else out


def sigmoid_neuron_voltage(i_input_uA):
    """Measured neuron voltage, offset + A * sigmoid(i - mid), for i in uA."""
    arr = check_reals(i_input_uA, "neuron input current").astype(np.float64)
    v = MEASURED_OFFSET_V + MEASURED_AMPLITUDE_V \
        * sigmoid_ideal(arr - MEASURED_MIDPOINT_UA)
    return v[()] if np.ndim(i_input_uA) == 0 else v


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

_STATE_FIELDS = ("mean_S", "d2d_sigma_S", "c2c_sigma_S")
_STATE_TRITS = {"-1": -1, "0": 0, "+1": 1}
_KEYS = {"region": str, "v_read_V": float,
         "seed": lambda text: check_seed(int(text)),
         **{f"state.{t}.{f}": float
            for t in _STATE_TRITS for f in _STATE_FIELDS}}


def parse_device_config(data, name="<string>"):
    """Parse a device config from its bytes or text.

    The record rules are those of ``errors.read_records``.  Keys are
    case-sensitive and unknown keys are rejected; floats go through Python
    float() and the seed through int() and check_seed.  Required: region,
    all three fields for states -1 and +1 (state 0 is optional and only
    needed for ternary networks).  v_read_V defaults to 0.2 and seed to 0.
    """
    fields = {}

    def record(key, value):
        if key not in _KEYS:
            raise ParseError("unknown key")
        fields[key] = _KEYS[key](value)

    read_records(data, record, name)
    if "region" not in fields:
        raise ParseError("missing required key 'region'", path=name)
    try:
        states = {}
        for token, trit in _STATE_TRITS.items():
            keys = [f"state.{token}.{f}" for f in _STATE_FIELDS]
            missing = [k for k in keys if k not in fields]
            if len(missing) < len(keys):
                if missing:
                    raise ConfigError(f"state {token} missing {missing}")
                states[trit] = MlcStateModel(f"{fields['region']}_{trit:+d}",
                                             *(fields[k] for k in keys))
        return DeviceConfig(region=fields["region"], states=states,
                            v_read=fields.get("v_read_V", 0.2),
                            seed=fields.get("seed", 0), name=name)
    except ConfigError as exc:
        raise ParseError(str(exc), path=name) from exc


def default_config_file(which):
    """The packaged default config file: 'hrs' or 'lrs'."""
    key = which.lower() if isinstance(which, str) else None
    if key not in ("hrs", "lrs"):
        raise ConfigError(f"no default config named {shown(which)}")
    return resources.files(__package__).joinpath("configs", f"{key}_default.cfg")


def default_device_config(which):
    """Load a packaged default config: 'hrs' or 'lrs'."""
    return parse_device_config(default_config_file(which).read_bytes(),
                               name=f"{which.lower()}_default")
