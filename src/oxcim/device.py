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

Device constants live in config files (see parse rules in
``parse_device_config``); two calibrated defaults ship with the package,
one per resistance region ("hrs_default", "lrs_default").
"""

import hashlib
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import rng
from .errors import ConfigError, DomainError, ParseError

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
        if not (self.mean_S > 0.0):
            raise ConfigError(f"state {self.label}: mean conductance must be > 0")
        if self.d2d_sigma_S < 0.0 or self.c2c_sigma_S < 0.0:
            raise ConfigError(f"state {self.label}: sigmas must be >= 0")


@dataclass(frozen=True)
class DeviceConfig:
    """Read conditions plus the trit -> MLC state map for one region."""

    region: str
    states: dict  # trit (-1/0/+1) -> MlcStateModel
    v_read: float = 0.2
    v_gate_on: float = 1.2
    v_gate_off: float = 0.0
    seed: int = 0
    name: str = "unnamed"

    def __post_init__(self):
        if self.region not in (HRS, LRS):
            raise ConfigError(f"region must be HRS or LRS, got {self.region!r}")
        if not set(self.states) <= {-1, 0, 1}:
            raise ConfigError(f"state keys must be trits, got {sorted(self.states)}")
        if -1 not in self.states or 1 not in self.states:
            raise ConfigError("config must define states for -1 and +1")
        # More positive weight must map to higher conductance.
        present = sorted(self.states)
        means = [self.states[t].mean_S for t in present]
        if any(a >= b for a, b in zip(means, means[1:])):
            raise ConfigError(
                f"state means must increase with the trit: {list(zip(present, means))}"
            )
        if not (self.v_read > 0.0):
            raise ConfigError("v_read must be > 0")

    def state_for(self, trit):
        try:
            return self.states[int(trit)]
        except KeyError:
            raise ConfigError(
                f"config {self.name!r} has no state for weight {trit}"
            ) from None

    def require_states(self, precision):
        """Check the trit -> state map covers the given precision."""
        need = (-1, 1) if precision.value == "binary" else (-1, 0, 1)
        missing = [t for t in need if t not in self.states]
        if missing:
            raise ConfigError(
                f"config {self.name!r} lacks states for trits {missing} "
                f"required by {precision.value} precision"
            )

    def conductance_slope(self):
        """Conductance step per trit unit: (G(+1) - G(-1)) / 2."""
        return 0.5 * (self.states[1].mean_S - self.states[-1].mean_S)

    def grids_for(self, state_grid):
        """Per-cell (mean, d2d_sigma, c2c_sigma, floor) grids for a trit grid."""
        trits = np.asarray(state_grid)
        mean = np.empty(trits.shape, dtype=np.float64)
        d2d = np.empty_like(mean)
        c2c = np.empty_like(mean)
        for t in np.unique(trits):
            st = self.state_for(t)
            sel = trits == t
            mean[sel] = st.mean_S
            d2d[sel] = st.d2d_sigma_S
            c2c[sel] = st.c2c_sigma_S
        return mean, d2d, c2c, mean * CLAMP_FLOOR_FRACTION

    def canonical_text(self):
        """Stable serialization used both for saving and for hashing."""
        lines = [
            "# oxcim device config",
            f"region = {self.region}",
            f"seed = {self.seed}",
            f"v_read_V = {self.v_read!r}",
            f"v_gate_on_V = {self.v_gate_on!r}",
            f"v_gate_off_V = {self.v_gate_off!r}",
        ]
        for trit in sorted(self.states):
            st = self.states[trit]
            key = f"state.{trit:+d}" if trit else "state.0"
            lines.append(f"{key}.mean_S = {st.mean_S!r}")
            lines.append(f"{key}.d2d_sigma_S = {st.d2d_sigma_S!r}")
            lines.append(f"{key}.c2c_sigma_S = {st.c2c_sigma_S!r}")
        return "\n".join(lines) + "\n"

    def digest(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def with_zero_variability(self):
        """Copy of this config with all sigmas forced to zero."""
        states = {
            t: MlcStateModel(s.label, s.mean_S, 0.0, 0.0)
            for t, s in self.states.items()
        }
        return DeviceConfig(
            self.region, states, self.v_read, self.v_gate_on, self.v_gate_off,
            self.seed, self.name + "+novar",
        )


# ---------------------------------------------------------------------------
# Conductance sampling
# ---------------------------------------------------------------------------


def clamp_floor(g, floor):
    """Clamp conductances to the positive floor; returns (clamped, n_hits)."""
    n = int(np.count_nonzero(g < floor))
    if n:
        g = np.maximum(g, floor)
    return g, n


def sample_device_conductance(state, seed, array_id, row, col):
    """Device conductance for one cell: mean + N(0, d2d), clamped positive.

    Keyed by (seed, array, row, col): querying the same cell twice returns
    the identical value.
    """
    z = rng.normals_from_keys(
        rng.fold(rng.stream_key(seed, rng.TAG_D2D, array_id),
                 (np.uint64(row) << np.uint64(32)) | np.uint64(col))
    )
    g = np.asarray(state.mean_S + state.d2d_sigma_S * float(z))
    g, n = clamp_floor(g, state.mean_S * CLAMP_FLOOR_FRACTION)
    if n:
        log.warning("variability overflow: D2D draw for cell (%d,%d) of array %d "
                    "clamped to the mean/100 floor", row, col, array_id)
    return float(g)


def sample_device_conductance_grid(config, state_grid, array_id):
    """Device conductances for a whole trit grid, D2D noise keyed per cell."""
    trits = np.asarray(state_grid)
    mean, d2d, _, floor = config.grids_for(trits)
    if np.any(d2d > 0.0):
        z = rng.d2d_normals(config.seed, array_id, *trits.shape)
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


@dataclass(frozen=True)
class SigmoidNeuronModel:
    """Current-in, voltage-out sigmoidal transfer: offset + A * sigmoid(i - mid)."""

    amplitude_V: float = MEASURED_AMPLITUDE_V
    midpoint_uA: float = MEASURED_MIDPOINT_UA
    offset_V: float = MEASURED_OFFSET_V

    def __post_init__(self):
        if not (self.amplitude_V > 0.0):
            raise ConfigError("neuron amplitude must be > 0")

    @classmethod
    def measured(cls):
        return cls()

    @classmethod
    def ideal(cls):
        return cls(amplitude_V=1.0, midpoint_uA=0.0, offset_V=0.0)


def sigmoid_ideal(x):
    """Numerically stable logistic 1 / (1 + exp(-x)), strictly in (0, 1)."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("sigmoid input must be finite")
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return out[()] if np.ndim(x) == 0 else out


def sigmoid_neuron_voltage(i_input_uA, model=None):
    """Neuron output voltage for a column current given in microamps."""
    m = model or SigmoidNeuronModel.measured()
    arr = np.asarray(i_input_uA, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("neuron input current must be finite")
    v = m.offset_V + m.amplitude_V * sigmoid_ideal(arr - m.midpoint_uA)
    return v[()] if np.ndim(i_input_uA) == 0 else v


# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------

_SCALAR_KEYS = {
    "region": str,
    "seed": int,
    "v_read_V": float,
    "v_gate_on_V": float,
    "v_gate_off_V": float,
}
_STATE_FIELDS = ("mean_S", "d2d_sigma_S", "c2c_sigma_S")
_STATE_TOKENS = {"-1": -1, "0": 0, "+1": 1, "1": 1}


def parse_device_config(text, name="<string>"):
    """Parse the flat key/value device-config format.

    Rules (bit-exact): one ``key = value`` pair per line; '#' starts a
    comment; blank lines ignored; keys are case-sensitive and unknown keys
    are rejected; floats go through Python float(), integers through int().
    Required: region, all three fields for states -1 and +1 (state 0 is
    optional and only needed for ternary networks).
    """
    scalars = {}
    state_vals = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}",
                             path=name, line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in _SCALAR_KEYS:
            if key in scalars:
                raise ParseError(f"duplicate key {key!r}", path=name, line=lineno)
            try:
                scalars[key] = _SCALAR_KEYS[key](value)
            except ValueError:
                raise ParseError(f"bad value for {key!r}: {value!r}",
                                 path=name, line=lineno) from None
        elif key.startswith("state."):
            parts = key.split(".")
            if len(parts) != 3 or parts[1] not in _STATE_TOKENS \
                    or parts[2] not in _STATE_FIELDS:
                raise ParseError(f"unknown key {key!r}", path=name, line=lineno)
            trit = _STATE_TOKENS[parts[1]]
            try:
                state_vals.setdefault(trit, {})[parts[2]] = float(value)
            except ValueError:
                raise ParseError(f"bad value for {key!r}: {value!r}",
                                 path=name, line=lineno) from None
        else:
            raise ParseError(f"unknown key {key!r}", path=name, line=lineno)

    if "region" not in scalars:
        raise ParseError("missing required key 'region'", path=name)
    states = {}
    for trit, vals in state_vals.items():
        missing = [f for f in _STATE_FIELDS if f not in vals]
        if missing:
            raise ParseError(
                f"state {trit:+d} missing fields {missing}", path=name)
        label = f"{scalars['region']}_{trit:+d}"
        states[trit] = MlcStateModel(label, vals["mean_S"],
                                     vals["d2d_sigma_S"], vals["c2c_sigma_S"])
    try:
        return DeviceConfig(
            region=scalars["region"],
            states=states,
            v_read=scalars.get("v_read_V", 0.2),
            v_gate_on=scalars.get("v_gate_on_V", 1.2),
            v_gate_off=scalars.get("v_gate_off_V", 0.0),
            seed=scalars.get("seed", 0),
            name=name,
        )
    except ConfigError as exc:
        raise ParseError(str(exc), path=name) from exc


def load_device_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_device_config(fh.read(), name=str(path))


def save_device_config(config, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.canonical_text())


def default_device_config(which):
    """Load a packaged default config: 'hrs' or 'lrs'."""
    key = which.lower()
    if key not in ("hrs", "lrs"):
        raise ConfigError(f"no default config named {which!r}")
    ref = resources.files(__package__).joinpath("configs", f"{key}_default.cfg")
    return parse_device_config(ref.read_text(encoding="utf-8"),
                               name=f"{key}_default")


def config_file_digest(path):
    """sha256 (hex, first 16 chars) of the raw config file bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]
