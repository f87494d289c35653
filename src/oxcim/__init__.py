"""Binary/ternary neural networks on simulated 1T-1R OxRAM crossbars.

The package splits into a digital oracle path (quant, network) and an
analog-simulated path (device, crossbar, hardware) that are kept separate
on purpose: every analog result can be checked against the exact integer
popcount the hardware is supposed to compute.
"""

from .quant import (Precision, TernaryTensor, act_binary, act_ternary,
                    popcount_oracle, quantize_weights)
from .device import (DeviceConfig, MlcStateModel, default_device_config,
                     parse_device_config, sigmoid_ideal,
                     sigmoid_neuron_voltage)
from .crossbar import ActivationMode, CrossbarTile, sense_to_activation
from .network import (Activation, Conv2D, Dense, MaxPool2D,
                      NetworkDescription, forward_ideal, im2col, lenet,
                      predict_ideal, thermometric_trits)
from .hardware import (TiledNetwork, forward_hardware, map_network_to_tiles,
                       predict_hardware)
from .weightfile import load_network, save_network
from .data import (DatasetStore, load_dataset_dir, load_idx, pad_to_32,
                   synthetic_dataset)
from .train import TrainConfig, Trainer, TrainResult, train
from .bench import (AccuracyReport, ConfusionMatrix, ExperimentSpec,
                    run_accuracy, sweep_sense_distribution,
                    weight_conductance_histogram)
from .errors import (ConfigError, DomainError, OxcimError, ParseError,
                     ShapeError, TrainingDiverged)

__version__ = "0.1.0"
