"""Fuzz the public entry points: each call returns or raises an OxcimError.

Derandomized, with a fixed example count per target, so a run is
repeatable and its time bounded.
"""

import re

from hypothesis import given, settings, strategies as st

from oxcim.device import default_config_file, parse_device_config
from oxcim.errors import OxcimError
from oxcim.quant import Precision
from oxcim.weightfile import dumps, loads
from test_network import tiny_net

# Mutations of a valid file: drop, repeat or swap up to two lines, then put
# one of these values in place of up to two tokens (a key, a value or a
# field of a record); every example makes at least one change.
FUZZ_VALUES = [b"0", b"-1", b"nan", b"inf", b"", "\u00e9".encode(), b"\xff"]
FUZZ = settings(derandomize=True, max_examples=1500, deadline=None,
                database=None)


@st.composite
def mutated(draw, text):
    lines = text.encode().splitlines()
    n_ops = draw(st.integers(0, 2))
    for _ in range(n_ops):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "swap"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    for _ in range(draw(st.integers(0 if n_ops else 1, 2))):
        tokens = [(i, t.span()) for i, line in enumerate(lines)
                  for t in re.finditer(rb"[^\s=]+", line)]
        i, (start, stop) = draw(st.sampled_from(tokens))
        value = draw(st.sampled_from(FUZZ_VALUES))
        lines[i] = lines[i][:start] + value + lines[i][stop:]
    return b"\n".join(lines) + b"\n"


def parses_or_raises_oxcim_error(parse, data):
    try:
        parse(data)
    except OxcimError:
        pass


class TestTextFormats:
    @FUZZ
    @given(mutated(dumps(tiny_net(Precision.TERNARY, seed=5))))
    def test_weight_file(self, data):
        parses_or_raises_oxcim_error(loads, data)

    @FUZZ
    @given(mutated(default_config_file("hrs").read_text()))
    def test_device_config(self, data):
        parses_or_raises_oxcim_error(parse_device_config, data)
