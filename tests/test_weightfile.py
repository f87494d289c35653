import tracemalloc
import warnings

import pytest

from oxcim.errors import ParseError
from oxcim.network import lenet
from oxcim.quant import Precision
from oxcim.train import Trainer
from oxcim.weightfile import dumps, load_network, loads, save_network
from test_network import tiny_net


def nets_equal(a, b):
    if a.precision is not b.precision or a.input_shape != tuple(b.input_shape):
        return False
    if a.layers != b.layers:
        return False
    for wa, wb in zip(a.weights, b.weights):
        if (wa is None) != (wb is None):
            return False
        if wa is not None and wa != wb:
            return False
    return True


def weight_count(net):
    return sum(net.weights[i].data.size for i in net.parametric_indices())


def weight_encodings(text):
    return {line.split(" = ", 1)[1].split(" ", 1)[0]
            for line in text.splitlines() if line.startswith("weights.")}


class TestRoundTrip:
    # pack64 is the one encoding the writer emits; the test checks the
    # saved file names it on every weights record
    @pytest.mark.parametrize("encoding", ["pack64"])
    @pytest.mark.parametrize("precision", [Precision.BINARY, Precision.TERNARY])
    def test_tiny_net(self, encoding, precision, tmp_path):
        net = tiny_net(precision, seed=3)
        path = tmp_path / "w.qnn"
        save_network(net, path)
        assert weight_encodings(path.read_text()) == {encoding}
        again = load_network(path)
        assert nets_equal(net, again)

    @pytest.mark.parametrize("encoding", ["pack64"])
    def test_lenet(self, encoding, tmp_path):
        net = Trainer(lenet(Precision.TERNARY, r=0.25)).network()
        path = tmp_path / "w.qnn"
        save_network(net, path)
        assert weight_encodings(path.read_text()) == {encoding}
        again = load_network(path)
        assert nets_equal(net, again)
        assert again.layers[1].r == 0.25

    def test_text_round_trip_is_stable(self):
        net = tiny_net(Precision.TERNARY, seed=4)
        text = dumps(net)
        assert dumps(loads(text)) == text


class TestFormatErrors:
    @pytest.mark.parametrize("data", [None, 3])
    def test_data_that_is_not_text_rejected(self, data):
        # used to end in an AttributeError on .splitlines
        with pytest.raises(ParseError, match="expected bytes or text"):
            loads(data)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            loads("precision = binary\nend\n")

    def test_wrong_version(self):
        with pytest.raises(ParseError):
            loads("oxcim-qnn 99\nend\n")

    def test_unknown_key_names_line(self):
        text = dumps(tiny_net()).replace("precision", "precision\nwat")
        with pytest.raises(ParseError):
            loads(text)

    def test_truncated_payload(self):
        net = tiny_net(Precision.TERNARY)
        lines = dumps(net).splitlines()
        broken = []
        for line in lines:
            if line.startswith("weights.0"):
                head, payload = line.rsplit(" ", 1)
                line = head + " " + payload[: len(payload) // 2]
            broken.append(line)
        with pytest.raises(ParseError):
            loads("\n".join(broken) + "\n")

    def test_missing_end(self):
        text = dumps(tiny_net()).replace("\nend\n", "\n")
        with pytest.raises(ParseError):
            loads(text)

    def test_unknown_encoding_names_line(self):
        lines = dumps(tiny_net(Precision.TERNARY)).splitlines()
        i = next(i for i, l in enumerate(lines) if l.startswith("weights."))
        for encoding in ("rle", "pack32", "PACK64"):
            bad = lines.copy()
            bad[i] = bad[i].replace(" pack64 ", f" {encoding} ", 1)
            with pytest.raises(ParseError, match=f"'{encoding}'") as exc:
                loads("\n".join(bad) + "\n")
            assert exc.value.line == i + 1

    def test_layer_gap_rejected(self):
        text = dumps(tiny_net()).replace("layer.1", "layer.9")
        with pytest.raises(ParseError):
            loads(text)


def replace_line(text, prefix, new):
    """text with its line that starts with prefix replaced; and that line's number."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = new
    return "\n".join(lines) + "\n", i + 1


class TestRecordChecks:
    @pytest.mark.parametrize("prefix, new", [
        ("layer.0", "layer.0 = conv2d out_ch=3 kernel=3 stride=0"),
        ("layer.0", "layer.0 = conv2d out_ch=3 kernel=-1 stride=1"),
        ("layer.2", "layer.2 = maxpool size=0"),
        ("layer.2", "layer.2 = dense out=0"),
        ("input", "input = -8,4,4"),
        ("input", "input = 1,0,4")],
        ids=["stride0", "kernel-1", "maxpool0", "dense0", "input-8", "input0"])
    def test_sizes_below_one_fail_at_their_line(self, prefix, new):
        text, line = replace_line(dumps(tiny_net()), prefix, new)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=">= 1") as err:
                loads(text)
        assert err.value.line == line

    @pytest.mark.parametrize("r", ["inf", "nan", "0"])
    def test_ternary_dead_band_fails_at_its_line(self, r):
        # r=inf used to load, and raise only at the first forward pass
        text, line = replace_line(dumps(tiny_net()), "layer.1",
                                  f"layer.1 = activation kind=ternary r={r}")
        with pytest.raises(ParseError, match="finite and > 0") as err:
            loads(text)
        assert err.value.line == line

    @pytest.mark.parametrize("prefix", ["precision", "layer.0", "weights.0"])
    def test_repeated_key_names_line(self, prefix):
        lines = dumps(tiny_net()).splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines.insert(i + 1, lines[i])
        with pytest.raises(ParseError, match="duplicate key") as err:
            loads("\n".join(lines) + "\n")
        assert err.value.line == i + 2

    def test_weights_before_precision_rejected(self):
        lines = dumps(tiny_net()).splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("weights."))
        lines[1], lines[i] = lines[i], lines[1]
        with pytest.raises(ParseError, match="before the precision") as err:
            loads("\n".join(lines) + "\n")
        assert err.value.line == 2

    def test_oversized_conv_gather_fails_before_allocating(self):
        # this short file used to make compile_plan allocate 74 MB
        text = "\n".join([
            "oxcim-qnn 1", "precision = binary", "input = 1,600,600",
            "layer.0 = conv2d out_ch=1 kernel=5 stride=1",
            "layer.1 = activation kind=binary", "layer.2 = dense out=10",
            "layer.3 = activation kind=sigmoid_output", "end", ""])
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="conv gathers 596\\*596\\*25"):
                loads(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sigmoid_output_before_the_last_layer_rejected(self):
        # this file used to load into a net whose forward passes stopped at
        # layer 1 and returned (N, 3, 2, 2) "scores"
        text, _ = replace_line(dumps(tiny_net()), "layer.1",
                               "layer.1 = activation kind=sigmoid_output")
        with pytest.raises(ParseError, match="sigmoid_output must be the "
                                             "last layer"):
            loads(text)

    def test_oversized_input_fails_at_its_line(self):
        text, line = replace_line(dumps(tiny_net()), "input",
                                  "input = 1,65536,65536")
        with pytest.raises(ParseError, match="over 4194304 values") as err:
            loads(text)
        assert err.value.line == line

    def test_non_utf8_byte_names_offset(self, tmp_path):
        data = dumps(tiny_net()).encode()
        at = data.index(b"ternary")
        path = tmp_path / "w.qnn"
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(ParseError) as err:
            load_network(path)
        assert err.value.offset == at

    def test_comments_and_blank_lines_skipped(self):
        net = tiny_net()
        text = dumps(net).replace("\nlayer.0", "\n\n# layers\nlayer.0")
        assert nets_equal(loads(text + "\n\n"), net)


class TestFootprint:
    def test_binary_lenet_beats_float_by_16x(self):
        net = Trainer(lenet(Precision.BINARY)).network()
        text = dumps(net)
        float_bytes = 4 * weight_count(net)
        assert len(text.encode()) <= float_bytes / 16

    def test_ternary_lenet_beats_float_by_8x(self):
        net = Trainer(lenet(Precision.TERNARY)).network()
        text = dumps(net)
        float_bytes = 4 * weight_count(net)
        assert len(text.encode()) <= float_bytes / 8
