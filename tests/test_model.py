"""Architecture arithmetic, block behavior, and checkpoint round trips."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import first_dim_offset, first_name_last_byte
from seismonet.checkpoint import load_checkpoint, save_checkpoint
from seismonet.errors import ConfigError, RecordFormatError, SeismoNetError, ValidationError
from seismonet.model import (
    InceptionResidualBlock,
    ModelConfig,
    build_model,
)
from seismonet.nn import (ConvSpec, ParamStore, SignalTensor, Tape, leaky_relu, sgd_step,
                          smooth_l1_loss)


def test_default_is_twelve_blocks_512_bottleneck():
    cfg = ModelConfig(input_len=256, levels=5, base_channels=32)
    model = build_model(cfg, seed=0)
    assert model.block_count == 12
    assert model.bottleneck_channels == 512


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5, 6])
def test_block_count_formula(levels):
    cfg = ModelConfig(input_len=4 * 2 ** levels, levels=levels, base_channels=8)
    model = build_model(cfg, seed=1)
    assert model.block_count == 2 * levels + 2
    assert model.bottleneck_channels == 8 * 2 ** (levels - 1)
    assert len(model.contracting) == levels
    assert len(model.expanding) == levels


def test_forward_preserves_shape_n3():
    cfg = ModelConfig(input_len=500, levels=3, base_channels=8)
    model = build_model(cfg, seed=2)
    out = model.forward(SignalTensor(np.zeros((1, 1, 500), np.float32)))
    assert out.shape == (1, 1, 500)


def test_forward_random_configs_preserve_length(rng):
    for _ in range(10):
        levels = int(rng.integers(1, 4))
        base = int(rng.choice([4, 8, 16]))
        stride = int(rng.choice([2, 3]))
        min_len = 4 * stride ** levels
        input_len = int(rng.integers(min_len, min_len + 40))
        cfg = ModelConfig(input_len=input_len, levels=levels, base_channels=base,
                          down_stride=stride)
        model = build_model(cfg, seed=int(rng.integers(1000)))
        out = model.forward(SignalTensor(np.zeros((1, 1, input_len), np.float32)))
        assert out.shape == (1, 1, input_len)


def test_contracting_channel_sequence_from_entry_16():
    cfg = ModelConfig(input_len=256, levels=5, base_channels=32)
    model = build_model(cfg, seed=0)
    assert cfg.entry_channels == 16
    widths = [b.down.spec.out_channels for b in model.contracting]
    assert widths == [32, 64, 128, 256, 512]


def test_expanding_channel_sequence():
    cfg = ModelConfig(input_len=256, levels=5, base_channels=32)
    model = build_model(cfg, seed=0)
    assert [b.out_channels for b in model.expanding] == [128, 64, 32, 16, 8]


def test_contracting_block_shapes():
    cfg = ModelConfig(input_len=256, levels=2, base_channels=32)
    model = build_model(cfg, seed=3)
    block = model.contracting[0]  # entry width 16 -> 32
    for length, expect in [(100, 50), (101, 51)]:
        out = block.forward(SignalTensor(np.zeros((1, 16, length), np.float32)),
                            tape=None, training=False)
        assert out.shape == (1, 32, expect)


def test_ensemble_block_shape_and_zero_response():
    cfg = ModelConfig(input_len=400, levels=1, base_channels=32)
    model = build_model(cfg, seed=4)
    out = model.ensemble.forward(SignalTensor(np.zeros((2, 1, 400), np.float32)),
                                 tape=None, training=False)
    assert out.shape == (2, 16, 400)
    # biases start at zero, so a zero input produces a zero response
    np.testing.assert_array_equal(out.values, 0.0)


def test_expanding_block_shapes():
    cfg = ModelConfig(input_len=3200, levels=5, base_channels=32)
    model = build_model(cfg, seed=7)
    lengths = cfg.encoder_lengths()
    # first stage takes the bottleneck without a skip: 512 -> 128 channels
    bottleneck = SignalTensor(np.zeros((1, 512, lengths[5]), np.float32))
    out = model.expanding[0].forward(bottleneck, None, lengths[4], None, False)
    assert out.shape == (1, 128, lengths[4])
    # second stage merges a projected skip: 128 (+128 projected) -> 64
    skip = SignalTensor(np.zeros((1, 256, lengths[4]), np.float32))
    out2 = model.expanding[1].forward(out, skip, lengths[3], None, False)
    assert out2.shape == (1, 64, lengths[3])


def test_expanding_block_skip_length_mismatch():
    cfg = ModelConfig(input_len=3200, levels=5, base_channels=32)
    model = build_model(cfg, seed=7)
    lengths = cfg.encoder_lengths()
    x = SignalTensor(np.zeros((1, 128, lengths[4]), np.float32))
    bad_skip = SignalTensor(np.zeros((1, 256, lengths[4] + 3), np.float32))
    with pytest.raises(ValidationError, match="skip length"):
        model.expanding[1].forward(x, bad_skip, lengths[3], None, False)


def test_denoise_restores_length():
    cfg = ModelConfig(input_len=500, levels=3, base_channels=32)
    model = build_model(cfg, seed=5)
    x = SignalTensor(np.random.default_rng(0).normal(size=(1, 8, 497)).astype(np.float32))
    out = model.denoise.forward(x, tape=None, training=False)
    assert out.shape == (1, 1, 500)


def test_decoder_length_plan_only_pads():
    # Every valid config on the grid: each up-sampling stage comes out at most
    # s-1 samples short of its encoder-plan target and never long, so
    # crop_or_pad only pads, and the last stage ends at input_len.
    def up_spec(cfg):
        return ConvSpec(1, 1, cfg.up_kernel, cfg.down_stride, (cfg.up_kernel - 1) // 2,
                        transposed=True)

    small = ModelConfig(input_len=90, levels=2, base_channels=4, down_stride=3, up_kernel=7)
    assert {replace(block.up.spec, in_channels=1, out_channels=1)
            for block in build_model(small).expanding} == {up_spec(small)}

    stages = pads = 0
    for input_len in range(16, 696, 7):
        for levels in range(1, 6):
            for stride in range(1, 5):
                for up_kernel in range(1, 10, 2):
                    try:
                        cfg = ModelConfig(input_len=input_len, levels=levels,
                                          down_stride=stride, up_kernel=up_kernel)
                    except ConfigError:
                        continue
                    lengths, spec = cfg.encoder_lengths(), up_spec(cfg)
                    length = lengths[-1]
                    for n in range(levels):
                        target = lengths[levels - 1 - n]
                        out = spec.out_length(length)
                        assert target - (stride - 1) <= out <= target, (cfg, n)
                        stages += 1
                        pads += out < target
                        length = target
                    assert length == input_len
    assert (stages, pads) == (20840, 8035)


def test_inception_channel_split_11_11_10():
    store = ParamStore()
    cfg = ModelConfig(input_len=64, levels=1, base_channels=32)
    block = InceptionResidualBlock(store, "b", 32, cfg, np.float64)
    store.initialize(np.random.default_rng(0))
    widths = [c.spec.out_channels for c in block.branches]
    assert widths == [11, 11, 10]
    out = block.forward(SignalTensor(np.zeros((1, 32, 100))), None, False)
    assert out.shape == (1, 32, 100)


def test_inception_zero_weights_acts_as_leaky_relu(rng):
    store = ParamStore()
    cfg = ModelConfig(input_len=64, levels=1, base_channels=8)
    block = InceptionResidualBlock(store, "b", 8, cfg, np.float64)
    store.initialize(np.random.default_rng(1))
    for _, p in store.items():
        p.values[...] = 0.0
    x = SignalTensor(rng.normal(size=(2, 8, 30)))
    out = block.forward(x, None, False)
    expected = leaky_relu(SignalTensor(x.values.copy()), cfg.leaky_slope)
    np.testing.assert_allclose(out.values, expected.values)


def test_inception_branch_cap_on_narrow_features():
    store = ParamStore()
    cfg = ModelConfig(input_len=64, levels=1, base_channels=4)
    block = InceptionResidualBlock(store, "b", 2, cfg, np.float64)
    store.initialize(np.random.default_rng(2))
    assert len(block.branches) == 2  # capped at channel count
    out = block.forward(SignalTensor(np.zeros((1, 2, 16))), None, False)
    assert out.shape == (1, 2, 16)


def test_batch_rows_independent(rng):
    cfg = ModelConfig(input_len=64, levels=2, base_channels=4)
    model = build_model(cfg, seed=6)
    row = rng.normal(size=(1, 1, 64)).astype(np.float32)
    batch = SignalTensor(np.concatenate([row, row], axis=0))
    for training in (False, True):
        out = model.forward(batch, tape=None, training=training)
        np.testing.assert_array_equal(out.values[0], out.values[1])


def test_predict_allocates_no_gradients(grad_reads, rng):
    model = build_model(ModelConfig(input_len=64, levels=2, base_channels=4), seed=2)
    model.predict(rng.normal(size=(3, 64)))
    assert grad_reads == []
    # a taped step does read them, so the probe sees allocations
    tape = Tape()
    out = model.forward(SignalTensor(rng.normal(size=(2, 1, 64)).astype(np.float32)),
                        tape=tape, training=True)
    out.grad[...] = 1.0
    tape.backward()
    assert len(grad_reads) > len(model.params)


def test_forward_wrong_length_rejected():
    model = build_model(ModelConfig(input_len=64, levels=2, base_channels=4), seed=0)
    with pytest.raises(ValidationError, match="length"):
        model.forward(SignalTensor(np.zeros((1, 1, 60), np.float32)))


def test_forward_wrong_channels_rejected():
    model = build_model(ModelConfig(input_len=64, levels=2, base_channels=4), seed=0)
    with pytest.raises(ValidationError, match="channel"):
        model.forward(SignalTensor(np.zeros((1, 2, 64), np.float32)))


@pytest.mark.parametrize("kwargs,match", [
    (dict(input_len=64, levels=0), "levels"),
    (dict(input_len=64, levels=2, base_channels=6), "multiple of 4"),
    (dict(input_len=16, levels=4, base_channels=8), "bottleneck"),
    (dict(input_len=64, levels=2, base_channels=8, conv_kernel=4), "odd"),
    (dict(input_len=64, levels=2, base_channels=8, inception_kernels=()), "non-empty"),
    (dict(input_len=64, levels=2, base_channels=8, entry_channels=3), "entry_channels"),
    (dict(input_len=0), "input_len must be >= 1, got 0"),
])
def test_config_validation_names_constraint(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        ModelConfig(**kwargs)


def test_loss_decreases_over_twenty_steps(rng):
    model = build_model(ModelConfig(input_len=64, levels=2, base_channels=4), seed=3)
    x = rng.normal(size=(4, 1, 64)).astype(np.float32)
    target = np.abs(rng.normal(size=(4, 1, 64))).astype(np.float32) * 3
    losses = []
    for _ in range(21):
        tape = Tape()
        pred = model.forward(SignalTensor(x.copy()), tape=tape, training=True)
        loss = smooth_l1_loss(pred, target, tape=tape)
        losses.append(loss)
        tape.backward()
        sgd_step(model.params, 0.001)
    assert all(b < a for a, b in zip(losses, losses[1:]))


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path, rng):
    model = build_model(ModelConfig(input_len=96, levels=2, base_channels=8), seed=9)
    # move running stats off their init values
    model.forward(SignalTensor(rng.normal(size=(2, 1, 96)).astype(np.float32)),
                  tape=Tape(), training=True)
    path = tmp_path / "model.smn"
    model.trained_epochs = 17
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.trained_epochs == 17
    assert loaded.config == model.config
    x = rng.normal(size=(3, 1, 96)).astype(np.float32)
    np.testing.assert_array_equal(loaded.predict(x), model.predict(x))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.smn"
    model = build_model(ModelConfig(input_len=64, levels=2, base_channels=4), seed=0)
    save_checkpoint(model, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(RecordFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "trunc.smn"
    model = build_model(ModelConfig(input_len=64, levels=2, base_channels=4), seed=0)
    save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(RecordFormatError, match="truncated|missing"):
        load_checkpoint(path)


@pytest.mark.parametrize("byte", [0, 3, 7])
def test_checkpoint_corrupted_dim_rejected_before_payload_read(tmp_path, byte):
    path = tmp_path / "dim.smn"
    save_checkpoint(build_model(ModelConfig(input_len=64, levels=2, base_channels=4),
                                seed=0), path)
    data = bytearray(path.read_bytes())
    data[first_dim_offset(data) + byte] ^= 0x80
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match="has shape"):
        load_checkpoint(path)


def test_checkpoint_wrong_rank_rejected(tmp_path):
    path = tmp_path / "rank.smn"
    save_checkpoint(build_model(ModelConfig(input_len=64, levels=2, base_channels=4),
                                seed=0), path)
    data = bytearray(path.read_bytes())
    data[first_dim_offset(data) - 4] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match="rank 255"):
        load_checkpoint(path)


def test_checkpoint_unknown_tensor_rejected(tmp_path):
    path = tmp_path / "name.smn"
    save_checkpoint(build_model(ModelConfig(input_len=64, levels=2, base_channels=4),
                                seed=0), path)
    data = bytearray(path.read_bytes())
    pos = first_dim_offset(data) - 5  # last byte of the first tensor name
    data[pos:pos + 1] = b"?"
    path.write_bytes(bytes(data))
    with pytest.raises(RecordFormatError, match="unexpected tensor"):
        load_checkpoint(path)


def test_checkpoint_non_utf8_tensor_name_rejected(tmp_path):
    path = tmp_path / "utf8.smn"
    save_checkpoint(build_model(ModelConfig(input_len=64, levels=2, base_channels=4),
                                seed=0), path)
    data = bytearray(path.read_bytes())
    data[first_name_last_byte(data)] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(RecordFormatError, match="tensor name is not valid UTF-8"):
        load_checkpoint(path)


def test_checkpoint_non_utf8_config_block_rejected(tmp_path):
    path = tmp_path / "utf8.smn"
    save_checkpoint(build_model(ModelConfig(input_len=64, levels=2, base_channels=4),
                                seed=0), path)
    data = bytearray(path.read_bytes())
    data[12] = 0xFF  # the config block's first byte, after magic, version, length
    path.write_bytes(bytes(data))
    with pytest.raises(RecordFormatError, match="config block is not valid UTF-8"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    """The bytes of a saved desk-scale model (levels 3, base 8, 200 samples)."""
    path = tmp_path_factory.mktemp("desk") / "desk.smn"
    save_checkpoint(build_model(ModelConfig(input_len=200, levels=3, base_channels=8),
                                seed=11), path)
    return path.read_bytes()


@pytest.mark.parametrize("offset", [
    pytest.param(lambda data: 8, id="config_block"),  # after magic and version
    pytest.param(lambda data: 12 + int.from_bytes(data[8:12], "little"), id="tensor_name"),
])
def test_checkpoint_oversized_length_is_truncation(tmp_path, desk_checkpoint, offset):
    data = bytearray(desk_checkpoint)
    pos = offset(data)
    data[pos:pos + 4] = (0x7FFFFFF0).to_bytes(4, "little")
    path = tmp_path / "long.smn"
    path.write_bytes(bytes(data))
    with pytest.raises(RecordFormatError, match="truncated checkpoint file"):
        load_checkpoint(path)


_CORRUPTION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(0)),
    st.tuples(st.just("set"), st.integers(0, 1 << 20), st.integers(0, 255)),
    # the headers (magic, version, config block, first tensor) are the
    # first few hundred bytes; hit them as often as the payload
    st.tuples(st.just("set"), st.integers(0, 600), st.integers(0, 255)),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corruption=_CORRUPTION)
def test_corrupted_checkpoint_loads_or_raises_package_error(tmp_path, desk_checkpoint,
                                                            corruption):
    kind, pos, value = corruption
    data = bytearray(desk_checkpoint)
    pos %= len(data)
    if kind == "truncate":
        del data[pos:]
    else:
        data[pos] = value
    path = tmp_path / "fuzz.smn"
    path.write_bytes(bytes(data))
    try:
        load_checkpoint(path)
    except SeismoNetError:
        pass


def test_checkpoint_config_travels(tmp_path):
    cfg = ModelConfig(input_len=80, levels=3, base_channels=8, down_stride=2,
                      inception_kernels=(1, 3))
    model = build_model(cfg, seed=1)
    path = tmp_path / "n3.smn"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config.levels == 3
    assert loaded.config.inception_kernels == (1, 3)
    assert loaded.config.input_len == 80


def _config_block(data: bytes) -> bytes:
    """The checkpoint's config block, after magic, version and its length."""
    return data[12:12 + int.from_bytes(data[8:12], "little")]


def test_checkpoint_config_block_bytes_pinned(tmp_path, desk_checkpoint):
    assert _config_block(desk_checkpoint) == (
        b"input_len=200\nlevels=3\nbase_channels=8\nconv_kernel=3\ndown_kernel=5\n"
        b"up_kernel=5\ndown_stride=2\nentry_channels=4\nentry_kernel=7\n"
        b"inception_kernels=1,3,5\nleaky_slope=0.01\nbn_momentum=0.1\nbn_eps=1e-05\n"
        b"epoch=0\n")
    cfg = ModelConfig(input_len=301, levels=2, base_channels=12, conv_kernel=5,
                      down_kernel=3, up_kernel=7, down_stride=3, entry_kernel=9,
                      inception_kernels=(1, 3, 5, 7), leaky_slope=0.2, bn_momentum=0.05,
                      bn_eps=1e-3)
    path = tmp_path / "custom.smn"
    model = build_model(cfg, seed=0)
    model.trained_epochs = 17
    save_checkpoint(model, path)
    assert _config_block(path.read_bytes()) == (
        b"input_len=301\nlevels=2\nbase_channels=12\nconv_kernel=5\ndown_kernel=3\n"
        b"up_kernel=7\ndown_stride=3\nentry_channels=6\nentry_kernel=9\n"
        b"inception_kernels=1,3,5,7\nleaky_slope=0.2\nbn_momentum=0.05\nbn_eps=0.001\n"
        b"epoch=17\n")
    assert load_checkpoint(path).config == cfg


@pytest.mark.parametrize("line, replacement", [
    (b"leaky_slope=0.01", b"leaky_slope=nan"),
    (b"bn_momentum=0.1", b"bn_momentum=inf"),
    (b"bn_eps=1e-05", b"bn_eps=-inf"),
    (b"inception_kernels=1,3,5", b"inception_kernels=1,,5"),
])
def test_checkpoint_malformed_config_value_rejected(tmp_path, desk_checkpoint, line,
                                                    replacement):
    block = _config_block(desk_checkpoint)
    edited = block.replace(line, replacement)
    data = (desk_checkpoint[:8] + len(edited).to_bytes(4, "little") + edited
            + desk_checkpoint[12 + len(block):])
    path = tmp_path / "value.smn"
    path.write_bytes(data)
    with pytest.raises(RecordFormatError, match="bad config value"):
        load_checkpoint(path)
