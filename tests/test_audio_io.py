import struct

import numpy as np
import pytest
import scipy.io.wavfile

from regar.audio_io import AudioBuffer, read_wav, write_wav


def test_float32_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.uniform(-1, 1, size=(500, 2)).astype(np.float32).astype(float)
    path = tmp_path / "f32.wav"
    write_wav(path, AudioBuffer(data, 44100), fmt="float32")
    back = read_wav(path)
    assert back.sample_rate == 44100
    assert back.channels == 2
    np.testing.assert_array_equal(back.data, data)


def test_pcm16_scaling_convention(tmp_path):
    path = tmp_path / "p16.wav"
    write_wav(path, AudioBuffer(np.array([-1.0, 0.0, 0.5]), 8000), fmt="pcm16")
    back = read_wav(path)
    np.testing.assert_array_equal(back.data[:, 0], [-1.0, 0.0, 0.5])
    # -1.0 maps to the most negative code and back exactly
    raw = scipy.io.wavfile.read(path)[1]
    assert raw[0] == -32768


def test_pcm_quantization_error_bound(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.uniform(-0.99, 0.99, size=256)
    for fmt, bits in (("pcm16", 16), ("pcm24", 24)):
        path = tmp_path / f"{fmt}.wav"
        write_wav(path, AudioBuffer(data, 16000), fmt=fmt)
        back = read_wav(path)
        assert np.max(np.abs(back.data[:, 0] - data)) <= 2.0 ** (-bits + 1)


def test_pcm_full_scale_positive_saturates(tmp_path):
    path = tmp_path / "full.wav"
    write_wav(path, AudioBuffer(np.array([1.0, -1.0]), 8000), fmt="pcm16")
    raw = scipy.io.wavfile.read(path)[1]
    assert raw[0] == 32767 and raw[1] == -32768


def test_pcm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError, match="requires samples"):
        write_wav(tmp_path / "x.wav", AudioBuffer(np.array([1.2]), 8000),
                  fmt="pcm16")


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24"])
def test_pcm_rejects_nan(tmp_path, fmt):
    path = tmp_path / "nan.wav"
    with pytest.raises(ValueError, match="requires samples"):
        write_wav(path, AudioBuffer(np.array([0.1, np.nan, 0.2]), 8000),
                  fmt=fmt)
    assert not path.exists()


@pytest.mark.parametrize("fmt, channels, block", [("float32", 1, 4), ("pcm16", 2, 4),
                                                   ("pcm24", 1, 3)])
def test_write_rejects_a_rate_the_header_cannot_hold(tmp_path, fmt, channels, block):
    # the byte rate, sample rate times block size, has 32 bits in the header
    data = np.zeros((4, channels))
    top = 0xFFFFFFFF // block
    path = tmp_path / "rate.wav"
    write_wav(path, AudioBuffer(data, top), fmt=fmt)
    assert read_wav(path).sample_rate == top
    path.unlink()
    with pytest.raises(ValueError, match="do not fit a WAV header"):
        write_wav(path, AudioBuffer(data, top + 1), fmt=fmt)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39, -1e39],
                         ids=["nan", "inf", "-inf", "overflow", "-overflow"])
def test_float32_rejects_samples_that_are_not_finite_as_float32(tmp_path, value):
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match="finite"):
        write_wav(path, AudioBuffer(np.array([0.1, value, 0.2]), 8000),
                  fmt="float32")
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_read_rejects_float32_samples_that_are_not_finite(tmp_path, value):
    path = tmp_path / "bad.wav"
    scipy.io.wavfile.write(path, 8000,
                           np.array([0.1, value, 0.2], dtype=np.float32))
    with pytest.raises(ValueError, match="bad.wav: NaN or infinite float32"):
        read_wav(path)


def test_float32_keeps_the_largest_finite_float32(tmp_path):
    path = tmp_path / "max.wav"
    peak = float(np.finfo(np.float32).max)
    write_wav(path, AudioBuffer(np.array([peak, -peak]), 8000), fmt="float32")
    np.testing.assert_array_equal(read_wav(path).data[:, 0], [peak, -peak])


def test_float_mode_preserves_out_of_range(tmp_path):
    path = tmp_path / "hot.wav"
    write_wav(path, AudioBuffer(np.array([1.5, -2.0]), 8000), fmt="float32")
    back = read_wav(path)
    np.testing.assert_array_equal(back.data[:, 0], [1.5, -2.0])


def test_reads_scipy_written_pcm16(tmp_path):
    path = tmp_path / "scipy.wav"
    samples = (np.arange(-3, 4) * 1000).astype(np.int16)
    scipy.io.wavfile.write(path, 22050, samples)
    back = read_wav(path)
    np.testing.assert_array_equal(back.data[:, 0] * 32768.0, samples)


def test_unsupported_codec(tmp_path):
    path = tmp_path / "u8.wav"
    scipy.io.wavfile.write(path, 8000, np.zeros(16, dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported codec"):
        read_wav(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "ok.wav"
    write_wav(path, AudioBuffer(np.zeros(64), 8000), fmt="pcm16")
    blob = path.read_bytes()
    bad = tmp_path / "bad.wav"
    bad.write_bytes(blob[:-10])
    with pytest.raises(ValueError, match="truncated"):
        read_wav(bad)


def test_not_a_wav(tmp_path):
    path = tmp_path / "nope.wav"
    path.write_bytes(b"hello world, definitely not audio")
    with pytest.raises(ValueError, match="not a RIFF"):
        read_wav(path)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_wav(tmp_path / "absent.wav")


def test_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((0, 1)), 8000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(8), 0)
    mono = AudioBuffer(np.zeros(8), 8000)
    assert mono.channels == 1 and mono.n_samples == 8


def test_extensible_format_is_understood(tmp_path):
    # hand-build a WAVE_FORMAT_EXTENSIBLE float32 file
    samples = np.array([0.25, -0.5], dtype="<f4")
    payload = samples.tobytes()
    subformat = struct.pack("<H", 3) + b"\x00\x00" + b"\x00\x00\x10\x00" \
        b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 8000, 32000, 4, 32, 22, 32, 3) \
        + subformat
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    path = tmp_path / "ext.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    back = read_wav(path)
    np.testing.assert_array_equal(back.data[:, 0], [0.25, -0.5])
