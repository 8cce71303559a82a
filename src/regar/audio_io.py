"""WAV file reading and writing (RIFF PCM 16/24-bit and 32-bit float).

Integer PCM is scaled to [-1, 1) by 2**(bits-1) on read; writing PCM rejects
NaN and samples outside [-1, 1] instead of clipping silently.  Float mode
stores the samples as-is, so float32-representable data round-trips bitwise;
reading and writing both reject samples that are not finite as float32.
"""

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["AudioBuffer", "read_wav", "write_wav"]

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioBuffer:
    """Multichannel audio: samples with shape (n_samples, n_channels)."""

    data: np.ndarray
    sample_rate: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] == 0:
            raise ValueError("audio data must be (n_samples, n_channels)")
        if self.sample_rate < 1:
            raise ValueError("sample rate must be positive")
        object.__setattr__(self, "data", data)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    def channel(self, c: int) -> np.ndarray:
        return self.data[:, c]


def _decode_pcm24(raw: bytes) -> np.ndarray:
    b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
    value = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
    return (value ^ 0x800000) - 0x800000


def _encode_pcm24(values: np.ndarray) -> bytes:
    v = values.astype(np.int32) & 0xFFFFFF
    out = np.empty((v.size, 3), dtype=np.uint8)
    out[:, 0] = v & 0xFF
    out[:, 1] = (v >> 8) & 0xFF
    out[:, 2] = (v >> 16) & 0xFF
    return out.tobytes()


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file with PCM 16/24-bit or float32 samples."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(blob):
        cid = blob[pos: pos + 4]
        size = struct.unpack_from("<I", blob, pos + 4)[0]
        body = blob[pos + 8: pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
            break
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise ValueError(f"{path}: malformed fmt chunk")
    audio_format, channels, sample_rate, _, block_align, bits = \
        struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == _EXTENSIBLE:
        if len(fmt) < 26:
            raise ValueError(f"{path}: malformed extensible fmt chunk")
        audio_format = struct.unpack_from("<H", fmt, 24)[0]
    if channels < 1:
        raise ValueError(f"{path}: no channels")
    # a header below 8 bits per sample can claim a block of zero bytes
    if block_align == 0 or block_align != channels * (bits // 8):
        raise ValueError(f"{path}: inconsistent block alignment")
    if len(data) % block_align != 0:
        raise ValueError(f"{path}: truncated sample data")
    if audio_format == _PCM and bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(float) / 32768.0
    elif audio_format == _PCM and bits == 24:
        samples = _decode_pcm24(data).astype(float) / 8388608.0
    elif audio_format == _IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(data, dtype="<f4").astype(float)
        if not np.isfinite(samples).all():
            raise ValueError(f"{path}: NaN or infinite float32 samples")
    else:
        raise ValueError(
            f"{path}: unsupported codec (format {audio_format}, {bits}-bit); "
            "expected PCM 16/24-bit or 32-bit float")
    return AudioBuffer(data=samples.reshape(-1, channels), sample_rate=sample_rate)


def _encode_wav(buffer: AudioBuffer, fmt: str = "float32") -> bytes:
    """The bytes of ``buffer`` as a RIFF/WAVE file in the requested format,
    after every check ``write_wav`` makes."""
    if fmt not in ("float32", "pcm16", "pcm24"):
        raise ValueError(f"unknown format {fmt!r}")
    flat = buffer.data.reshape(-1)
    if fmt == "float32":
        with np.errstate(over="ignore"):  # an overflow shows as inf below
            samples = flat.astype("<f4")
        if not np.isfinite(samples).all():
            raise ValueError("float32 output requires finite samples "
                             "within the float32 range")
        payload = samples.tobytes()
        audio_format, bits = _IEEE_FLOAT, 32
    else:
        if not np.all(np.abs(flat) <= 1.0):  # rejects NaN too
            raise ValueError("PCM output requires samples in [-1, 1]")
        bits = 16 if fmt == "pcm16" else 24
        full = 2 ** (bits - 1)
        codes = np.clip(np.rint(flat * full), -full, full - 1)
        if bits == 16:
            payload = codes.astype("<i2").tobytes()
        else:
            payload = _encode_pcm24(codes)
        audio_format = _PCM
    channels = buffer.channels
    block_align = channels * (bits // 8)
    byte_rate = buffer.sample_rate * block_align
    # the header holds the block size in 16 bits, the rates in 32
    if block_align > 0xFFFF or byte_rate > 0xFFFFFFFF:
        raise ValueError(f"{channels} channel(s) of {fmt} at {buffer.sample_rate} "
                         "Hz do not fit a WAV header")
    fmt_chunk = struct.pack("<HHIIHH", audio_format, channels,
                            buffer.sample_rate, byte_rate, block_align, bits)
    chunks = [(b"fmt ", fmt_chunk)]
    if audio_format != _PCM:
        chunks.append((b"fact", struct.pack("<I", buffer.n_samples)))
    chunks.append((b"data", payload))
    body = b"WAVE"
    for cid, chunk in chunks:
        body += cid + struct.pack("<I", len(chunk)) + chunk
        if len(chunk) & 1:
            body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def write_wav(path, buffer: AudioBuffer, fmt: str = "float32") -> None:
    """Write a RIFF/WAVE file in the requested sample format.

    ``fmt`` is one of "float32", "pcm16", "pcm24".  PCM modes raise on
    samples outside [-1, 1]; only an exact +1.0 saturates to the top code.
    float32 raises on NaN, infinities and values beyond the float32 range.
    Every check runs before the file is opened.
    """
    blob = _encode_wav(buffer, fmt)
    with open(path, "wb") as fh:
        fh.write(blob)
