import io
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from clickdetect.audio_io import (
    _PIECE_BYTES,
    SampleBuffer,
    WavFormatError,
    read_wav,
    slice_buffer,
    write_wav,
)

from conftest import RATE, chunk, fmt_body, raw_wav_bytes, riff, tone
from wav_reference import outcome, read_wav_whole

FMT_PCM16 = chunk(b"fmt ", fmt_body(1, 1, RATE, 2, 16))
DATA = chunk(b"data", b"\x00" * 8)


class TestSampleBuffer:
    def test_rejects_out_of_range(self):
        SampleBuffer(np.array([-1.0, 1.0]), RATE)
        for bad in (1.5, -1.5):
            with pytest.raises(ValueError, match="full scale"):
                SampleBuffer(np.array([0.0, bad]), RATE)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                SampleBuffer(np.array([0.0, bad, 0.5]), RATE)

    def test_rejects_low_rate_and_2d(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.zeros(10), 4000)
        with pytest.raises(ValueError):
            SampleBuffer(np.zeros((2, 5)), RATE)

    @pytest.mark.parametrize("rate", [math.inf, math.nan, -math.inf, 48000.5])
    def test_non_integer_rate_named(self, rate):
        # int() of an infinite or NaN rate used to escape as OverflowError or its own ValueError.
        with pytest.raises(ValueError, match="sample_rate_hz"):
            SampleBuffer(np.zeros(10), rate)

    def test_caller_writes_do_not_reach_buffer(self):
        x = np.zeros(8)
        buf = SampleBuffer(x, RATE)
        x[0] = 0.5
        assert buf.samples[0] == 0.0 and not buf.samples.flags.writeable
        view = buf.samples[2:]
        assert SampleBuffer(view, RATE).samples is not view

    def test_frozen_owned_array_is_kept(self):
        for dtype in (np.float64, np.float32):
            x = np.zeros(8, dtype)
            x.flags.writeable = False
            assert SampleBuffer(x, RATE).samples is x

    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.array([0.5, -0.25], np.float32), np.float32),
            (np.array([0.5, -0.25]), np.float64),
            (np.array([0.5, -0.25], np.float16), np.float64),
            (np.array([0, 1], np.int16), np.float64),
            ([0.5, -0.25], np.float64),
        ],
        ids=["float32", "float64", "float16", "int16", "list"],
    )
    def test_float32_kept_anything_else_float64(self, values, dtype):
        assert SampleBuffer(values, RATE).samples.dtype == dtype

    def test_duration_exact(self):
        buf = SampleBuffer(np.zeros(96000), RATE)
        assert buf.duration_s == 96000 / RATE
        assert len(buf) == 96000

    def test_samples_immutable(self):
        buf = SampleBuffer(np.zeros(8), RATE)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0


class TestReadWav:
    def test_one_second_of_16bit_silence(self, tmp_path):
        path = tmp_path / "silence.wav"
        path.write_bytes(raw_wav_bytes(b"\x00\x00" * RATE))
        buf = read_wav(path)
        assert buf.sample_rate_hz == RATE
        assert len(buf) == RATE
        assert not buf.samples.any()

    def test_full_scale_square_wave_mapping(self, tmp_path):
        # two's-complement scaling: +32767 -> 32767/32768, -32768 -> -1.0
        payload = struct.pack("<4h", 32767, -32768, 32767, -32768)
        path = tmp_path / "square.wav"
        path.write_bytes(raw_wav_bytes(payload))
        buf = read_wav(path)
        assert set(buf.samples.tolist()) == {32767 / 32768, -1.0}

    def test_stereo_averages_to_mono(self, tmp_path):
        left, right = 16384, -16384  # +0.5 / -0.5
        payload = struct.pack("<8h", *([left, right] * 4))
        path = tmp_path / "stereo.wav"
        path.write_bytes(raw_wav_bytes(payload, channels=2))
        buf = read_wav(path)
        assert len(buf) == 4
        assert not buf.samples.any()

    def test_24_bit_scaling(self, tmp_path):
        # +2^22 -> 0.5, -2^23 -> -1.0
        def pack24(value):
            return struct.pack("<i", value)[:3]

        payload = pack24(1 << 22) + pack24(-(1 << 23))
        path = tmp_path / "deep.wav"
        path.write_bytes(raw_wav_bytes(payload, bits=24))
        buf = read_wav(path)
        np.testing.assert_allclose(buf.samples, [0.5, -1.0])

    # Frames at the edges of each format's range, and their exact mono values.
    # The stereo float mean 0.5 + 2^-31 is not a float32: that format stays float64.
    DTYPES = [
        pytest.param(1, 16, [(32767,), (-32768,), (1,)], np.float32, id="pcm16-mono"),
        pytest.param(1, 16, [(32767, 32766), (-32768, -32768), (1, 0)], np.float32, id="pcm16-stereo"),
        pytest.param(1, 24, [(2**23 - 1,), (-(2**23),), (1,)], np.float32, id="pcm24-mono"),
        pytest.param(1, 24, [(2**23 - 1, 2**23 - 2), (-(2**23), -(2**23)), (1, 0)], np.float32, id="pcm24-stereo"),
        pytest.param(3, 32, [(0.1,), (2.0,), (2.0**-30,)], np.float32, id="float32-mono"),
        pytest.param(3, 32, [(1.0, 2.0**-30), (-2.0, 0.1), (0.1, 0.1)], np.float64, id="float32-stereo"),
    ]

    @pytest.mark.parametrize("fmt, bits, frames, dtype", DTYPES)
    def test_sample_dtype_holds_every_mono_sample_exactly(self, tmp_path, fmt, bits, frames, dtype):
        channels = len(frames[0])
        values = [v for frame in frames for v in frame]
        if fmt == 3:
            payload = np.array(values, "<f4").tobytes()
            wide = np.clip(np.array(values, "<f4").astype(np.float64), -1.0, 1.0)
        else:
            payload = b"".join(struct.pack("<i", v)[: bits // 8] for v in values)
            wide = np.array(values, np.float64) / 2.0 ** (bits - 1)
        path = tmp_path / "edges.wav"
        path.write_bytes(raw_wav_bytes(payload, fmt=fmt, channels=channels, bits=bits))
        buf = read_wav(path)
        assert buf.samples.dtype == dtype
        # Python floats: the float64 mean of each frame, computed apart from the reader.
        assert buf.samples.tolist() == [sum(frame) / channels for frame in wide.reshape(-1, channels).tolist()]

    def test_float32_clamped(self, tmp_path):
        payload = struct.pack("<3f", 0.25, 1.75, -2.0)
        path = tmp_path / "float.wav"
        path.write_bytes(raw_wav_bytes(payload, fmt=3, bits=32))
        buf = read_wav(path)
        np.testing.assert_allclose(buf.samples, [0.25, 1.0, -1.0])

    def test_float32_infinity_clamped_nan_named(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(raw_wav_bytes(struct.pack("<2f", math.inf, -math.inf), fmt=3, bits=32))
        np.testing.assert_array_equal(read_wav(path).samples, [1.0, -1.0])
        path.write_bytes(raw_wav_bytes(struct.pack("<3f", 0.25, math.nan, 0.5), fmt=3, bits=32))
        with pytest.raises(WavFormatError, match="data chunk holds NaN"):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_non_riff_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(path)

    def test_non_pcm_codec_names_format_tag(self, tmp_path):
        path = tmp_path / "alaw.wav"
        path.write_bytes(raw_wav_bytes(b"\x00\x00", fmt=6))
        with pytest.raises(WavFormatError, match="wFormatTag"):
            read_wav(path)

    def test_unsupported_bit_depth_named(self, tmp_path):
        path = tmp_path / "8bit.wav"
        path.write_bytes(raw_wav_bytes(b"\x00", bits=8))
        with pytest.raises(WavFormatError, match="wBitsPerSample"):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        good = raw_wav_bytes(b"\x00\x00" * 100)
        path = tmp_path / "cut.wav"
        path.write_bytes(good[:-40])
        with pytest.raises(WavFormatError, match="data chunk"):
            read_wav(path)

    def test_too_many_channels(self, tmp_path):
        path = tmp_path / "quad.wav"
        path.write_bytes(raw_wav_bytes(b"\x00\x00" * 8, channels=4))
        with pytest.raises(WavFormatError, match="nChannels"):
            read_wav(path)

    def test_low_header_rate_named(self, tmp_path):
        path = tmp_path / "slow.wav"
        path.write_bytes(raw_wav_bytes(b"\x00\x00" * 8, rate=4000))
        with pytest.raises(WavFormatError, match="nSamplesPerSec = 4000"):
            read_wav(path)

    @pytest.mark.parametrize(
        "fmt, bits, channels, size, block_align",
        [
            pytest.param(1, 16, 1, 5, 0, id="1-16-5"),
            pytest.param(3, 32, 1, 6, 0, id="3-32-6"),
            pytest.param(1, 24, 1, 7, 0, id="1-24-7"),
            # Three whole samples, but not whole stereo frames.
            pytest.param(1, 16, 2, 6, 0, id="1-16-stereo-6"),
            # A block that is not a whole number of samples leaves a partial one.
            pytest.param(1, 16, 1, 100, 3, id="1-16-100-align3"),
            pytest.param(1, 16, 1, 99, 3, id="1-16-99-align3"),
            pytest.param(1, 16, 1, 7, 1, id="1-16-7-align1"),
        ],
    )
    def test_zero_block_align_partial_sample_named(self, tmp_path, fmt, bits, channels, size, block_align):
        path = tmp_path / "ragged.wav"
        payload = b"\x00" * size
        path.write_bytes(raw_wav_bytes(payload, fmt=fmt, channels=channels, bits=bits, block_align=block_align))
        with pytest.raises(WavFormatError, match=f"nBlockAlign = {block_align}"):
            read_wav(path)

    @pytest.mark.parametrize(
        "raw, named",
        [
            pytest.param(riff(FMT_PCM16, DATA, form=b"AVI "), "form type", id="form-not-wave"),
            pytest.param(riff(chunk(b"fmt ", bytes(14)), DATA), "fmt chunk truncated", id="short-fmt"),
            pytest.param(riff(DATA), "no fmt chunk", id="no-fmt"),
            pytest.param(riff(FMT_PCM16), "no data chunk", id="no-data"),
            pytest.param(raw_wav_bytes(b"\x00" * 4, fmt=3, bits=16), "wBitsPerSample = 16 for float", id="float-16"),
        ],
    )
    def test_container_errors_named(self, tmp_path, raw, named):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw)
        with pytest.raises(WavFormatError, match=named):
            read_wav(path)

    def test_extensible_pcm_reads_like_plain_pcm(self, tmp_path):
        payload = struct.pack("<4h", 16384, -16384, 32767, -32768)
        plain, extensible = tmp_path / "plain.wav", tmp_path / "extensible.wav"
        plain.write_bytes(raw_wav_bytes(payload))
        fmt = chunk(b"fmt ", fmt_body(0xFFFE, 1, RATE, 2, 16, subformat=1))
        extensible.write_bytes(riff(fmt, chunk(b"data", payload)))
        np.testing.assert_array_equal(read_wav(extensible).samples, read_wav(plain).samples)

    def test_zero_block_align_whole_samples_read(self, tmp_path):
        path = tmp_path / "unaligned.wav"
        path.write_bytes(raw_wav_bytes(struct.pack("<2h", 16384, -16384), block_align=0))
        np.testing.assert_allclose(read_wav(path).samples, [0.5, -0.5])


class TestReadInPieces:
    """The data chunk is decoded ``_PIECE_BYTES`` at a time, never held whole."""

    FORMATS = [
        pytest.param(1, 16, id="pcm16"),
        pytest.param(1, 24, id="pcm24"),
        pytest.param(3, 32, id="float32"),
    ]

    @staticmethod
    def payload(rng, fmt, bits, frames, channels):
        if fmt == 3:
            values = rng.uniform(-1.5, 1.5, frames * channels).astype("<f4")
            values[::997] = np.inf
            values[1::997] = -np.inf
            return values
        return rng.integers(0, 256, frames * channels * bits // 8, dtype=np.uint8)

    @pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
    @pytest.mark.parametrize("fmt, bits", FORMATS)
    def test_piece_boundaries_match_whole_file_reference(self, tmp_path, rng, fmt, bits, channels):
        frame_bytes = channels * bits // 8
        frames = 3 * (_PIECE_BYTES // frame_bytes) + 7  # three whole pieces and a short one
        path = tmp_path / "long.wav"
        payload = self.payload(rng, fmt, bits, frames, channels).tobytes()
        path.write_bytes(raw_wav_bytes(payload, fmt=fmt, channels=channels, bits=bits))
        got = outcome(read_wav, path)
        assert got == outcome(read_wav_whole, path)
        assert got[0] == RATE and len(got[1]) == 8 * frames

    @pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
    def test_nan_in_last_piece_named(self, tmp_path, rng, channels):
        frames = 3 * (_PIECE_BYTES // (4 * channels)) + 7
        values = self.payload(rng, 3, 32, frames, channels)
        values[-2] = np.nan
        path = tmp_path / "nan.wav"
        path.write_bytes(raw_wav_bytes(values.tobytes(), fmt=3, channels=channels, bits=32))
        with pytest.raises(WavFormatError, match="data chunk holds NaN"):
            read_wav(path)

    def test_short_read_names_data_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "shrunk.wav"
        write_wav(tone(440.0, 3.0, amplitude=0.5), path)
        stop = 44 + _PIECE_BYTES + 1000  # a full first piece, then 1000 bytes of the second

        class StopsEarly(io.BufferedReader):
            """A file that ends at ``stop`` for ``readinto``, as if it shrank after the header scan."""

            def readinto(self, b):
                return super().readinto(memoryview(b)[: max(0, stop - self.tell())])

        monkeypatch.setattr(Path, "open", lambda self, mode="r": StopsEarly(io.FileIO(self, mode)))
        with pytest.raises(WavFormatError, match=f"data chunk ended after {_PIECE_BYTES + 1000} of {6 * RATE} bytes"):
            read_wav(path)

    def test_sixty_seconds_read_without_a_copy_of_the_file(self, tmp_path):
        path = tmp_path / "minute.wav"
        write_wav(tone(440.0, 60.0, amplitude=0.5), path)
        tracemalloc.start()
        try:
            buffer = read_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(buffer) == 60 * RATE
        assert peak - buffer.samples.nbytes <= 1 << 20


class TestWriteWav:
    def test_pieces_encode_like_one_whole_array(self, tmp_path, rng):
        samples = rng.uniform(-1.0, 1.0, 3 * (_PIECE_BYTES // 2) + 7)
        samples[:4] = [1.0, -1.0, 0.5 / 32768, -1.5 / 32768]  # clipped, and ties rounded to even
        path = tmp_path / "pieces.wav"
        write_wav(SampleBuffer(samples, RATE), path)
        q = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
        assert path.read_bytes() == raw_wav_bytes(q)
    def test_round_trip_quantization_bound(self, tmp_path):
        buf = tone(1000.0, 1.0, amplitude=0.25)
        path = tmp_path / "sine.wav"
        write_wav(buf, path)
        back = read_wav(path)
        assert back.sample_rate_hz == RATE
        assert np.max(np.abs(back.samples - buf.samples)) <= 1 / 32768

    def test_empty_buffer_round_trip(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(SampleBuffer(np.zeros(0), RATE), path)
        back = read_wav(path)
        assert len(back) == 0

    def test_pink_noise_energy_preserved(self, tmp_path):
        from clickdetect.soundscape import SimConfig, pink_noise

        buf = pink_noise(SimConfig(seed=1, duration_s=4.0))
        path = tmp_path / "pink.wav"
        write_wav(buf, path)
        back = read_wav(path)

        def rms_db(x):
            return 10 * math.log10(float(np.mean(x**2)))

        assert abs(rms_db(back.samples) - rms_db(buf.samples)) <= 0.01

    def test_rate_beyond_the_header_named_before_the_file_opens(self, tmp_path):
        # The byte rate 2 * 2**31 overflows its uint32, which used to escape as struct.error.
        path = tmp_path / "fast.wav"
        with pytest.raises(ValueError, match="sample_rate_hz"):
            write_wav(SampleBuffer(np.zeros(10), 2**31), path)
        assert not path.exists()
        write_wav(SampleBuffer(np.zeros(10), 2**31 - 1), path)
        assert read_wav(path).sample_rate_hz == 2**31 - 1

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_wav(SampleBuffer(np.zeros(4), RATE), tmp_path / "no" / "dir" / "x.wav")


class TestSlice:
    def test_identity(self):
        buf = tone(440.0, 1.0, 0.5)
        out = slice_buffer(buf, 0.0, buf.duration_s)
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_sample_count_exact(self):
        buf = SampleBuffer(np.zeros(10 * RATE), RATE)
        out = slice_buffer(buf, 2.0, 4.0)
        assert len(out) == 96000

    def test_empty_range_rejected(self):
        buf = SampleBuffer(np.zeros(RATE), RATE)
        with pytest.raises(ValueError):
            slice_buffer(buf, 1.0, 1.0)

    def test_out_of_range_rejected(self):
        buf = SampleBuffer(np.zeros(RATE), RATE)
        with pytest.raises(ValueError):
            slice_buffer(buf, 0.5, 1.5)
        with pytest.raises(ValueError):
            slice_buffer(buf, -0.1, 0.5)

    def test_slicing_composes(self, rng):
        buf = SampleBuffer(rng.uniform(-0.5, 0.5, 6 * RATE), RATE)
        nested = slice_buffer(slice_buffer(buf, 1.0, 5.0), 1.0, 2.0)
        direct = slice_buffer(buf, 2.0, 3.0)
        np.testing.assert_array_equal(nested.samples, direct.samples)

