"""A 16-bit mono WAV is read as its int16 PCM codes, 2 bytes a sample, and no
library path decodes them into a float copy."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from clickdetect.audio_io import _PIECE_BYTES, SampleBuffer, _as_float64, read_wav, slice_buffer, write_wav
from clickdetect.detector import ClickDetector
from clickdetect.soundscape import SimConfig, apply_shroud, factory_noise, mix_at_snr, synth_click
from clickdetect.spectral import band_powers, frame_band_powers, spectrogram_image, stft, third_octave_bands

from conftest import RATE, raw_wav_bytes

BANDS = third_octave_bands(100.0, 20000.0)


def wav_of_codes(path, codes: np.ndarray):
    path.write_bytes(raw_wav_bytes(codes.astype("<i2").tobytes()))
    return path


def test_codes_are_kept_and_decoded_at_each_access(tmp_path, rng):
    codes = rng.integers(-32768, 32768, 3 * (_PIECE_BYTES // 2) + 7).astype(np.int16)
    codes[:2] = [-32768, 32767]
    buffer = read_wav(wav_of_codes(tmp_path / "codes.wav", codes))
    stored = buffer._array
    assert stored.dtype == np.int16 and not stored.flags.writeable
    np.testing.assert_array_equal(stored, codes)
    first, second = buffer.samples, buffer.samples
    assert first is not second and not first.flags.writeable
    assert first.dtype == np.float32 and first.tobytes() == (codes / 32768.0).astype(np.float32).tobytes()
    assert len(buffer) == codes.size and buffer.duration_s == codes.size / RATE


def test_write_wav_reproduces_the_data_chunk(tmp_path, rng):
    codes = rng.integers(-32768, 32768, 2 * (_PIECE_BYTES // 2) + 3).astype(np.int16)
    codes[:2] = [-32768, 32767]
    source = wav_of_codes(tmp_path / "source.wav", codes)
    write_wav(read_wav(source), tmp_path / "copy.wav")
    assert (tmp_path / "copy.wav").read_bytes() == source.read_bytes()


def test_slice_keeps_the_codes(tmp_path, rng):
    codes = rng.integers(-32768, 32768, 3 * RATE).astype(np.int16)
    buffer = read_wav(wav_of_codes(tmp_path / "codes.wav", codes))
    part = slice_buffer(buffer, 1.0, 2.0)
    stored = part._array
    assert stored.dtype == np.int16
    np.testing.assert_array_equal(stored, codes[RATE : 2 * RATE])
    np.testing.assert_array_equal(part.samples, buffer.samples[RATE : 2 * RATE])


def test_dataclass_tools_see_the_values(tmp_path, rng):
    codes = rng.integers(-32768, 32768, RATE).astype(np.int16)
    buffer = read_wav(wav_of_codes(tmp_path / "codes.wav", codes))
    assert [f.name for f in dataclasses.fields(buffer)] == ["samples", "sample_rate_hz"]
    assert SampleBuffer.__match_args__ == ("samples", "sample_rate_hz")
    assert repr(buffer).startswith("SampleBuffer(samples=array([") and "dtype=float32" in repr(buffer)
    faster = dataclasses.replace(buffer, sample_rate_hz=2 * RATE)
    assert faster.sample_rate_hz == 2 * RATE and faster.samples.tobytes() == buffer.samples.tobytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        buffer.sample_rate_hz = RATE


def test_float64_values_are_read_in_place(rng):
    buffer = SampleBuffer(rng.uniform(-1.0, 1.0, RATE), RATE)
    assert _as_float64(buffer) is buffer._array
    copy = _as_float64(buffer, copy=True)
    assert copy is not buffer._array and copy.flags.writeable and copy.tobytes() == buffer._array.tobytes()


def test_no_library_path_decodes_the_codes(tmp_path, monkeypatch):
    cfg = SimConfig(seed=5, duration_s=10.0, click_times_s=(2.5, 5.0, 7.5))
    mix, _ = mix_at_snr(synth_click(RATE, 5), factory_noise(cfg), cfg)
    write_wav(mix, tmp_path / "mix.wav")
    write_wav(synth_click(RATE, 6), tmp_path / "click.wav")

    def decode(self):
        raise AssertionError("a library path decoded a buffer's samples")

    monkeypatch.setattr(SampleBuffer, "samples", property(decode))
    noise, click = read_wav(tmp_path / "mix.wav"), read_wav(tmp_path / "click.wav")
    assert noise._array.dtype == click._array.dtype == np.int16
    assert [e.label for e in ClickDetector().predict(noise)].count("connection_click") == 3
    band_powers(noise, BANDS)
    frame_band_powers(stft(noise, 1024, 256), BANDS)
    spectrogram_image(stft(noise, 1024, 256), tmp_path / "mix.pgm")
    apply_shroud(noise, 0.3)
    mix_at_snr(click, noise, SimConfig(seed=6, duration_s=10.0, click_times_s=(3.0, 6.0)))
    assert slice_buffer(noise, 1.0, 2.0)._array.dtype == np.int16
    write_wav(noise, tmp_path / "copy.wav")
    assert (tmp_path / "copy.wav").read_bytes() == (tmp_path / "mix.wav").read_bytes()


@pytest.fixture(scope="module")
def long_noise(tmp_path_factory):
    """Factory-like 16-bit noise files of 120 s and 240 s."""
    out = tmp_path_factory.mktemp("long")
    noise = 0.05 * 32768 * np.random.default_rng(12).standard_normal(240 * RATE, dtype=np.float32)
    return [wav_of_codes(out / f"{seconds}.wav", noise[: seconds * RATE]) for seconds in (120, 240)]


def test_read_and_predict_hold_two_bytes_a_sample(long_noise):
    # Float32 samples held 2 bytes a sample more: 11.5 MB more at 120 s and
    # 23 MB more at 240 s, besides detection's own memory.
    for path in long_noise:
        tracemalloc.start()
        try:
            buffer = read_wav(path)
            ClickDetector().predict(buffer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 2 * len(buffer) < 12e6, (path.name, peak)
