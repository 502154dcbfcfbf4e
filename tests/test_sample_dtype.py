"""A float32 buffer and a float64 buffer holding the same values give the same
bits from every consumer of samples: band powers, the shroud filter, mixing,
the spectrogram image and detection."""

import numpy as np
import pytest

from clickdetect.audio_io import SampleBuffer, read_wav, write_wav
from clickdetect.detector import ClickDetector
from clickdetect.soundscape import SimConfig, apply_shroud, factory_noise, mix_at_snr, synth_click
from clickdetect.spectral import band_powers, frame_band_powers, spectrogram_image, stft, third_octave_bands

from conftest import RATE

BANDS = third_octave_bands(100.0, 20000.0)


def widened(buffer: SampleBuffer) -> SampleBuffer:
    return SampleBuffer(buffer.samples.astype(np.float64), buffer.sample_rate_hz)


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """A 10 s mix with three clicks, read from its 16-bit WAV (float32), and its float64 copy."""
    cfg = SimConfig(seed=5, duration_s=10.0, click_times_s=(2.5, 5.0, 7.5))
    mix, _ = mix_at_snr(synth_click(RATE, 5), factory_noise(cfg), cfg)
    path = tmp_path_factory.mktemp("dtype") / "mix.wav"
    write_wav(mix, path)
    single = read_wav(path)
    assert single.samples.dtype == np.float32
    return single, widened(single)


def test_frame_band_powers(pair):
    single, double = (frame_band_powers(stft(b, 1024, 256), BANDS) for b in pair)
    assert single.dtype == np.float64 and single.tobytes() == double.tobytes()


def test_band_powers(pair):
    single, double = (band_powers(b, BANDS).power_db for b in pair)
    assert single.dtype == np.float64 and single.tobytes() == double.tobytes()


def test_apply_shroud(pair):
    single, double = (apply_shroud(b, 0.3).samples for b in pair)
    assert single.dtype == np.float64 and single.tobytes() == double.tobytes()


def test_mix_at_snr(pair):
    cfg = SimConfig(seed=6, duration_s=10.0, click_times_s=(3.0, 6.0))
    click = SampleBuffer(synth_click(RATE, 6).samples.astype(np.float32), RATE)
    mixes = [mix_at_snr(c, n, cfg)[0].samples for c in (click, widened(click)) for n in pair]
    assert all(m.dtype == np.float64 for m in mixes)
    assert len({m.tobytes() for m in mixes}) == 1


def test_spectrogram_image(pair, tmp_path):
    paths = [tmp_path / "single.pgm", tmp_path / "double.pgm"]
    for buffer, path in zip(pair, paths):
        spectrogram_image(stft(buffer, 1024, 256), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_predict(pair):
    single, double = (ClickDetector().predict(b) for b in pair)
    assert [e.label for e in single].count("connection_click") == 3 and single == double
