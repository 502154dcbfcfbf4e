"""A buffer read from a 16-bit mono WAV, which keeps the file's int16 PCM codes,
its float32 copy and its float64 copy hold the same values, and give the same
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


def read_three_ways(buffer: SampleBuffer, path) -> tuple[SampleBuffer, SampleBuffer, SampleBuffer]:
    """``buffer`` written to a 16-bit WAV and read back (int16 codes), then
    copied to float32 and to float64."""
    write_wav(buffer, path)
    compact = read_wav(path)
    assert compact._array.dtype == np.int16
    single = SampleBuffer(compact.samples, compact.sample_rate_hz)
    assert single.samples.dtype == np.float32
    return compact, single, SampleBuffer(single.samples.astype(np.float64), RATE)


@pytest.fixture(scope="module")
def triple(tmp_path_factory):
    """A 10 s mix with three clicks, read from its 16-bit WAV, and its float32 and float64 copies."""
    cfg = SimConfig(seed=5, duration_s=10.0, click_times_s=(2.5, 5.0, 7.5))
    mix, _ = mix_at_snr(synth_click(RATE, 5), factory_noise(cfg), cfg)
    return read_three_ways(mix, tmp_path_factory.mktemp("dtype") / "mix.wav")


def same_bits(arrays) -> bool:
    arrays = list(arrays)
    return all(a.dtype == np.float64 for a in arrays) and len({a.tobytes() for a in arrays}) == 1


def test_frame_band_powers(triple):
    assert same_bits(frame_band_powers(stft(b, 1024, 256), BANDS) for b in triple)


def test_band_powers(triple):
    assert same_bits(band_powers(b, BANDS).power_db for b in triple)


def test_apply_shroud(triple):
    assert same_bits(apply_shroud(b, 0.3).samples for b in triple)


def test_mix_at_snr(triple, tmp_path):
    cfg = SimConfig(seed=6, duration_s=10.0, click_times_s=(3.0, 6.0))
    clicks = read_three_ways(synth_click(RATE, 6), tmp_path / "click.wav")
    assert same_bits(mix_at_snr(c, n, cfg)[0].samples for c in clicks for n in triple)
    # A float32 click whose values are not on the 16-bit grid, and its float64 copy.
    click = SampleBuffer(synth_click(RATE, 6).samples.astype(np.float32), RATE)
    widened = SampleBuffer(click.samples.astype(np.float64), RATE)
    assert np.any(np.rint(click.samples * 32768.0) != click.samples * 32768.0)
    assert same_bits(mix_at_snr(c, n, cfg)[0].samples for c in (click, widened) for n in triple)


def test_spectrogram_image(triple, tmp_path):
    paths = [tmp_path / f"{i}.pgm" for i in range(len(triple))]
    for buffer, path in zip(triple, paths):
        spectrogram_image(stft(buffer, 1024, 256), path)
    assert len({path.read_bytes() for path in paths}) == 1


def test_predict(triple):
    events = [ClickDetector().predict(b) for b in triple]
    assert [e.label for e in events[0]].count("connection_click") == 3
    assert events[1] == events[0] and events[2] == events[0]
