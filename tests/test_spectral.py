import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from clickdetect import spectral
from clickdetect.audio_io import SampleBuffer
from clickdetect.detector import ClickDetector
from clickdetect.soundscape import SimConfig, pink_noise
from clickdetect.spectral import (
    _STFT_BLOCK_SAMPLES,
    Band,
    Spectrogram,
    _hann,
    band_powers,
    frame_band_powers,
    spectrogram_image,
    stft,
    third_octave_bands,
)

from conftest import RATE, blocked_power, power_matrix, tone


def naive_windowed_dft_power(frame: np.ndarray) -> np.ndarray:
    """O(N^2) DFT oracle: one-sided power of a Hann-windowed frame."""
    n = frame.size
    x = frame * _hann(n)
    k = np.arange(n // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)
    power = np.abs(basis @ x) ** 2
    power[1:-1] *= 2
    return power


class TestStft:
    def test_pure_tone_peak_bin(self):
        # oracle: round(1000 * 1024 / 48000) = 21, confirmed by direct DFT
        buf = tone(1000.0, 0.5)
        spec = stft(buf, 1024, 256)
        assert spec.n_bins == 513
        power = blocked_power(spec)
        assert (power.argmax(axis=1) == 21).all()
        oracle = naive_windowed_dft_power(buf.samples[:1024])
        assert oracle.argmax() == 21
        np.testing.assert_allclose(power[0], oracle, rtol=1e-8, atol=1e-9)

    def test_zero_buffer_gives_zero_power(self):
        spec = stft(SampleBuffer(np.zeros(4096), RATE), 1024, 256)
        assert not blocked_power(spec).any()

    def test_frame_count_formula(self):
        spec = stft(SampleBuffer(np.zeros(10000), RATE), 1024, 256)
        assert spec.n_frames == (10000 - 1024) // 256 + 1

    def test_parseval_with_overlap_correction(self, rng):
        w = _hann(1024)
        correction = 256 / (1024 * float(w @ w))
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = 0.05 * r.standard_normal(6 * RATE)
            spec = stft(SampleBuffer(x, RATE), 1024, 256)
            estimate = blocked_power(spec).sum() * correction
            assert abs(estimate / (x @ x) - 1) < 0.01

    def test_deterministic(self, rng):
        x = SampleBuffer(0.1 * rng.standard_normal(RATE), RATE)
        a = blocked_power(stft(x, 1024, 256))
        b = blocked_power(stft(x, 1024, 256))
        assert (a == b).all()

    def test_blocked_transform_matches_one_shot(self, rng, monkeypatch):
        # Enough frames for several FFT blocks and a partial last one.
        n_frames = 3 * (_STFT_BLOCK_SAMPLES // 1024) + 7
        x = 0.1 * rng.standard_normal(1024 + 256 * (n_frames - 1) + 100)
        spec = stft(SampleBuffer(x, RATE), 1024, 256)
        assert spec.n_frames == n_frames
        for workers in (1, 2, 3):
            monkeypatch.setattr(spectral, "_usable_cpus", lambda: workers)
            assert np.array_equal(blocked_power(spec), power_matrix(spec))

    def test_rejects_bad_window_or_short_buffer(self):
        buf = SampleBuffer(np.zeros(4096), RATE)
        with pytest.raises(ValueError):
            stft(buf, 1000, 256)  # not a power of two
        with pytest.raises(ValueError):
            stft(buf, 32, 8)  # too small
        with pytest.raises(ValueError):
            stft(buf, 1024, 0)
        with pytest.raises(ValueError):
            stft(SampleBuffer(np.zeros(512), RATE), 1024, 256)

    @pytest.mark.parametrize(
        "samples, hop, window_len",
        [
            (np.zeros(4096), 256, 1000),
            (np.zeros(4096), 8, 32),
            (np.zeros(4096), 0, 1024),
            (np.zeros(4096), 1025, 1024),
            (np.zeros(1023), 256, 1024),
        ],
        ids=["not_power_of_two", "window_below_64", "zero_hop", "hop_over_window", "shorter_than_window"],
    )
    def test_direct_construction_checks(self, samples, hop, window_len):
        buf = SampleBuffer(samples, RATE)
        with pytest.raises(ValueError):
            Spectrogram(buf, hop, window_len)

    def test_shares_buffer_samples_and_builds_power_lazily(self, rng):
        buf = SampleBuffer(0.1 * rng.standard_normal(RATE), RATE)
        spec = stft(buf, 1024, 256)
        assert spec.buffer is buf
        assert spec.sample_rate_hz == RATE
        frame_band_powers(spec, third_octave_bands(100, 20000))
        # Power exists only block by block while it is consumed.
        assert set(vars(spec)) == {"buffer", "hop", "window_len"}


class TestThirdOctaveBands:
    def test_single_band_around_reference(self):
        bands = third_octave_bands(900, 1100)
        assert len(bands) == 1
        assert bands[0].center_hz == 1000.0

    def test_reference_edges_closed_form(self):
        band = third_octave_bands(900, 1100)[0]
        assert band.lower_hz == pytest.approx(1000 * 2 ** (-1 / 6), abs=1e-9)
        assert band.upper_hz == pytest.approx(1000 * 2 ** (1 / 6), abs=1e-9)

    def test_audible_range_matches_enumeration_oracle(self):
        # oracle: enumerate n with 20 <= 1000*2^(n/3) <= 20000 -> n in [-16, 12]
        expected = [1000.0 * 2.0 ** (n / 3.0) for n in range(-16, 13)]
        bands = third_octave_bands(20, 20000)
        assert len(bands) == 29
        np.testing.assert_allclose([b.center_hz for b in bands], expected, rtol=1e-12)
        assert any(b.center_hz == 1000.0 for b in bands)

    def test_bands_contiguous_and_increasing(self):
        bands = third_octave_bands(50, 16000)
        for a, b in zip(bands, bands[1:]):
            assert b.center_hz > a.center_hz
            assert b.lower_hz == pytest.approx(a.upper_hz, rel=1e-12)

    def test_empty_range_is_error(self):
        with pytest.raises(ValueError, match="no 1/3-octave center"):
            third_octave_bands(1001, 1100)
        with pytest.raises(ValueError):
            third_octave_bands(100, 50)


class TestBandPowers:
    def test_sine_concentrates_in_its_band(self):
        buf = tone(1000.0, 2.0)
        bands = third_octave_bands(100, 20000)
        profile = band_powers(buf, bands)
        top = int(np.argmax(profile.power_db))
        assert profile.bands[top].center_hz == 1000.0
        for neighbor in (top - 1, top + 1):
            assert profile.power_db[top] - profile.power_db[neighbor] >= 40.0

    def test_white_noise_slope_per_band(self, rng):
        x = SampleBuffer(0.02 * rng.standard_normal(16 * RATE), RATE)
        profile = band_powers(x, third_octave_bands(20, 20000))
        picked = [(i, b) for i, b in enumerate(profile.bands) if 100 <= b.center_hz <= 10000]
        y = np.array([profile.power_db[i] for i, _ in picked])
        slope = np.polyfit(np.arange(len(y)), y, 1)[0]
        assert slope == pytest.approx(10 * math.log10(2) / 3, abs=0.5)

    def test_pink_noise_band_flatness(self):
        buf = pink_noise(SimConfig(seed=2, duration_s=16.0))
        profile = band_powers(buf, third_octave_bands(20, 20000))
        y = [db for b, db in zip(profile.bands, profile.power_db) if 100 <= b.center_hz <= 10000]
        mid = (max(y) + min(y)) / 2
        assert all(abs(v - mid) <= 1.5 for v in y)

    def test_scale_covariance(self, rng):
        x = 0.04 * rng.standard_normal(2 * RATE)
        bands = third_octave_bands(100, 20000)
        base = band_powers(SampleBuffer(x, RATE), bands).power_db
        scaled = band_powers(SampleBuffer(0.25 * x, RATE), bands).power_db
        np.testing.assert_allclose(scaled - base, 20 * math.log10(0.25), atol=1e-9)

    def test_bins_partition_without_double_counting(self, rng):
        x = 0.1 * rng.standard_normal(RATE)
        buf = SampleBuffer(x, RATE)
        bands = third_octave_bands(100, 20000)
        profile = band_powers(buf, bands)
        total_in_bands = np.sum(10 ** (profile.power_db / 10))
        n = x.size
        spectrum = np.abs(np.fft.rfft(x)) ** 2 / (n * n)
        spectrum[1:-1] *= 2
        freqs = np.arange(spectrum.size) * (RATE / n)
        lo = profile.bands[0].lower_hz
        hi = profile.bands[-1].upper_hz
        covered = spectrum[(freqs >= lo) & (freqs < hi)].sum()
        assert total_in_bands == pytest.approx(covered, rel=1e-9)

    @pytest.mark.parametrize("n", [RATE, RATE + 1])
    def test_each_band_matches_a_slice_sum(self, rng, n):
        # The per-band slice loop band_powers used to run is the reference; the
        # band summer adds in another order, so agreement is to rounding.
        x = 0.1 * rng.standard_normal(n)
        nyquist = RATE / 2
        # an odd length puts the last band's upper edge past the top bin; the first band has no bin
        bands = [Band(0.3, 0.2, 0.4)] + third_octave_bands(20, nyquist) + [Band(23000.0, 22500.0, nyquist)]
        profile = band_powers(SampleBuffer(x, RATE), bands)
        spectrum = np.abs(np.fft.rfft(x)) ** 2 / (n * n)
        spectrum[1 : spectrum.size - (n % 2 == 0)] *= 2
        freqs = np.arange(spectrum.size) * (RATE / n)
        expected = [
            10 * math.log10(max(spectrum[(freqs >= b.lower_hz) & (freqs < b.upper_hz)].sum(), 1e-30))
            for b in profile.bands
        ]
        assert profile.bands == tuple(bands)
        np.testing.assert_allclose(profile.power_db, expected, rtol=0, atol=1e-9)
        assert profile.power_db[0] == -300.0

    def test_band_above_nyquist_absent_not_zero(self, rng):
        x = SampleBuffer(0.1 * rng.standard_normal(2 * 16000), 16000)
        bands = third_octave_bands(100, 30000)
        profile = band_powers(x, bands)
        assert all(b.upper_hz <= 8000 * (1 + 1e-9) for b in profile.bands)
        assert len(profile.bands) < len(bands)

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="1 s"):
            band_powers(SampleBuffer(np.zeros(RATE // 2), RATE), third_octave_bands(100, 10000))

    def test_csv_format(self):
        profile = band_powers(tone(1000.0, 1.0), third_octave_bands(900, 1100))
        lines = profile.as_csv().strip().splitlines()
        assert lines[0] == "center_hz,power_db"
        assert lines[1].startswith("1000,")


class TestFrameBandPowers:
    def test_white_noise_level_calibration(self, rng):
        # normalized so summed band power approximates the signal variance
        # over the covered spectrum (bands span ~113 Hz .. 22.6 kHz of 24 kHz)
        sigma = 0.05
        x = SampleBuffer(sigma * rng.standard_normal(4 * RATE), RATE)
        bands = third_octave_bands(100, 20000)
        fbp = frame_band_powers(stft(x, 1024, 256), bands)
        total = fbp.sum(axis=1).mean()
        covered = (bands[-1].upper_hz - bands[0].lower_hz) / (RATE / 2)
        assert total == pytest.approx(sigma**2 * covered, rel=0.05)

    @pytest.mark.parametrize("window_len", [256, 512, 1024])
    @pytest.mark.parametrize("rate", [16000, 44100, 48000, 96000])
    def test_blocked_matches_full_power_matmul(self, rate, window_len, rng):
        hop = window_len // 4
        block = _STFT_BLOCK_SAMPLES // window_len
        bin_hz = rate / window_len
        # Edges on bin centers: the lower edge's bin belongs, the upper edge's does not.
        # The bands sum half the power and double the sums, bit for bit the
        # sums of the doubled power, also for a band holding DC or Nyquist.
        bands = third_octave_bands(100, rate / 2) + [
            Band(5 * bin_hz, 3 * bin_hz, 9 * bin_hz),
            Band(rate / 3, rate / 4, 0.51 * rate),  # reaches the Nyquist bin
            Band(bin_hz, 0.0, 3 * bin_hz),  # holds the DC bin
        ]
        w = _hann(window_len)
        norm = window_len * float(np.sum(w**2))
        for n_frames in (1, 2, block - 1, block, block + 1, 2 * block + 1):
            x = 0.1 * rng.standard_normal(window_len + hop * (n_frames - 1))
            spec = stft(SampleBuffer(x, rate), window_len, hop)
            assert spec.n_frames == n_frames
            freqs = spec.bin_frequencies_hz
            power = power_matrix(spec)
            columns = np.zeros((spec.n_bins, len(bands)))
            summed = np.zeros((n_frames, len(bands)))
            for i, band in enumerate(bands):
                members = np.flatnonzero((freqs >= band.lower_hz) & (freqs < band.upper_hz))
                columns[members, i] = 1.0
                if members.size:
                    j0, j1 = members[0], members[-1] + 1
                    assert members.size == j1 - j0
                    summed[:, i] = np.add.reduceat(power[:, :j1], [j0], axis=1)[:, 0]
            blocked = frame_band_powers(spec, bands)
            # Bitwise: each band is the whole matrix's sum over its own bins.
            assert np.array_equal(blocked, summed / norm)
            # Band membership and normalisation, against the 0/1 band matrix.
            np.testing.assert_allclose(blocked, power @ columns / norm, rtol=1e-12)


    @pytest.mark.parametrize("window_len", [256, 1024])
    def test_frame_range_is_a_slice_of_the_whole(self, rng, window_len):
        # Any range, blocks or not, gives the whole matrix's rows bit for bit.
        hop = window_len // 4
        block = _STFT_BLOCK_SAMPLES // window_len
        spec = stft(SampleBuffer(0.1 * rng.standard_normal(hop * (3 * block + 6) + window_len), RATE), window_len, hop)
        bands = third_octave_bands(100, RATE / 2)
        whole = frame_band_powers(spec, bands)
        T = spec.n_frames
        for start, stop in [(0, 1), (T - 1, T), (1, block + 2), (block - 1, 2 * block + 1), (5, T), (0, T)]:
            assert np.array_equal(frame_band_powers(spec, bands, start, stop), whole[start:stop]), (start, stop)
        assert np.array_equal(frame_band_powers(spec, bands, T - 3), whole[T - 3 :])

    def test_a_pool_gives_the_same_rows_in_any_order(self, rng, monkeypatch):
        # Consecutive and out-of-order ranges on one pool: every range holds
        # the whole matrix's rows. More workers than CPUs, switching often: a
        # block taken by two threads, or by none, would show as a wrong row
        # or a hang.
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 4)
        spec = stft(SampleBuffer(0.1 * rng.standard_normal(1024 * 999 + 4096), RATE), 4096, 1024)
        assert spec.n_frames == 1000  # blocks of 32 frames
        bands = third_octave_bands(100, RATE / 2)
        whole = frame_band_powers(spec, bands)
        ranges = [(a, a + 100) for a in range(0, 1000, 100)] + [(1, 5), (5, 9), (300, 333), (333, 366)]
        got = []

        def take_in_order():
            with spectral._power_pool() as pool:
                for start, stop in ranges:
                    got.append(frame_band_powers(spec, bands, start, stop, pool=pool))

        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(target=take_in_order)
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert threading.active_count() == before
        assert len(got) == len(ranges)
        for (start, stop), rows in zip(ranges, got):
            assert np.array_equal(rows, whole[start:stop]), (start, stop)

    @pytest.mark.parametrize("start, stop", [(-1, 4), (3, 3), (4, 2), (0, 10**6)])
    def test_empty_or_outside_frame_range_rejected(self, start, stop):
        spec = stft(SampleBuffer(np.zeros(8192), RATE), 1024, 256)
        with pytest.raises(ValueError, match="frame range"):
            frame_band_powers(spec, third_octave_bands(100, 20000), start, stop)

def reference_pgm(power: np.ndarray, db_floor: float) -> bytes:
    """The P5 image of a [frames x bins] power matrix, as one whole-array formula."""
    peak = float(power.max(initial=0.0))
    if peak > 0.0:
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(power / peak)
        scaled = np.clip(1.0 - db / db_floor, 0.0, 1.0)
    else:
        scaled = np.zeros_like(power)
    pixels = np.rint(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{power.shape[0]} {power.shape[1]}\n255\n".encode("ascii")
    return header + pixels.T[::-1].tobytes()


def parse_pgm(data: bytes):
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    assert magic == b"P5" and maxval == b"255"
    return w, h, np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


class TestSpectrogramImage:
    def test_zero_spectrogram_is_black(self, tmp_path):
        spec = stft(SampleBuffer(np.zeros(8192), RATE), 1024, 256)
        path = tmp_path / "zero.pgm"
        spectrogram_image(spec, path)
        w, h, img = parse_pgm(path.read_bytes())
        assert (w, h) == (spec.n_frames, spec.n_bins)
        assert not img.any()

    def test_single_saturated_cell(self, tmp_path, monkeypatch):
        # A spectrogram holds samples, so the crafted power is fed as its one block.
        spec = stft(SampleBuffer(np.zeros(4096), RATE), 1024, 256)
        power = np.zeros((spec.n_frames, spec.n_bins))
        power[3, 5] = 1.0
        monkeypatch.setattr(Spectrogram, "_map_power_blocks", lambda self, fn: [fn(0, power)])
        path = tmp_path / "cell.pgm"
        spectrogram_image(spec, path)
        w, h, img = parse_pgm(path.read_bytes())
        assert (w, h) == (spec.n_frames, spec.n_bins)
        # low frequencies at the bottom: bin 5 sits 5 rows above the last row
        assert img[h - 1 - 5, 3] == 255
        assert img.sum() == 255

    def test_dimensions_exact(self, tmp_path, rng):
        spec = stft(SampleBuffer(0.1 * rng.standard_normal(RATE), RATE), 1024, 256)
        path = tmp_path / "dims.pgm"
        spectrogram_image(spec, path, db_floor=-60)
        w, h, _ = parse_pgm(path.read_bytes())
        assert (w, h) == (spec.n_frames, spec.n_bins)

    def test_positive_floor_rejected(self, tmp_path):
        spec = stft(SampleBuffer(np.zeros(4096), RATE), 1024, 256)
        for db_floor in (3.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="db_floor"):
                spectrogram_image(spec, tmp_path / "x.pgm", db_floor=db_floor)

    @pytest.mark.parametrize("window_len", [256, 1024])
    def test_blocked_image_matches_whole_array_formula(self, tmp_path, rng, window_len):
        hop = window_len // 4
        block = _STFT_BLOCK_SAMPLES // window_len
        for n_frames in (1, block - 1, block, block + 1, 2 * block + 1):
            x = 0.01 * rng.standard_normal(window_len + hop * (n_frames - 1))
            x[x.size // 2] = 0.9  # a click, so pixels span the whole scale
            spec = stft(SampleBuffer(x, RATE), window_len, hop)
            assert spec.n_frames == n_frames
            path = tmp_path / f"{n_frames}.pgm"
            spectrogram_image(spec, path, db_floor=-60.0)
            assert path.read_bytes() == reference_pgm(power_matrix(spec), -60.0)

    def test_memory_is_about_the_image(self, tmp_path, rng):
        spec = stft(SampleBuffer(0.1 * rng.standard_normal(60 * RATE), RATE), 1024, 256)
        image_bytes = spec.n_frames * spec.n_bins
        tracemalloc.start()
        try:
            spectrogram_image(spec, tmp_path / "long.pgm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= image_bytes + 16e6


def frame_counts(window_len: int) -> tuple[int, ...]:
    """One block, both sides of each block edge, and several partial last blocks."""
    block = _STFT_BLOCK_SAMPLES // window_len
    return (1, block - 1, block, block + 1, 2 * block + 1, 3 * block + 7)


class TestWorkers:
    """The power blocks are split across threads; nothing may depend on how many."""

    @pytest.mark.parametrize("window_len", [256, 1024])
    @pytest.mark.parametrize("rate", [44100, 96000])
    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, rng, monkeypatch, rate, window_len):
        hop = window_len // 4
        bands = third_octave_bands(100, rate / 2)
        detector = ClickDetector()
        lo, hi = detector.tail_band_hz
        burst = [i for i, b in enumerate(bands) if b.lower_hz >= detector.burst_low_hz]
        gated = burst + [i for i, b in enumerate(bands) if lo <= b.center_hz <= hi and i not in burst]
        for n_frames in frame_counts(window_len):
            x = 0.01 * rng.standard_normal(window_len + hop * (n_frames - 1))
            x[x.size // 3] = 0.9  # a click, so pixels span the whole scale
            spec = stft(SampleBuffer(x, rate), window_len, hop)
            assert spec.n_frames == n_frames
            powers, images = [], []
            for workers in (1, 2, 3):
                monkeypatch.setattr(spectral, "_usable_cpus", lambda: workers)
                powers.append(frame_band_powers(spec, bands))
                # Burst then tail bands, as the detector asks for them.
                assert np.array_equal(frame_band_powers(spec, [bands[i] for i in gated]), powers[-1][:, gated])
                path = tmp_path / f"{workers}.pgm"
                spectrogram_image(spec, path, db_floor=-60.0)
                images.append(path.read_bytes())
            assert all(np.array_equal(powers[0], p) for p in powers[1:])
            assert images[0] == images[1] == images[2]

    def test_no_thread_outlives_the_image(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 3)
        spec = stft(SampleBuffer(0.1 * rng.standard_normal(10 * RATE), RATE), 1024, 256)
        before = threading.active_count()
        spectrogram_image(spec, tmp_path / "x.pgm")
        assert threading.active_count() == before

    def test_a_helper_threads_error_reaches_the_caller(self, rng, monkeypatch):
        monkeypatch.setattr(spectral, "_usable_cpus", lambda: 2)
        spec = stft(SampleBuffer(0.1 * rng.standard_normal(10 * RATE), RATE), 1024, 256)
        caller = threading.get_ident()
        helper_blocks = []

        def fail_off_the_caller(start, block):
            if threading.get_ident() != caller:
                helper_blocks.append(start)
                raise ArithmeticError(f"block at frame {start}")

        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="block at frame"):
            spec._map_power_blocks(fail_off_the_caller)
        assert helper_blocks  # the error was raised on a helper thread
        assert threading.active_count() == before
