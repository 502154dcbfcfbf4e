import dataclasses
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from clickdetect.audio_io import SampleBuffer, write_wav
from clickdetect.cli import _DEFAULTS, _SIM_KEYS, CONFIG_SPEC, _settings, build_parser, main
from clickdetect.detector import ClickDetector
from clickdetect.soundscape import ShroudModel, SimConfig, read_truth_csv

from conftest import RATE, raw_wav_bytes, tone


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def silence_wav(tmp_path):
    path = tmp_path / "silence.wav"
    write_wav(SampleBuffer(np.zeros(2 * RATE), RATE), path)
    return path


class TestDetect:
    def test_silence_gives_empty_output(self, silence_wav, tmp_path):
        out = tmp_path / "events.jsonl"
        assert run("detect", str(silence_wav), "--out", str(out)) == 0
        assert out.read_text() == ""

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run("detect", str(tmp_path / "absent.wav"))
        assert code == 2
        assert "absent.wav" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "header, field",
        [
            ({"rate": 4000}, "nSamplesPerSec"),
            ({"block_align": 0}, "nBlockAlign"),
            ({"block_align": 3}, "nBlockAlign"),
            ({"block_align": 1}, "nBlockAlign"),
        ],
    )
    def test_malformed_header_exits_2(self, tmp_path, capsys, header, field):
        path = tmp_path / "bad.wav"
        path.write_bytes(raw_wav_bytes(b"\x00" * 5, **header))
        assert run("detect", str(path)) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("rate, code", [(22050, 4), (24000, 0)])
    def test_sample_rate_floor(self, tmp_path, rate, code):
        # With default parameters the first burst band ends at 11,314 Hz, so
        # detection needs a rate of at least 22,628 Hz.
        path = tmp_path / "noise.wav"
        noise = 0.01 * np.random.default_rng(1).standard_normal(2 * rate)
        write_wav(SampleBuffer(noise, rate), path)
        assert run("detect", str(path), "--out", str(tmp_path / "events.jsonl")) == code

    def test_float_nan_sample_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.wav"
        path.write_bytes(raw_wav_bytes(struct.pack("<3f", 0.1, math.nan, 0.2), fmt=3, bits=32))
        assert run("detect", str(path)) == 2
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("onset_threshold_db", "nan"),
            ("silence_floor_db", "nan"),
            ("merge_window_s", "nan"),
            ("background_window_s", "nan"),
            ("duration_s", "nan"),
            ("duration_s", "inf"),
            ("onset_threshold_db", "inf"),
            ("tail_threshold_db", "inf"),
            ("merge_window_s", "inf"),
            ("burst_max_s", "inf"),
            ("tail_max_s", "inf"),
            ("silence_floor_db", "-inf"),
            ("band_min_hz", "inf"),
            ("tail_band_hz", "1000,inf"),
            ("dish_diameter_m", "inf"),
            ("corner_hz", "inf"),
            ("gain_cap_db", "-inf"),
            ("attenuation_cap_db", "-inf"),
        ],
    )
    def test_non_finite_setting_exits_4_naming_key(self, silence_wav, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        if key == "duration_s":
            command = ["simulate", "--out-dir", str(out)]
        elif key in _DEFAULTS and key not in ClickDetector().get_params():
            command = ["depth-sweep", "--duration", "1", "--out", str(out)]
        else:
            command = ["detect", str(silence_wav), "--out", str(out)]
        assert run(*command, "--set", f"{key}={value}") == 4
        assert key in capsys.readouterr().err
        assert not out.exists()  # no events file, so no NaN in one

    @pytest.mark.parametrize("key", ["attenuation_cap_db", "gain_cap_db"])
    def test_infinite_cap_means_no_cap(self, tmp_path, key):
        out = tmp_path / "sweep.csv"
        assert run("depth-sweep", "--duration", "1", "--depths", "0.3", "--set", f"{key}=inf", "--out", str(out)) == 0

    def test_short_buffer_exits_4(self, tmp_path):
        path = tmp_path / "blip.wav"
        write_wav(SampleBuffer(np.zeros(256), RATE), path)
        assert run("detect", str(path)) == 4

    def test_unknown_config_key_exits_3(self, silence_wav, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 12\n")
        assert run("detect", str(silence_wav), "--config", str(cfg)) == 3

    def test_bad_value_exits_3(self, silence_wav):
        assert run("detect", str(silence_wav), "--set", "onset_threshold_db=loud") == 3

    def test_bad_flag_exits_3(self, tmp_path):
        assert run("simulate", "--out-dir", str(tmp_path), "--clicks", "three") == 3

    def test_negative_click_count_exits_4_naming_clicks(self, tmp_path, capsys):
        assert run("simulate", "--out-dir", str(tmp_path / "sim"), "--clicks", "-1", "--duration", "8") == 4
        assert "clicks" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_config_file_and_set_override(self, tmp_path):
        sim_dir = tmp_path / "sim"
        assert run("simulate", "--out-dir", str(sim_dir), "--snr-db", "15",
                   "--clicks", "1", "--duration", "12", "--seed", "3") == 0
        out = tmp_path / "ev.jsonl"
        cfg = tmp_path / "detector.cfg"
        cfg.write_text("# relaxed gates\nonset_threshold_db = 6\ntail_threshold_db = 4\n")
        assert run("detect", str(sim_dir / "mix.wav"), "--config", str(cfg),
                   "--set", "onset_threshold_db=70", "--out", str(out)) == 0
        # the --set value wins over the file: a 70 dB gate removes every event
        assert out.read_text() == ""


class TestConfig:
    def test_detector_keys_parse_their_defaults(self):
        # Every config key, not only the detector's, parses its default's text.
        for key, default in _DEFAULTS.items():
            text = "1000,8000" if key == "tail_band_hz" else str(default)
            assert CONFIG_SPEC[key](text) == default, key

    def test_keys_come_from_their_owners(self):
        sim_keys = [f.name for f in dataclasses.fields(SimConfig) if f.name != "click_times_s"]
        shroud_keys = ["dish_diameter_m", "attenuation_db", "corner_hz", "attenuation_cap_db", "gain_cap_db"]
        assert list(CONFIG_SPEC) == [*ClickDetector().get_params(), *sim_keys, "clicks", *shroud_keys]
        assert len(CONFIG_SPEC) == 25
        for key in sim_keys:
            assert _DEFAULTS[key] == getattr(SimConfig, key)
        for key in shroud_keys:
            assert _DEFAULTS[key] == getattr(ShroudModel, key)

    def test_readme_lists_the_detector_defaults(self):
        # Every config key, not only the detector's, with its default.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        blocks = "".join(section.split("## File formats", 1)[0].split("```")[1::2])
        listed = {key: CONFIG_SPEC[key](raw) for key, raw in re.findall(r"(\w+) = (\S+)", blocks)}
        assert listed == _DEFAULTS

    def test_settings_precedence(self, tmp_path):
        # owners' defaults < the command's own default < config file < --set < flags
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 1\nduration_s = 20\ntarget_snr_db = 3\n")
        argv = ["simulate", "--out-dir", "x", "--config", str(cfg), "--set", "seed=2", "--set", "target_snr_db=4"]
        keys = (*_SIM_KEYS, "clicks")
        settings = _settings(build_parser().parse_args([*argv, "--snr-db", "9"]), keys, duration_s=60.0)
        assert (settings["duration_s"], settings["seed"], settings["target_snr_db"]) == (20.0, 2, 9.0)
        assert settings["transient_rate_hz"] == SimConfig.transient_rate_hz and settings["clicks"] == 3
        assert list(settings) == list(keys)
        bare = _settings(build_parser().parse_args(["simulate", "--out-dir", "x"]), keys, duration_s=60.0)
        assert bare["duration_s"] == 60.0

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("depth-sweep",), "onset_threshold_db=70"),
            (("depth-sweep",), "clicks=9"),
            (("depth-sweep",), "target_snr_db=3"),
            (("simulate", "--out-dir", "x"), "corner_hz=3"),
            (("simulate", "--out-dir", "x"), "hop=128"),
            (("spectrogram", "in.wav", "--out", "x.pgm"), "onset_threshold_db=6"),
            (("detect", "in.wav"), "seed=1"),
            (("evaluate", "m.json"), "attenuation_db=4"),
        ],
    )
    def test_key_the_command_does_not_read_exits_3(self, tmp_path, monkeypatch, capsys, argv, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(key.replace("=", " = ") + "\n")
        for option in (("--set", key), ("--config", str(cfg))):
            assert run(*argv, *option) == 3
            err = capsys.readouterr().err
            assert argv[0] in err and key.split("=")[0] in err


class TestSimulate:
    def test_zero_clicks_header_only_truth(self, tmp_path):
        assert run("simulate", "--out-dir", str(tmp_path), "--clicks", "0",
                   "--duration", "8", "--seed", "1") == 0
        assert (tmp_path / "truth.csv").read_text() == "time_s,label\n"

    def test_deterministic_wav(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert run("simulate", "--out-dir", str(d), "--snr-db", "12",
                       "--clicks", "2", "--duration", "15", "--seed", "9") == 0
        assert (a_dir / "mix.wav").read_bytes() == (b_dir / "mix.wav").read_bytes()

    def test_truth_spacing(self, tmp_path):
        assert run("simulate", "--out-dir", str(tmp_path), "--clicks", "5",
                   "--duration", "60", "--seed", "4") == 0
        truth = read_truth_csv(tmp_path / "truth.csv")
        assert len(truth.events) == 5
        times = truth.times
        assert all(b - a >= 2.0 - 1e-9 for a, b in zip(times, times[1:]))

    def test_simulate_then_detect_finds_clicks(self, tmp_path):
        assert run("simulate", "--out-dir", str(tmp_path), "--snr-db", "12",
                   "--clicks", "3", "--duration", "40", "--seed", "22") == 0
        out = tmp_path / "events.jsonl"
        assert run("detect", str(tmp_path / "mix.wav"), "--out", str(out)) == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        clicks = [e for e in events if e["label"] == "connection_click"]
        truth = read_truth_csv(tmp_path / "truth.csv")
        assert len(clicks) == 3
        for t in truth.times:
            assert any(abs(e["onset_s"] - t) <= 0.25 for e in clicks)

    def test_manifest_appends(self, tmp_path):
        assert run("simulate", "--out-dir", str(tmp_path / "one"), "--clicks", "1",
                   "--duration", "10", "--seed", "2") == 0
        entries = json.loads((tmp_path / "one" / "manifest.json").read_text())
        assert entries[0]["wav_path"] == "mix.wav"
        assert entries[0]["seed"] == 2


class TestSpectrogramAndBands:
    @pytest.mark.parametrize(
        "settings, size",
        [
            ((), ((RATE - 1024) // 256 + 1, 513)),
            (("--set", "window_len=512", "--set", "hop=128"), ((RATE - 512) // 128 + 1, 257)),
        ],
        ids=["defaults", "window_len_512"],
    )
    def test_spectrogram_dimensions(self, tmp_path, settings, size):
        wav = tmp_path / "tone.wav"
        write_wav(tone(1000.0, 1.0, 0.5), wav)
        img = tmp_path / "spec.pgm"
        assert run("spectrogram", str(wav), "--out", str(img), "--floor-db", "-70", *settings) == 0
        header = img.read_bytes().split(b"\n", 3)
        w, h = (int(v) for v in header[1].split())
        assert (w, h) == size

    @pytest.mark.parametrize("option", [("--set", "frobnicate=1"), ("--config", "any.cfg")])
    def test_bands_takes_no_config(self, silence_wav, option):
        assert run("bands", str(silence_wav), *option) == 3

    def test_bands_peak_row_is_1khz(self, tmp_path, capsys):
        wav = tmp_path / "tone.wav"
        write_wav(tone(1000.0, 2.0, 0.5), wav)
        assert run("bands", str(wav)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "center_hz,power_db"
        rows = [line.split(",") for line in lines[1:]]
        best = max(rows, key=lambda r: float(r[1]))
        assert best[0] == "1000"


class TestDepthSweepCommand:
    def test_default_nine_columns_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("depth-sweep", "--duration", "4", "--seed", "2", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert len(header) == 10  # center_hz + 9 depths
        for line in lines[1:]:
            cells = line.split(",")
            center = float(cells[0])
            values = [float(v) for v in cells[1:]]
            if center > 500:
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_seed_and_duration_from_config(self, tmp_path):
        def sweep(name, *argv):
            out = tmp_path / name
            assert run("depth-sweep", "--depths", "0,0.3", *argv, "--out", str(out)) == 0
            return out.read_text()

        flags = sweep("flags.csv", "--seed", "5", "--duration", "4")
        assert sweep("config.csv", "--set", "seed=5", "--set", "duration_s=4") == flags
        assert sweep("override.csv", "--seed", "5", "--duration", "4", "--set", "seed=6") == flags
        assert sweep("default_seed.csv", "--duration", "4") != flags
        assert sweep("default_duration.csv", "--seed", "5") != flags


class TestEvaluateCommand:
    def test_evaluate_prints_report(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run("simulate", "--out-dir", str(sim), "--snr-db", "15",
                   "--clicks", "2", "--duration", "20", "--seed", "8") == 0
        json_out = tmp_path / "report.json"
        assert run("evaluate", str(sim / "manifest.json"), "--jobs", "1",
                   "--json", str(json_out)) == 0
        text = capsys.readouterr().out
        assert "overall" in text
        blob = json.loads(json_out.read_text())
        assert blob["aggregate"]["true_positives"] == 2
        assert blob["aggregate"]["accuracy"] == 1.0

    def test_missing_manifest_exits_2(self, tmp_path):
        assert run("evaluate", str(tmp_path / "nope.json")) == 2

    def test_malformed_manifest_exits_4(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"wav_path": "x.wav"}]))
        assert run("evaluate", str(manifest)) == 4
        assert "truth_path" in capsys.readouterr().err
