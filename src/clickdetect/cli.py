"""Single command-line entry point for the detection/synthesis pipeline.

Subcommands: detect, simulate, spectrogram, bands, depth-sweep, evaluate.
Configuration merges defaults <- config file <- --set flags (last wins); the
config file is plain ``key = value`` lines with ``#`` comments. Exit codes:
0 success, 2 I/O error, 3 configuration error, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .audio_io import WavFormatError, read_wav
from .detector import ClickDetector
from .evaluation import depth_sweep, run_benchmark
from .soundscape import ShroudModel, SimConfig, _write_clip
from .spectral import band_powers, spectrogram_image, stft, third_octave_bands

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_PRECONDITION = 4

DEFAULT_DEPTHS_M = tuple(round(0.0762 * k, 4) for k in range(9))  # 0..24 in, 3-in steps


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 3)."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [p for p in text.replace("(", "").replace(")", "").split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


_DETECTOR_DEFAULTS = ClickDetector().get_params()
_SIM_DEFAULTS = SimConfig()

#: Every signature/soundscape/model parameter reachable through config; the
#: detector's keys and parsers follow its parameters' defaults.
CONFIG_SPEC: dict[str, type | object] = {
    **{
        key: {float: float, int: int, tuple: _parse_pair}[type(default)]
        for key, default in _DETECTOR_DEFAULTS.items()
    },
    "sample_rate_hz": int,
    "duration_s": float,
    "transient_rate_hz": float,
    "target_snr_db": float,
    "seed": int,
    "clicks": int,
    "dish_diameter_m": float,
    "attenuation_db": float,
    "corner_hz": float,
    "attenuation_cap_db": float,
    "gain_cap_db": float,
}

_SHROUD_KEYS = {"dish_diameter_m", "attenuation_db", "corner_hz", "attenuation_cap_db", "gain_cap_db"}


def _parse_value(key: str, raw: str):
    parser = CONFIG_SPEC.get(key)
    if parser is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return parser(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def load_config(path: str | None, set_args: list[str] | None) -> dict:
    merged: dict = {}
    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            merged[key] = _parse_value(key, raw)
    for item in set_args or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        merged[key] = _parse_value(key, raw)
    return merged


def _detector_from(config: dict) -> ClickDetector:
    params = {k: v for k, v in config.items() if k in _DETECTOR_DEFAULTS}
    return ClickDetector(**params)


def _shroud_from(config: dict) -> ShroudModel:
    params = {k: v for k, v in config.items() if k in _SHROUD_KEYS}
    return ShroudModel(**params)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_detect(args) -> int:
    config = load_config(args.config, args.set)
    detector = _detector_from(config)
    buffer = read_wav(args.input)
    events = detector.predict(buffer)
    lines = "".join(json.dumps(e.to_json_dict()) + "\n" for e in events)
    _write_text(args.out, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.set)
    rate = args.sample_rate
    if rate is None:
        rate = config.get("sample_rate_hz", _SIM_DEFAULTS.sample_rate_hz)
    duration = args.duration if args.duration is not None else config.get("duration_s", 60.0)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    snr = args.snr_db if args.snr_db is not None else config.get("target_snr_db", _SIM_DEFAULTS.target_snr_db)
    clicks = args.clicks if args.clicks is not None else config.get("clicks", 3)
    transient_rate = config.get("transient_rate_hz", _SIM_DEFAULTS.transient_rate_hz)

    cfg = SimConfig(
        sample_rate_hz=rate, seed=seed, duration_s=duration, transient_rate_hz=transient_rate, target_snr_db=snr
    )
    out_dir = Path(args.out_dir)
    entry = _write_clip(out_dir, "mix.wav", "truth.csv", cfg, clicks)

    manifest_path = out_dir / "manifest.json"
    entries = json.loads(manifest_path.read_text()) if manifest_path.exists() else []
    entries = [e for e in entries if e.get("wav_path") != "mix.wav"] + [entry]
    manifest_path.write_text(json.dumps(entries, indent=1))
    print(f"wrote {out_dir / 'mix.wav'} ({duration:g} s, {clicks} clicks, {snr:+g} dB)")
    return EXIT_OK


def cmd_spectrogram(args) -> int:
    config = load_config(args.config, args.set)
    detector = _detector_from(config)
    buffer = read_wav(args.input)
    spec = stft(buffer, detector.window_len, detector.hop)
    spectrogram_image(spec, args.out, db_floor=args.floor_db)
    return EXIT_OK


def cmd_bands(args) -> int:
    buffer = read_wav(args.input)
    bands = third_octave_bands(20.0, buffer.sample_rate_hz / 2.0)
    profile = band_powers(buffer, bands)
    _write_text(args.out, profile.as_csv())
    return EXIT_OK


def cmd_depth_sweep(args) -> int:
    config = load_config(args.config, args.set)
    depths = DEFAULT_DEPTHS_M if args.depths is None else tuple(
        float(d) for d in args.depths.split(",") if d.strip()
    )
    cfg = SimConfig(
        sample_rate_hz=config.get("sample_rate_hz", _SIM_DEFAULTS.sample_rate_hz),
        seed=args.seed if args.seed is not None else config.get("seed", 0),
        duration_s=args.duration if args.duration is not None else config.get("duration_s", 16.0),
    )
    table = depth_sweep(_shroud_from(config), depths, cfg)
    _write_text(args.out, table.as_csv())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_config(args.config, args.set)
    detector = _detector_from(config)
    result = run_benchmark(args.manifest, detector, jobs=args.jobs)
    print(result.format_text())
    if args.json:
        Path(args.json).write_text(json.dumps(result.to_json_dict(), indent=1))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="clickdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="plain-text key = value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")

    p = sub.add_parser("detect", parents=[common], help="detect click events in a WAV file")
    p.add_argument("input")
    p.add_argument("--out", default="-", help="JSON-lines output path (default stdout)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", parents=[common], help="synthesize a factory mix with injected clicks")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--clicks", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sample-rate", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrogram", parents=[common], help="write a PGM spectrogram image")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--floor-db", type=float, default=-80.0)
    p.set_defaults(func=cmd_spectrogram)

    p = sub.add_parser("bands", parents=[common], help="print the 1/3-octave band-power CSV")
    p.add_argument("input")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("depth-sweep", parents=[common], help="band powers vs shroud inset depth (CSV)")
    p.add_argument("--depths", help="comma-separated depths in meters (default 0..0.6096 in 3-in steps)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_depth_sweep)

    p = sub.add_parser("evaluate", parents=[common], help="score detections over a corpus manifest")
    p.add_argument("manifest")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (WavFormatError, RuntimeError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
