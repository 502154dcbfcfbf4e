"""Single command-line entry point for the detection/synthesis pipeline.

Subcommands: detect, simulate, spectrogram, bands, depth-sweep, evaluate.
Settings merge defaults <- config file <- --set <- a command's flags (last
wins); the config file is plain ``key = value`` lines with ``#`` comments.
Each command accepts only the keys it reads.
Exit codes: 0 success, 2 I/O error, 3 configuration error, 4 precondition
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
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


_DETECTOR_KEYS = tuple(ClickDetector().get_params())
_SIM_KEYS = tuple(field.name for field in fields(SimConfig) if field.name != "click_times_s")
_SHROUD_KEYS = ("dish_diameter_m", "attenuation_db", "corner_hz", "attenuation_cap_db", "gain_cap_db")

#: Every config key and its default, read from the key's owner: the detector's
#: parameters, the soundscape's knobs, the CLI's own click count and the
#: shroud model's fields.
_DEFAULTS: dict = {
    **ClickDetector().get_params(),
    **{key: getattr(SimConfig, key) for key in _SIM_KEYS},
    "clicks": 3,
    **{key: getattr(ShroudModel, key) for key in _SHROUD_KEYS},
}

#: Each config key's parser, picked by the type of its default.
CONFIG_SPEC: dict[str, type | object] = {
    key: {float: float, int: int, tuple: _parse_pair}[type(default)] for key, default in _DEFAULTS.items()
}


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


def _settings(args, keys, **command_defaults) -> dict:
    """The value of each of the command's config ``keys``, the last source
    winning: the owners' defaults, ``command_defaults``, the config file,
    ``--set``, then the command's flags, each of which stores under its key.
    Any other key in the config file or ``--set`` is a config error."""
    configured = load_config(args.config, args.set)
    for key in configured:
        if key not in keys:
            raise ConfigError(f"{args.command} does not read configuration key {key!r}")
    settings = {key: _DEFAULTS[key] for key in keys} | command_defaults | configured
    flags = {key: getattr(args, key, None) for key in keys}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    return settings


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_detect(args) -> int:
    detector = ClickDetector(**_settings(args, _DETECTOR_KEYS))
    buffer = read_wav(args.input)
    events = detector.predict(buffer)
    lines = "".join(json.dumps(e.to_json_dict()) + "\n" for e in events)
    _write_text(args.out, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    settings = _settings(args, (*_SIM_KEYS, "clicks"), duration_s=60.0)
    clicks = settings.pop("clicks")
    cfg = SimConfig(**settings)
    out_dir = Path(args.out_dir)
    entry = _write_clip(out_dir, "mix.wav", "truth.csv", cfg, clicks)

    manifest_path = out_dir / "manifest.json"
    entries = json.loads(manifest_path.read_text()) if manifest_path.exists() else []
    entries = [e for e in entries if e.get("wav_path") != "mix.wav"] + [entry]
    manifest_path.write_text(json.dumps(entries, indent=1))
    print(f"wrote {out_dir / 'mix.wav'} ({cfg.duration_s:g} s, {clicks} clicks, {cfg.target_snr_db:+g} dB)")
    return EXIT_OK


def cmd_spectrogram(args) -> int:
    settings = _settings(args, ("window_len", "hop"))
    buffer = read_wav(args.input)
    spec = stft(buffer, settings["window_len"], settings["hop"])
    spectrogram_image(spec, args.out, db_floor=args.floor_db)
    return EXIT_OK


def cmd_bands(args) -> int:
    buffer = read_wav(args.input)
    bands = third_octave_bands(20.0, buffer.sample_rate_hz / 2.0)
    profile = band_powers(buffer, bands)
    _write_text(args.out, profile.as_csv())
    return EXIT_OK


def cmd_depth_sweep(args) -> int:
    # pink_noise reads only the rate, the seed and the duration of its SimConfig.
    settings = _settings(args, ("sample_rate_hz", "seed", "duration_s", *_SHROUD_KEYS), duration_s=16.0)
    depths = DEFAULT_DEPTHS_M if args.depths is None else tuple(
        float(d) for d in args.depths.split(",") if d.strip()
    )
    model = ShroudModel(**{key: settings.pop(key) for key in _SHROUD_KEYS})
    table = depth_sweep(model, depths, SimConfig(**settings))
    _write_text(args.out, table.as_csv())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    detector = ClickDetector(**_settings(args, _DETECTOR_KEYS))
    result = run_benchmark(args.manifest, detector, jobs=args.jobs)
    print(result.format_text())
    if args.json:
        Path(args.json).write_text(json.dumps(result.to_json_dict(), indent=1))
    return EXIT_OK


def _aliases(parser, *pairs: tuple[str, str]) -> None:
    """Add each ``(flag, key)`` flag as an alias of config key ``key``: the
    key's parser reads it, and its value overrides the config's."""
    for flag, key in pairs:
        parser.add_argument(flag, dest=key, type=CONFIG_SPEC[key])


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
    _aliases(p, ("--snr-db", "target_snr_db"), ("--clicks", "clicks"), ("--duration", "duration_s"),
             ("--seed", "seed"), ("--sample-rate", "sample_rate_hz"))
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrogram", parents=[common], help="write a PGM spectrogram image")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--floor-db", type=float, default=-80.0)
    p.set_defaults(func=cmd_spectrogram)

    p = sub.add_parser("bands", help="print the 1/3-octave band-power CSV")
    p.add_argument("input")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("depth-sweep", parents=[common], help="band powers vs shroud inset depth (CSV)")
    p.add_argument("--depths", help="comma-separated depths in meters (default 0..0.6096 in 3-in steps)")
    _aliases(p, ("--seed", "seed"), ("--duration", "duration_s"))
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
    except (WavFormatError, RuntimeError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
