"""Command-line front end.

Commands::

    link-budget   round-trip transmissivity from reader geometry
    channel       build a channel (two-path, clutter, or fading draw)
    decompose     factor a unitary matrix file into a beam-splitter mesh
    ber           Chernoff bit-error-rate table over a mode-count grid
    sweep         rank sweep of paired/eigen mode gains, CSV outputs
    oracle        Gaussian moment-propagation cross-checks

Configuration comes from an optional ``--config`` file (see
:mod:`qbclink.io` for the format) shadowed one-for-one by command-line
flags and generic ``--set key=value`` overrides.  Every run is a pure
function of its configuration: all randomness flows from the ``seed`` key.

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

import numpy as np

from . import gaussian, io, mesh, montecarlo, qi
from .channel import (
    ClutterPath,
    FadingSpec,
    LinkBudget,
    PropagationPath,
    build_clutter_channel,
    build_two_path_channel,
    round_trip_transmissivity,
    sample_double_rayleigh,
)
from .errors import ConfigError, NonUnitaryInputError
from .gaussian import run_oracle_checks  # noqa: F401  (public at this path too)


class Key(NamedTuple):
    """One config key of a command.  ``type`` is float, int, str or a converter
    ``f(name, value)``; a key without a default is required where it is read."""

    name: str
    type: object
    default: object = None
    help: str | None = None
    flag: str | None = None


def _reject_unknown(values: dict, allowed) -> None:
    for name in values:
        if name not in allowed:
            raise ConfigError(f"unknown key '{name}'")


class _Config:
    """One command's merged values; ``cfg[name]`` converts a value, or the
    key's default, to the key's type."""

    def __init__(self, keys, values: dict):
        self.keys = {key.name: key for key in keys}
        self.values = values

    def __contains__(self, name) -> bool:
        return name in self.values

    def __getitem__(self, name):
        key = self.keys[name]
        value = self.values.get(name, key.default)
        if value is None:
            raise ConfigError(f"missing required key '{name}'")
        if key.type is str:
            return str(value)
        if key.type is not float and key.type is not int:
            return key.type(name, value)
        return _number(name, key.type, value)


def _number(name: str, kind, value):
    """``value`` as ``kind`` (float or int), or a ConfigError naming key ``name``."""
    noun = "a number" if kind is float else "an integer"
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"key '{name}' must be {noun}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key '{name}' must be {noun}, got {value!r}") from None


def _merge_config(args, keys) -> _Config:
    """Config file < named flags < --set overrides; only ``keys`` may appear."""
    values = io.load_config(args.config) if args.config else {}
    for key in keys:
        if key.flag and getattr(args, key.name) is not None:
            values[key.name] = getattr(args, key.name)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        name, raw = item.split("=", 1)
        values[name.strip()] = io.parse_scalar(raw)
    cfg = _Config(keys, values)
    _reject_unknown(values, cfg.keys)
    return cfg


def _parse_ranks(name: str, value) -> tuple:
    if isinstance(value, int):
        return (value,)
    text = str(value).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            return tuple(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ConfigError(f"bad rank range {text!r}") from None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(
            f"key '{name}' must be 'a..b' or a comma list, got {text!r}"
        ) from None


def _integer(low: int, high: int | None = None, bound: str | None = None):
    """Converter for an integer key of at least ``low`` and, when given, at
    most ``high``; ``bound`` words the range in the error message."""

    def convert(name, value):
        number = _number(name, int, value)
        if number < low or (high is not None and number > high):
            raise ConfigError(
                f"key '{name}' must {bound or f'be at least {low}'}, got {number}"
            )
        return number

    return convert


# the range of a fading spec and of the block seeder
_seed = _integer(0, 2**64 - 1, "lie in [0, 2**64 - 1]")
_count = _integer(1)


def _choice(enum_type, what: str, fold_case: bool = False):
    """Converter looking an ``enum_type`` member up by its value."""
    members = {member.value: member for member in enum_type}

    def convert(name, value):
        text = str(value).lower() if fold_case else str(value)
        if text not in members:
            raise ConfigError(
                f"unknown {what} {value!r}; choose from {sorted(members)}"
            )
        return members[text]

    return convert


def _path_list(factory, fields):
    """Converter for a list of path tables, each giving every float field."""

    def convert(name, value):
        if not isinstance(value, list):
            raise ConfigError(f"key '{name}' must be a list of path tables")
        paths = []
        for i, entry in enumerate(value):
            where = f"{name}[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{where} must be a table of path keys")
            _reject_unknown(entry, fields)
            numbers = []
            for field in fields:
                if field not in entry:
                    raise ConfigError(f"{where}: missing required key '{field}'")
                numbers.append(_number(f"{where}.{field}", float, entry[field]))
            paths.append(factory(*numbers))
        return paths

    return convert


# -- key tables ---------------------------------------------------------------

_LINK_BUDGET_KEYS = (
    Key("g", float, help="antenna gain (linear)", flag="--g"),
    Key("omega", float, help="angular frequency (rad/s)", flag="--omega"),
    Key("sigma_q", float, help="tag cross-section (m^2)", flag="--sigma-q"),
    Key("rt", float, help="transmitter-to-tag distance (m)", flag="--rt"),
    Key("rr", float, help="tag-to-receiver distance (m)", flag="--rr"),
)

_CLUTTER_FIELDS = ("eta", "phase", "omega_b", "omega")
_CHANNEL_KEYS = (
    Key("nt", int, flag="--nt"),
    Key("nr", int, flag="--nr"),
    Key("eta", float, flag="--eta"),
    Key("seed", _seed, flag="--seed"),
    Key("ns", float, flag="--ns"),
    Key("nz", float, flag="--nz"),
    Key("kind", str, help="channel kind: two_path, clutter, fading", flag="--channel"),
    Key("nb", int),
    Key("spacing", float),
    Key("draw", _integer(0), 0),
    Key("modes", float, 1e9),
    Key("paths", _path_list(PropagationPath, ("eta", "phase", "omega_r", "omega_t"))),
    Key("tx_paths", _path_list(ClutterPath, _CLUTTER_FIELDS)),
    Key("rx_paths", _path_list(ClutterPath, _CLUTTER_FIELDS)),
)
# the keys each channel kind accepts; eta, ns and nz add a protocol report
_REPORT_KEYS = {"kind", "eta", "ns", "nz", "modes"}
_CHANNEL_KINDS = {
    "two_path": _REPORT_KEYS | {"spacing", "paths"},
    "clutter": _REPORT_KEYS | {"spacing", "nt", "nb", "nr", "tx_paths", "rx_paths"},
    "fading": _REPORT_KEYS | {"nt", "nr", "nb", "seed", "draw"},
}

_BER_KEYS = (
    Key("eta", float, 1e-5, flag="--eta"),
    Key("ns", float, 0.01, flag="--ns"),
    Key("nz", float, 100.0, flag="--nz"),
    Key("receiver", _choice(qi.Receiver, "receiver", fold_case=True),
        help="classical, guha, or zhuang", flag="--receiver"),
    Key("m_min", float, 1e6),
    Key("m_max", float, 1e10),
    Key("m_points", int, 25),
)

_SWEEP_KEYS = (
    Key("nt", int, 8, flag="--nt"),
    Key("nr", int, 8, flag="--nr"),
    Key("ranks", _parse_ranks, help="'a..b' or comma list", flag="--ranks"),
    Key("eta", float, 1e-5, flag="--eta"),
    Key("ns", float, 0.01, flag="--ns"),
    Key("nz", float, 100.0, flag="--nz"),
    Key("trials", _count, 10_000, flag="--trials"),
    Key("seed", _seed, 0, flag="--seed"),
    Key("channel", _choice(montecarlo.ChannelKind, "channel kind"), "double-rayleigh",
        help="deterministic or double-rayleigh", flag="--channel"),
    Key("workers", int, 1),
)

_ORACLE_KEYS = (
    Key("trials", _count, 100, flag="--trials"),
    Key("seed", _seed, 0, flag="--seed"),
    Key("ns", float, 0.01, flag="--ns"),
    Key("nz", float, 100.0, flag="--nz"),
    Key("max_n", _count, 8),
)


def _write_lines(path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# -- commands ---------------------------------------------------------------


def cmd_link_budget(args) -> int:
    cfg = _merge_config(args, _LINK_BUDGET_KEYS)
    # the table lists the LinkBudget fields in order
    eta = round_trip_transmissivity(LinkBudget(*(cfg[k.name] for k in _LINK_BUDGET_KEYS)))
    print(f"eta,{eta:.17g}")
    if args.out:
        _write_lines(args.out, ["eta", f"{eta:.17g}"])
    return 0


def _build_channel(cfg: _Config):
    kind = cfg["kind"]
    if kind not in _CHANNEL_KINDS:
        raise ConfigError(f"unknown channel kind {kind!r}")
    _reject_unknown(cfg.values, _CHANNEL_KINDS[kind])
    if kind == "two_path":
        return build_two_path_channel(cfg["paths"], cfg["spacing"])
    if kind == "clutter":
        return build_clutter_channel(
            cfg["tx_paths"],
            cfg["rx_paths"],
            n_tx=cfg["nt"],
            n_tag=cfg["nb"],
            n_rx=cfg["nr"],
            spacing=cfg["spacing"],
        )
    spec = FadingSpec(cfg["nt"], cfg["nr"], cfg["nb"], cfg["eta"], cfg["seed"])
    return sample_double_rayleigh(spec, cfg["draw"])


def cmd_channel(args) -> int:
    cfg = _merge_config(args, _CHANNEL_KEYS)
    cm = _build_channel(cfg)
    print(f"shape,{cm.n_rx},{cm.n_tx}")
    print(f"rank,{cm.rank}")
    print(f"spectral_norm,{cm.spectral_norm:.17g}")
    print("eta_k," + " ".join(f"{v:.17g}" for v in cm.eta))
    if "ns" in cfg and "nz" in cfg and "eta" in cfg:
        params = qi.QiParams(
            n_signal=cfg["ns"], n_thermal=cfg["nz"], modes=cfg["modes"]
        )
        print(qi.PROTOCOL_REPORT_HEADER)
        for row in qi.protocol_reports(cm, params, cfg["eta"]):
            print(row.csv_row())
    if args.out:
        io.write_matrix(args.out, cm.matrix)
    return 0


def cmd_decompose(args) -> int:
    _merge_config(args, ())  # no keys: rejects any the config or --set names
    unitary = io.read_matrix(args.input)
    try:
        result = mesh.clements_decompose(unitary)
    except NonUnitaryInputError as exc:
        print(f"residual,{exc.residual:.17g}", file=sys.stderr)
        print("error: input matrix is not unitary", file=sys.stderr)
        return 1
    rebuilt = mesh.reconstruct(result)
    residual = float(np.max(np.abs(rebuilt - unitary)))
    print(f"residual,{residual:.17g}")
    print(f"elements,{len(result.elements)}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(mesh.mesh_to_text(result))
    return 0


def cmd_ber(args) -> int:
    cfg = _merge_config(args, _BER_KEYS)
    eta = cfg["eta"]
    n_signal = cfg["ns"]
    n_thermal = cfg["nz"]
    m_min = cfg["m_min"]
    m_max = cfg["m_max"]
    m_points = cfg["m_points"]
    if m_min <= 0 or m_max < m_min or m_points < 1:
        raise ConfigError("need 0 < m_min <= m_max and m_points >= 1")

    receivers = [cfg["receiver"]] if "receiver" in cfg else list(qi.Receiver)
    grid = np.logspace(np.log10(m_min), np.log10(m_max), m_points)
    lines = ["receiver,modes,beta,ber"]
    for receiver in receivers:
        for modes in grid:
            params = qi.QiParams(
                n_signal=n_signal, n_thermal=n_thermal, modes=float(modes),
                receiver=receiver,
            )
            beta = qi.siso_snr(eta, params)
            ber = qi.chernoff_ber(beta, float(modes))
            lines.append(f"{receiver.value},{modes:.17g},{beta:.17g},{ber:.17g}")
    print("\n".join(lines))
    if args.out:
        _write_lines(args.out, lines)
    return 0


def cmd_sweep(args) -> int:
    cfg = _merge_config(args, _SWEEP_KEYS)
    n_tx = cfg["nt"]
    n_rx = cfg["nr"]
    kind = cfg["channel"]
    ranks = cfg["ranks"] if "ranks" in cfg else tuple(range(1, min(n_tx, n_rx) + 1))
    spec = montecarlo.ExperimentSpec(
        n_tx=n_tx,
        n_rx=n_rx,
        rank_sweep=ranks,
        reference_rtt=cfg["eta"],
        # mode gains are ratios of SNRs, so no sweep output depends on the
        # mode count or the receiver
        qi=qi.QiParams(n_signal=cfg["ns"], n_thermal=cfg["nz"], modes=1e9),
        trials=cfg["trials"],
        seed=cfg["seed"],
        channel_kind=kind,
    )
    # checked before any pool is built: the pool forks every worker at once
    workers = cfg["workers"]
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ConfigError(f"key 'workers' must lie in [1, {cpus}], got {workers}")
    results = montecarlo.run_rank_sweep(spec, workers=workers)

    summary = montecarlo.summary_csv_lines(kind, results)
    print("\n".join(summary))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "sweep_summary.csv"), summary)
        _write_lines(
            os.path.join(args.out, "sweep_raw.csv"),
            montecarlo.raw_csv_lines(kind, results),
        )
        _write_lines(
            os.path.join(args.out, "sweep_cdf.csv"),
            montecarlo.cdf_csv_lines(results),
        )
    return 0


def cmd_oracle(args) -> int:
    cfg = _merge_config(args, _ORACLE_KEYS)
    params = qi.QiParams(n_signal=cfg["ns"], n_thermal=cfg["nz"], modes=1e9)
    report = gaussian.run_oracle(params, cfg["trials"], cfg["seed"], cfg["max_n"])
    for name, value in report.worst.items():
        print(f"{name},{value:.17g}")
    print(f"worst_trial,{report.worst_trial}")
    print(f"worst_n,{report.worst_n}")
    print(f"ok,{str(report.ok).lower()}")
    return 0 if report.ok else 1


# -- argument parsing ---------------------------------------------------------


# (name, help, handler, key table) of every command
COMMANDS = (
    ("link-budget", "round-trip transmissivity", cmd_link_budget, _LINK_BUDGET_KEYS),
    ("channel", "build and factor a channel", cmd_channel, _CHANNEL_KEYS),
    ("decompose", "unitary to beam-splitter mesh", cmd_decompose, ()),
    ("ber", "Chernoff BER table", cmd_ber, _BER_KEYS),
    ("sweep", "rank sweep of mode gains", cmd_sweep, _SWEEP_KEYS),
    ("oracle", "moment-propagation cross-checks", cmd_oracle, _ORACLE_KEYS),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbclink",
        description="link-level simulator for multiantenna quantum backscatter",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, keys in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file path")
        p.add_argument("--out", help="output file (or directory for sweep)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        for key in keys:
            if key.flag:
                p.add_argument(
                    key.flag,
                    dest=key.name,
                    metavar=key.flag[2:].replace("-", "_").upper(),
                    type=key.type if key.type in (float, int) else None,
                    help=key.help,
                )
        p.set_defaults(func=func)
    sub.choices["decompose"].add_argument(
        "input", help="matrix text file holding the unitary"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
