"""Command-line front end.

Commands::

    link-budget   round-trip transmissivity from reader geometry
    channel       build a channel (two-path, clutter, or fading draw)
    decompose     factor a unitary matrix file into a beam-splitter mesh
    ber           Chernoff bit-error-rate table over a mode-count grid
    sweep         rank sweep of paired/eigen mode gains, CSV outputs
    oracle        Gaussian moment-propagation cross-checks

Configuration is config text in layers (see :mod:`qbclink.io`): an optional
``--config`` file, then each named flag as one ``name = value`` text, then
each ``--set key=value`` item as one text.  Every run is a pure function of
its configuration: all randomness flows from the ``seed`` key.

Exit codes: 0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import os
import sys
from typing import NamedTuple

import numpy as np

from . import io
from .errors import (
    ConfigError,
    NonPhysicalChannelError,
    NonPhysicalLinkError,
    NonUnitaryInputError,
)


def __getattr__(name):
    # gaussian defines it; public at this path too
    if name == "run_oracle_checks":
        from .gaussian import run_oracle_checks

        return run_oracle_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _resolve(path: str):
    """The object ``"module.name"`` of this package, importing the module."""
    module, name = path.split(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


class Key(NamedTuple):
    """One config key: its converter ``convert(name, value)``, and the help
    and flag of a key a command line may set by name."""

    name: str
    convert: object
    help: str | None = None
    flag: str | None = None


def _reject_unknown(values: dict, allowed) -> None:
    for name in values:
        if name not in allowed:
            raise ConfigError(f"unknown key '{name}'")


class _Config:
    """One command's merged values; ``cfg[name]`` converts a value, or the
    command's default for the key, with the key's converter."""

    def __init__(self, defaults: dict, values: dict):
        self.defaults = defaults
        self.values = values

    def __contains__(self, name) -> bool:
        return name in self.values

    def __getitem__(self, name):
        value = self.values.get(name, self.defaults[name])
        if value is None:
            raise ConfigError(f"missing required key '{name}'")
        return KEYS[name].convert(name, value)


def _merge_config(args) -> _Config:
    """File < named flags < --set items: each flag and item is one config text
    that io.parse_config layers over those before, named in its line errors;
    only the command's keys may appear."""
    texts = args.flags + args.set
    sources = [KEYS[text.split(" = ", 1)[0]].flag for text in args.flags]
    sources += [f"--set {item}" for item in args.set]
    values = (io.load_config(args.config, *texts, sources=sources) if args.config
              else io.parse_config(*texts, sources=sources))
    _reject_unknown(values, args.keys)
    return _Config(args.keys, values)


def _number(kind, low=None, high=np.inf, bound=None):
    """Converter to ``kind`` (float or int), in [``low``, ``high``] when ``low``
    is given; ``bound`` words that range in the error message."""
    noun = "a number" if kind is float else "an integer"

    def convert(name, value):
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"key '{name}' must be {noun}, got {value!r}")
        try:
            number = kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"key '{name}' must be {noun}, got {value!r}") from None
        # written as "not within", so that a NaN fails
        if low is not None and not low <= number <= high:
            raise ConfigError(f"key '{name}' must {bound or f'be at least {low}'}, got {number}")
        return number

    return convert


_real = _number(float)
_int = _number(int)
# Antennas of one array (nt, nr, nb): a fading sweep holds a stack of
# montecarlo.FADING_BLOCK draws of nr x nb, nb x nt and nr x nt complex
# entries and their SVDs; a 128 x 128 sweep of 256 trials at rank 128 peaks
# at about 360 MB RSS (2-vCPU x86-64 host).
MAX_ANTENNAS = 128
# Points of the ber grid: ber holds each receiver's rows as one text block;
# all three receivers at 10**5 points peak at about 70 MB RSS, with --out or
# without, and take about 1 s (2-vCPU x86-64 host).
MAX_M_POINTS = 10**5
_antennas = _number(int, 1, MAX_ANTENNAS, f"lie in [1, {MAX_ANTENNAS}]")


def _parse_ranks(name: str, value) -> tuple | range:
    if isinstance(value, int):
        return (value,)
    text = str(value).strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            # lazy, so that a huge range fails ExperimentSpec's bound check unbuilt
            return range(int(lo), int(hi) + 1)
        except ValueError:
            raise ConfigError(f"bad rank range {text!r}") from None
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(
            f"key '{name}' must be 'a..b' or a comma list, got {text!r}"
        ) from None


def _choice(enum_path: str, what: str, fold_case: bool = False):
    """Converter looking a member of the enum at ``enum_path`` up by its value."""

    def convert(name, value):
        members = {member.value: member for member in _resolve(enum_path)}
        text = str(value).lower() if fold_case else str(value)
        if text not in members:
            raise ConfigError(
                f"unknown {what} {value!r}; choose from {sorted(members)}"
            )
        return members[text]

    return convert


def _path_list(factory_path: str, fields):
    """Converter for a list of path tables, each giving every float field, to
    instances of the class at ``factory_path``."""

    def convert(name, value):
        if not isinstance(value, list):
            raise ConfigError(f"key '{name}' must be a list of path tables")
        factory = _resolve(factory_path)
        paths = []
        for i, entry in enumerate(value):
            where = f"{name}[{i}]"
            _reject_unknown(entry, fields)
            numbers = []
            for field in fields:
                if field not in entry:
                    raise ConfigError(f"{where}: missing required key '{field}'")
                numbers.append(_real(f"{where}.{field}", entry[field]))
            with _validating():
                paths.append(factory(*numbers))
        return paths

    return convert


# -- keys -------------------------------------------------------------------

_CLUTTER_FIELDS = ("eta", "phase", "omega_b", "omega")
# every key any command reads; a command lists its own in COMMANDS
KEYS = {key.name: key for key in (
    Key("g", _real, "antenna gain (linear)", "--g"),
    Key("omega", _real, "angular frequency (rad/s)", "--omega"),
    Key("sigma_q", _real, "tag cross-section (m^2)", "--sigma-q"),
    Key("rt", _real, "transmitter-to-tag distance (m)", "--rt"),
    Key("rr", _real, "tag-to-receiver distance (m)", "--rr"),
    Key("nt", _antennas, flag="--nt"),
    Key("nr", _antennas, flag="--nr"),
    Key("eta", _real, flag="--eta"),
    # the range of a fading spec and of a sweep spec
    Key("seed", _number(int, 0, 2**64 - 1, "lie in [0, 2**64 - 1]"), flag="--seed"),
    Key("ns", _real, flag="--ns"),
    Key("nz", _real, flag="--nz"),
    Key("kind", lambda name, value: str(value), "channel kind: two_path, clutter, fading",
        "--channel"),
    Key("nb", _antennas),
    Key("spacing", _number(float, -sys.float_info.max, sys.float_info.max, "be finite")),
    Key("draw", _number(int, 0, 2**32 - 1, "lie in [0, 2**32 - 1]")),
    Key("modes", _real),
    Key("paths", _path_list("channel.PropagationPath", ("eta", "phase", "omega_r", "omega_t"))),
    Key("tx_paths", _path_list("channel.ClutterPath", _CLUTTER_FIELDS)),
    Key("rx_paths", _path_list("channel.ClutterPath", _CLUTTER_FIELDS)),
    Key("receiver", _choice("qi.Receiver", "receiver", fold_case=True),
        "classical, guha, or zhuang", "--receiver"),
    Key("m_min", _real),
    Key("m_max", _real),
    Key("m_points", _number(int, 1, MAX_M_POINTS, f"lie in [1, {MAX_M_POINTS}]")),
    Key("ranks", _parse_ranks, "'a..b' or comma list", "--ranks"),
    Key("trials", _number(int, 1, 2**32, "lie in [1, 2**32]"), flag="--trials"),
    Key("channel", _choice("montecarlo.ChannelKind", "channel kind"),
        "deterministic or double-rayleigh", "--channel"),
    Key("workers", _int),
    Key("max_n", _number(int, 1, 64, "lie in [1, 64]")),
)}
# the keys each channel kind accepts; ns, nz, modes (and eta off fading) ask for a report
_REPORT_KEYS = {"kind", "eta", "ns", "nz", "modes"}
_CHANNEL_KINDS = {
    "two_path": _REPORT_KEYS | {"spacing", "paths"},
    "clutter": _REPORT_KEYS | {"spacing", "nt", "nb", "nr", "tx_paths", "rx_paths"},
    "fading": _REPORT_KEYS | {"nt", "nr", "nb", "seed", "draw"},
}


# lines joined per write, so a file's text is never held whole
_WRITE_CHUNK_LINES = 4096


def _write_lines(path, lines: list) -> None:
    with open(path, "w", newline="\n") as fh:
        for start in range(0, len(lines), _WRITE_CHUNK_LINES):
            fh.write("\n".join(lines[start : start + _WRITE_CHUNK_LINES]) + "\n")


# -- commands ---------------------------------------------------------------
# Each command imports the modules it runs, so it loads only those.


@contextlib.contextmanager
def _validating():
    """A ValueError the block raises is a validation failure, except a
    non-physical channel or link.  The block calls each constructor itself,
    so a warning the constructor gives points at the command's line."""
    try:
        yield
    except (NonPhysicalChannelError, NonPhysicalLinkError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_link_budget(args) -> int:
    from .channel import LinkBudget, round_trip_transmissivity

    cfg = _merge_config(args)
    # the command lists the LinkBudget fields in order
    with _validating():
        budget = LinkBudget(*(cfg[name] for name in cfg.defaults))
        eta = round_trip_transmissivity(budget)
    print(f"eta,{eta:.17g}")
    if args.out:
        _write_lines(args.out, ["eta", f"{eta:.17g}"])
    return 0


def _build_channel(cfg: _Config):
    from . import channel

    kind = cfg["kind"]
    if kind not in _CHANNEL_KINDS:
        raise ConfigError(f"unknown channel kind {kind!r}")
    _reject_unknown(cfg.values, _CHANNEL_KINDS[kind])
    if kind == "two_path":
        paths = cfg["paths"]
        if len(paths) != 2:
            raise ConfigError(f"key 'paths' must list exactly two paths, got {len(paths)}")
        with _validating():
            return channel.build_two_path_channel(paths, cfg["spacing"])
    if kind == "clutter":
        with _validating():
            return channel.build_clutter_channel(
                cfg["tx_paths"],
                cfg["rx_paths"],
                n_tx=cfg["nt"],
                n_tag=cfg["nb"],
                n_rx=cfg["nr"],
                spacing=cfg["spacing"],
            )
    with _validating():
        spec = channel.FadingSpec(cfg["nt"], cfg["nr"], cfg["nb"], cfg["eta"], cfg["seed"])
    # the sampler gives no factors; the report's values come from the full SVD
    draw = channel.sample_double_rayleigh(spec, cfg["draw"])[0]
    return channel.decompose_channel(draw.matrix)


def cmd_channel(args) -> int:
    from . import qi

    cfg = _merge_config(args)
    report = not {"ns", "nz", "modes"}.isdisjoint(cfg.values) or (
        "eta" in cfg and cfg["kind"] != "fading")
    with _validating():
        params = qi.QiParams(cfg["ns"], cfg["nz"], cfg["modes"]) if report else None
    cm = _build_channel(cfg)
    with _validating():
        rows = qi.protocol_reports(cm, params, cfg["eta"]) if report else []
    print(f"shape,{cm.n_rx},{cm.n_tx}")
    print(f"rank,{cm.rank}")
    print(f"spectral_norm,{cm.spectral_norm:.17g}")
    print("eta_k," + " ".join(f"{v:.17g}" for v in cm.eta))
    if report:
        print(qi.PROTOCOL_REPORT_HEADER)
        for row in rows:
            print(row.csv_row())
    if args.out:
        io.write_matrix(args.out, cm.matrix)
    return 0


def cmd_decompose(args) -> int:
    from . import mesh

    _merge_config(args)  # no keys: rejects any the config or --set names
    unitary = io.read_matrix(args.input)
    try:
        result, residual = mesh._decompose(unitary)
    except NonUnitaryInputError as exc:
        print(f"residual,{exc.residual:.17g}", file=sys.stderr)
        print("error: input matrix is not unitary", file=sys.stderr)
        return 1
    print(f"residual,{residual:.17g}")
    print(f"elements,{len(result.ports)}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(mesh.mesh_to_text(result))
    return 0


def cmd_ber(args) -> int:
    from . import qi

    cfg = _merge_config(args)
    eta = cfg["eta"]
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"key 'eta' must lie in [0, 1], got {eta}")
    m_min = cfg["m_min"]
    m_max = cfg["m_max"]
    m_points = cfg["m_points"]
    # written as "not within", so that a NaN fails
    if not 0 < m_min <= m_max < np.inf:
        raise ConfigError("need 0 < m_min <= m_max < inf")

    with np.errstate(over="ignore"):
        grid = np.logspace(np.log10(m_min), np.log10(m_max), m_points)
    if grid[-1] == np.inf:  # the top point: 10**log10(m_max), or of m_min at one point
        name, value = ("m_max", m_max) if m_points > 1 else ("m_min", m_min)
        raise ConfigError(f"key '{name}' must give a finite grid point "
                          f"10**log10({name}), got {value}")
    blocks = ["receiver,modes,beta,ber"]
    for receiver in [cfg["receiver"]] if "receiver" in cfg else qi.Receiver:
        with _validating():  # beta does not depend on the mode count
            beta = qi.siso_snr(eta, qi.QiParams(cfg["ns"], cfg["nz"], m_max, receiver))
            bers = qi.chernoff_ber(beta, grid)
        head, mid = f"{receiver.value},", f",{beta:.17g},"
        blocks.append("\n".join(f"{head}{m:.17g}{mid}{b:.17g}"
                                for m, b in zip(grid.tolist(), bers.tolist())))
    print(*blocks, sep="\n")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            print(*blocks, sep="\n", file=fh)
    return 0


def cmd_sweep(args) -> int:
    from . import montecarlo, qi

    cfg = _merge_config(args)
    n_tx = cfg["nt"]
    n_rx = cfg["nr"]
    kind = cfg["channel"]
    ranks = cfg["ranks"] if "ranks" in cfg else tuple(range(1, min(n_tx, n_rx) + 1))
    with _validating():
        spec = montecarlo.ExperimentSpec(
            n_tx=n_tx,
            n_rx=n_rx,
            rank_sweep=ranks,
            reference_rtt=cfg["eta"],
            # mode gains are ratios of SNRs, so no sweep output depends on the
            # mode count or the receiver
            qi=qi.QiParams(cfg["ns"], cfg["nz"], modes=1e9),
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
    from . import gaussian, qi

    cfg = _merge_config(args)
    with _validating():
        params = qi.QiParams(cfg["ns"], cfg["nz"], modes=1e9)
        gaussian._check_oracle_range(params)
    report = gaussian.run_oracle(params, cfg["trials"], cfg["seed"], cfg["max_n"])
    for name, value in report.worst.items():
        print(f"{name},{value:.17g}")
    print(f"worst_trial,{report.worst_trial}")
    print(f"worst_n,{report.worst_n}")
    print(f"ok,{str(report.ok).lower()}")
    return 0 if report.ok else 1


# -- argument parsing ---------------------------------------------------------


# (name, help, handler, {key: default, or None if required}) of every command;
# a command's flags are its keys' flags, in its order
COMMANDS = (
    ("link-budget", "round-trip transmissivity", cmd_link_budget,
     dict(g=None, omega=None, sigma_q=None, rt=None, rr=None)),
    ("channel", "build and factor a channel", cmd_channel,
     dict(nt=None, nr=None, eta=None, seed=None, ns=None, nz=None, kind=None, nb=None,
          spacing=None, draw=0, modes=1e9, paths=None, tx_paths=None, rx_paths=None)),
    ("decompose", "unitary to beam-splitter mesh", cmd_decompose, {}),
    ("ber", "Chernoff BER table", cmd_ber,
     dict(eta=1e-5, ns=0.01, nz=100.0, receiver=None, m_min=1e6, m_max=1e10, m_points=25)),
    ("sweep", "rank sweep of mode gains", cmd_sweep,
     dict(nt=8, nr=8, ranks=None, eta=1e-5, ns=0.01, nz=100.0, trials=10_000, seed=0,
          channel="double-rayleigh", workers=1)),
    ("oracle", "moment-propagation cross-checks", cmd_oracle,
     dict(trials=100, seed=0, ns=0.01, nz=100.0, max_n=8)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbclink",
        description="link-level simulator for multiantenna quantum backscatter",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, defaults in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config file path")
        p.add_argument("--out", help="output file (or directory for sweep)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        for key in map(KEYS.get, defaults):
            if key.flag:
                p.add_argument(
                    key.flag,
                    action="append", dest="flags",
                    type=f"{key.name} = {{}}".format,
                    metavar=key.flag[2:].replace("-", "_").upper(),
                    help=key.help,
                )
        p.set_defaults(func=func, keys=defaults, flags=[], set=[])
    sub.choices["decompose"].add_argument(
        "input", help="matrix text file holding the unitary"
    )
    return parser


# parsing leaves the parser as it was, so one serves every call in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
