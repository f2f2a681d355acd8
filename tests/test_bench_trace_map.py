"""The benchmark's trace map must name functions that qbclink still calls
through an import site, or ``bench/run.py --trace 1`` fails at install time.

``bench/run.py`` is loaded read-only; nothing under ``bench/`` runs.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

# every submodule, so every import site exists; ``import qbclink`` loads none
from qbclink import channel, cli, gaussian, io, mesh, montecarlo, qi, rng  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_trace_map():
    # bench/run.py imports its sibling tracer; write no bytecode under bench/
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("qbclink_bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
    return module.TRACED


TRACED = _load_trace_map()


def _import_sites(fn):
    return [
        (name, key)
        for name, module in list(sys.modules.items())
        if name == "qbclink" or name.startswith("qbclink.")
        for key, value in vars(module).items()
        if value is fn
    ]


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in TRACED], ids=[f"{m}.{a}" for m, a, _ in TRACED]
)
def test_traced_function_has_an_import_site(module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert inspect.isfunction(fn), f"{module_name}.{attr} is not a function"
    assert _import_sites(fn), f"{module_name}.{attr} has no import site in qbclink"


SWEEP_LAYERS = [
    ("qbclink.channel", "sample_double_rayleigh"),
    ("qbclink.qi", "pmimo_snr"),
    ("qbclink.qi", "pmimo_interference"),
    ("qbclink.qi", "emimo_snr"),
]


# the fading sweep reads singular values only: it must never factor a draw
UNCALLED_IN_SWEEP = ("qbclink.channel", "decompose_channel")


def test_fading_sweep_runs_through_the_traced_names(monkeypatch):
    """The sweep must reach each layer through a name the trace map wraps, or
    its span reads 0 and its time lands in ``run_rank_sweep``; and it must not
    call ``decompose_channel`` at all."""
    from qbclink.montecarlo import FADING_BLOCK, ChannelKind, ExperimentSpec, run_rank_sweep
    from qbclink.qi import QiParams

    calls = dict.fromkeys([*SWEEP_LAYERS, UNCALLED_IN_SWEEP], 0)
    for layer in calls:
        fn = getattr(importlib.import_module(layer[0]), layer[1])

        def counting(*args, _fn=fn, _layer=layer, **kwargs):
            calls[_layer] += 1
            return _fn(*args, **kwargs)

        for module_name, key in _import_sites(fn):
            monkeypatch.setattr(sys.modules[module_name], key, counting)

    spec = ExperimentSpec(
        n_tx=4, n_rx=4, rank_sweep=(1, 2), reference_rtt=1e-5,
        qi=QiParams(n_signal=0.01, n_thermal=100.0, modes=1e9),
        trials=FADING_BLOCK + 6, seed=0, channel_kind=ChannelKind.DOUBLE_RAYLEIGH,
    )
    run_rank_sweep(spec)
    assert calls.pop(UNCALLED_IN_SWEEP) == 0
    assert all(calls.values()), calls


def test_pool_class_has_its_import_site():
    """The tracer times the sweep's pool by replacing the name
    ``qbclink.montecarlo.ProcessPoolExecutor``; without that binding every
    ``--trace 1`` run fails at install time."""
    import concurrent.futures

    assert montecarlo.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert ("qbclink.montecarlo", "ProcessPoolExecutor") in _import_sites(
        concurrent.futures.ProcessPoolExecutor)
