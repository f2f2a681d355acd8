"""What importing qbclink and running one command loads, and the names the
package serves without loading them up front."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbclink
from qbclink import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qbclink.__file__)))

# every public name the package re-exports, by the module that defines it
REEXPORTS = {
    "channel": [
        "ChannelMatrix", "ClutterPath", "FadingSpec", "LinkBudget", "PropagationPath",
        "SPEED_OF_LIGHT", "build_clutter_channel", "build_two_path_channel",
        "decompose_channel", "round_trip_transmissivity", "sample_double_rayleigh",
        "siso_beam_splitter", "steering_vector",
    ],
    "errors": [
        "ConfigError", "DegenerateLinkError", "NonPhysicalChannelError",
        "NonPhysicalLinkError", "NonPhysicalTransformError", "NonUnitaryInputError",
        "ProtocolMismatchError",
    ],
    "gaussian": ["GaussianState", "emimo_setup", "pmimo_setup", "propagate", "quadrature_rep"],
    "mesh": [
        "BeamSplitterMesh", "MeshElement", "clements_decompose",
        "mesh_from_text", "mesh_to_text", "reconstruct", "unitarity_residual",
    ],
    "montecarlo": [
        "ChannelKind", "DominanceReport", "EmpiricalCdf", "EnsembleResult",
        "ExperimentSpec", "deterministic_channel", "dominance_check", "empirical_cdf",
        "run_rank_sweep",
    ],
    "qi": [
        "Protocol", "ProtocolReport", "QiParams", "Receiver", "chernoff_ber",
        "emimo_mode_ratio", "emimo_snr", "pmimo_interference", "pmimo_mode_ratio",
        "pmimo_snr", "protocol_reports", "relative_gain", "siso_snr",
        "tmss_cross_correlation",
    ],
    "rng": ["substream"],
}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


LOADED = """
import contextlib, io, json, sys
{imports}
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""


def _loaded(imports: str, argv=()) -> set:
    code = LOADED.format(imports=imports)
    return set(json.loads(_python(code, json.dumps(list(argv))).stdout))


def test_cli_and_mesh_load_only_themselves_io_and_errors():
    loaded = _loaded("from qbclink import cli, mesh")
    ours = {name for name in loaded if name.split(".")[0] == "qbclink"}
    assert ours == {"qbclink", "qbclink.cli", "qbclink.io", "qbclink.errors", "qbclink.mesh"}
    assert "numpy.random" not in loaded
    assert "concurrent.futures" not in loaded


def test_import_qbclink_loads_no_submodule():
    loaded = _loaded("import qbclink")
    assert {name for name in loaded if name.split(".")[0] == "qbclink"} == {"qbclink"}
    # a submodule stays reachable as an attribute of the package
    done = _python(
        "import qbclink; print(qbclink.montecarlo.FADING_BLOCK, 'mesh' in dir(qbclink))"
    )
    assert done.stdout.split() == [str(qbclink.montecarlo.FADING_BLOCK), "True"]


def test_numpy_random_loads_only_when_a_draw_runs():
    assert "numpy.random" not in _loaded("from qbclink import channel, rng")


@pytest.mark.parametrize("argv, unloaded", [
    (["oracle", "--trials", "1"], {"qbclink.montecarlo", "qbclink.mesh"}),
    (["sweep", "--trials", "1", "--ranks", "1"], {"qbclink.gaussian", "qbclink.mesh"}),
], ids=["oracle", "sweep"])
def test_command_loads_only_the_modules_it_runs(argv, unloaded):
    assert not unloaded & _loaded("from qbclink import cli", argv)


def test_pooled_sweep_leaves_numpy_ma_unloaded():
    # the CLI bounds workers by the CPU count; two must pass on any host
    imports = "import os\nos.cpu_count = lambda: 2\nfrom qbclink import cli"
    argv = ["sweep", "--trials", "8", "--ranks", "1,2", "--set", "workers=2"]
    loaded = _loaded(imports, argv)
    assert "concurrent.futures.process" in loaded
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in REEXPORTS.items() for name in names
])
def test_reexport_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"qbclink.{module}")
    assert getattr(qbclink, name) is getattr(defining, name)
    assert name in dir(qbclink)


def test_package_keeps_its_version_and_rejects_unknown_names():
    assert qbclink.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qbclink.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from qbclink import no_such_name  # noqa: F401


def test_run_oracle_checks_is_served_at_the_cli_path():
    from qbclink.cli import run_oracle_checks
    from qbclink.gaussian import run_oracle_checks as defined

    assert run_oracle_checks is defined
    with pytest.raises(AttributeError):
        cli.no_such_name  # noqa: B018


def _calls(tree, name) -> list:
    """The lines of ``tree``'s calls to a function named ``name``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_no_module_calls_the_reference_substream():
    # substream is the reference the block seeder is tested against; the
    # program seeds every stream through rng.row_generators
    modules = sorted(Path(SRC, "qbclink").glob("*.py"))
    assert "rng.py" in [path.name for path in modules]
    calls = {}
    for path in modules:
        tree = ast.parse(path.read_text())
        if path.name == "rng.py":  # all but the definition itself
            tree.body = [node for node in tree.body if getattr(node, "name", "") != "substream"]
        if lines := _calls(tree, "substream"):
            calls[path.name] = lines
    assert calls == {}


def _identifiers(tree):
    """Every name, attribute and imported top-level module ``tree`` mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[0]


def test_only_rng_reaches_into_the_bit_generator():
    # rng writes PCG64's state struct through views it probes once, and
    # hashes every seed; any other module doing so would bypass that probe
    # or seed streams of its own
    raw = {"SeedSequence", "ctypes", "state_address"}
    users = {}
    for path in sorted(Path(SRC, "qbclink").glob("*.py")):
        if found := raw & set(_identifiers(ast.parse(path.read_text()))):
            users[path.name] = sorted(found)
    assert users == {"rng.py": ["SeedSequence", "ctypes", "state_address"]}


def test_parser_built_once_serves_a_valid_call_after_a_failed_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--no-such-flag", "1"])
    assert exc.value.code == 2
    assert cli.main(["sweep", "--set", "no_such_key=1"]) == 2
    argv = ["sweep", "--nt", "2", "--nr", "2", "--trials", "3", "--seed", "5"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    again = capsys.readouterr().out
    fresh = _python("import sys; from qbclink import cli; sys.exit(cli.main(sys.argv[1:]))",
                    *argv)
    assert again == fresh.stdout
    assert cli._parser() is cli._parser()
