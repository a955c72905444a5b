"""The lazy package namespace and what each CLI command imports.

``import envchan`` loads none of its modules: a public name is looked up in
its home module on each access, never cached in the package. Each CLI
command imports only the modules it runs, so a command's start-up pays for
no module it does not use; ``params`` and ``certify`` from family flags
load no NumPy at all. The import pins run each command in a fresh
interpreter, since this one has long loaded every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import envchan
import envchan.realizability
from envchan import CounterexampleParams, Dilation, build_counterexample, random_channel
from envchan.io import channel_to_dict, dilation_to_dict, save_json, state_to_dict

SRC = Path(__file__).resolve().parents[1] / "src"


class TestNamespace:
    @pytest.mark.parametrize("name", envchan.__all__)
    def test_name_is_its_home_module_object(self, name):
        home = importlib.import_module(f"envchan.{envchan._HOME[name]}")
        value = getattr(envchan, name)
        assert value is getattr(home, name)
        # The home module defines the name, rather than re-exporting it.
        assert getattr(value, "__module__", home.__name__) == home.__name__

    def test_dir_lists_every_public_name(self):
        assert set(envchan.__all__) <= set(dir(envchan))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            envchan.no_such_name
        assert not hasattr(envchan, "__wrapped__")

    def test_submodule_resolves_as_attribute(self):
        assert envchan.__getattr__("realizability") is envchan.realizability
        assert envchan.realizability is sys.modules["envchan.realizability"]

    def test_names_are_not_cached(self, monkeypatch):
        # A tracer that rebinds a function in its home module, and later puts
        # the original back, must see the package name follow both moves.
        original = envchan.search_mixed_env_realization
        assert "search_mixed_env_realization" not in vars(envchan)

        def patched(*args, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(envchan.realizability, "search_mixed_env_realization", patched)
        assert envchan.search_mixed_env_realization is patched
        monkeypatch.undo()
        assert envchan.search_mixed_env_realization is original
        assert "search_mixed_env_realization" not in vars(envchan)


# Runs ``main(argv)`` as the entry point does, then prints every loaded
# module, as JSON on a last line of its own, and exits with main's code.
PROBE = """
import json, sys
from envchan.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

LEAN = {"envchan.realizability", "envchan.counterexample"}
# Commands that read channels and states only.
NO_DILATION = LEAN | {"envchan.dilation"}

# (label, argv, exit code, modules the command must not load)
COMMANDS = [
    ("convert", ["convert", "family.json", "--to", "choi"], 0, NO_DILATION),
    ("apply", ["apply", "family.json", "state.json"], 0, NO_DILATION),
    ("build-random", ["build", "random", "--d", "2", "--d-fin", "2"], 0, NO_DILATION),
    ("build-from-dilation", ["build", "from-dilation", "dilation.json"], 0, LEAN),
    ("certify-file", ["certify", "family.json"], 0, {"envchan.realizability"}),
    ("certify-flags", ["certify", "--d", "3", "--d-fin", "2", "--rho-target", "0.7,0.3"],
     0, LEAN | {"envchan.channels", "numpy"}),
    ("params", ["params", "--d", "2", "--d-fin", "2"], 0, {"envchan.counterexample"}),
    ("search", ["search", "random.json", "--restarts", "2"], 0, {"envchan.counterexample"}),
    # np.median and its kin import numpy.ma, about 12 ms in a fresh process.
    ("perturb", ["perturb", "random.json", "--radius", "0.01", "--samples", "1",
                 "--restarts", "2"], 0, {"envchan.counterexample", "numpy.ma"}),
]


def fresh_python(*args, cwd, code=0):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == code, proc.stderr
    return proc


def run_command(argv, cwd, code):
    """A command's standard output lines, loaded modules and standard error."""
    proc = fresh_python("-c", PROBE, *argv, cwd=cwd, code=code)
    *output, modules = proc.stdout.splitlines()
    return output, set(json.loads(modules)), proc.stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    family = build_counterexample(CounterexampleParams(3, 2, np.diag([0.5, 0.5])))
    save_json(channel_to_dict(family), path / "family.json")
    rng = np.random.default_rng(7)
    save_json(channel_to_dict(random_channel(2, 2, rng, kraus_rank=2)), path / "random.json")
    save_json(state_to_dict(np.eye(3) / 3), path / "state.json")
    save_json(dilation_to_dict(Dilation(
        d_in=2, d_fin=2, d_env=0, unitary=np.eye(4, dtype=complex),
        env_state=np.diag([0.7, 0.3]).astype(complex),
    )), path / "dilation.json")
    return path


def test_import_loads_no_submodule(tmp_path):
    out = fresh_python("-c", (
        "import json, sys, envchan\n"
        "before = sorted(m for m in sys.modules if m.startswith('envchan.'))\n"
        "module = envchan.counterexample\n"
        "print(json.dumps([before, module.__name__, sorted(sys.modules)]))"
    ), cwd=tmp_path).stdout
    before, name, after = json.loads(out)
    assert before == []
    # A submodule still resolves on first access, and loads what it imports.
    assert name == "envchan.counterexample"
    assert "envchan.channels" in after
    assert "envchan.realizability" not in after


@pytest.mark.parametrize(
    "argv, code, unloaded", [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS]
)
def test_command_loads_only_what_it_runs(workdir, argv, code, unloaded):
    _, modules, _ = run_command(argv, workdir, code)
    assert "envchan.cli" in modules
    assert not unloaded & modules


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["--d", "3", "--d-fin", "3"], 0, ["72"], []),
        (["--d", "0", "--d-fin", "2"], 2, [], ["error: dimensions must be positive"]),
    ],
    ids=["count", "error"],
)
def test_params_loads_no_numpy(tmp_path, argv, code, stdout, stderr):
    # The parameter count is a closed-form integer, computed by the standard
    # library alone; a rejected size is still one error line.
    output, modules, errors = run_command(["params", *argv], tmp_path, code)
    assert (output, errors.splitlines()) == (stdout, stderr)
    loaded = {m for m in modules if m.split(".")[0] in ("numpy", "envchan")}
    assert loaded == {"envchan", "envchan.cli", "envchan.sizes"}


# The envchan modules that import nothing beyond the standard library.
STDLIB_ONLY = {
    "envchan", "envchan.certificate", "envchan.cli", "envchan.io",
    "envchan.sizes", "envchan.tolerances",
}


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (["--rho-target", "0.7,0.3", "--out", "report.json"], 0, []),
        (["--rho-target", "1.1,-0.1"], 2, ["error: not positive semidefinite"]),
    ],
    ids=["report", "error"],
)
def test_certify_flags_loads_no_numpy(tmp_path, argv, code, stderr):
    # The certificate of ρ' = diag(λ) needs d, d', purity and overlap, all
    # computed by the standard library, and so is its report.
    output, modules, errors = run_command(
        ["certify", "--d", "3", "--d-fin", "2", *argv], tmp_path, code
    )
    assert (output, errors.splitlines()) == ([], stderr)
    loaded = {m for m in modules if m.split(".")[0] in ("numpy", "envchan")}
    assert "envchan.certificate" in loaded
    assert loaded <= STDLIB_ONLY
    if code == 0:
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["claim"] == "NOT_REALIZABLE"


def test_first_numpy_import_keeps_numpys_warning_filters(tmp_path):
    # NumPy installs warning filters when it is first imported. When a
    # command run through main is that first import, they outlive main's
    # own filter, for the caller's later imports of compiled extensions.
    out = fresh_python("-c", (
        "import json, warnings\n"
        "from envchan.cli import main\n"
        "assert main(['build', 'random', '--d', '2', '--d-fin', '2', '--out', 'r.json']) == 0\n"
        "print(json.dumps([[f[0], getattr(f[1], 'pattern', None)] for f in warnings.filters]))"
    ), cwd=tmp_path).stdout
    assert ["ignore", "numpy.dtype size changed"] in json.loads(out)
