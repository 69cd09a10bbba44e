"""Which package modules each entry point loads, and the package surface that loading on first use keeps.

Every test runs a fresh interpreter, since this process has long since imported every module.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from uhlmann import states
from uhlmann.uhlmann import random_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent
EAGER = {"uhlmann", "uhlmann.errors", "uhlmann.matcore", "uhlmann.states", "uhlmann.uhlmann"}
CLI = EAGER | {"uhlmann.cli"}


def _fresh(script: str, cwd) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "CI_STRICT"}
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=cwd, capture_output=True,
                         text=True, env=dict(env, PYTHONPATH=path), timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


_MAIN_THEN_MODULES = """
    import contextlib, io, json, sys
    from uhlmann import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main({argv!r})
    assert code == 0, code
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "uhlmann")))
"""


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pair")
    inst = random_instance(4, np.random.default_rng(3))
    states.write_state(out / "c.json", inst.c)
    states.write_state(out / "d.json", inst.d)
    return out


PAIR = ["--c", "c.json", "--d", "d.json"]


@pytest.mark.parametrize("argv,loaded", [
    (["canonical", *PAIR], CLI),
    (["report", *PAIR], CLI),
    (["certificate", *PAIR], CLI | {"uhlmann.certificate"}),
    (["report", *PAIR, "--probe-trials", "3", "--seed", "1"], CLI | {"uhlmann.certificate"}),
    (["protocol", "--prover", "honest", "--trials", "3", "--seed", "1"], CLI | {"uhlmann.protocol"}),
    (["protocol", "--prover", "derangement", "--trials", "3", "--seed", "1"],
     CLI | {"uhlmann.protocol", "uhlmann.adversarial", "uhlmann.certificate"}),
    (["grouprep", "--count", "1", "--seed", "1"], CLI | {"uhlmann.grouprep"}),
    (["adversarial", "eta"], CLI | {"uhlmann.adversarial", "uhlmann.certificate"}),
    (["round-gap", *PAIR, "--eta-target", "0.3"], CLI | {"uhlmann.adversarial", "uhlmann.certificate"}),
], ids=["canonical", "report", "certificate", "report_probe", "protocol_honest", "protocol_derangement",
        "grouprep", "adversarial_eta", "round_gap"])
def test_a_subcommand_loads_only_the_modules_it_uses(argv, loaded, pair_dir):
    out = _fresh(_MAIN_THEN_MODULES.format(argv=argv), pair_dir)
    assert set(json.loads(out)) == loaded


def test_import_uhlmann_loads_only_the_eager_modules(tmp_path):
    out = _fresh("""
        import json, sys
        import uhlmann
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "uhlmann")))
    """, tmp_path)
    assert set(json.loads(out)) == EAGER


def test_a_module_loads_the_first_time_it_is_read(tmp_path):
    _fresh("""
        import sys
        import uhlmann
        family = uhlmann.adversarial.build_eta_family(4, 0.4, 0.5)
        assert abs(family.eta - 0.4) < 1e-9
        assert uhlmann.adversarial is sys.modules["uhlmann.adversarial"]
        assert uhlmann.certificate is sys.modules["uhlmann.certificate"]  # adversarial imports it
        from uhlmann import protocol
        assert protocol is sys.modules["uhlmann.protocol"] and protocol.ProtocolParams
    """, tmp_path)


def test_star_import_binds_every_name_in_all(tmp_path):
    _fresh("""
        import sys
        from uhlmann import *
        import uhlmann
        missing = [n for n in uhlmann.__all__ if n not in globals()]
        assert not missing, missing
        for name in ("adversarial", "certificate", "grouprep", "protocol"):
            assert globals()[name] is sys.modules["uhlmann." + name]
    """, tmp_path)


def test_dir_lists_the_modules_that_load_on_first_use(tmp_path):
    _fresh("""
        import uhlmann
        names = dir(uhlmann)
        assert names == sorted(names)
        assert {"adversarial", "certificate", "grouprep", "protocol", "core", "errors", "matcore",
                "states", "uhlmann"} <= set(names), names
        assert set(uhlmann.__all__) <= set(names)
    """, tmp_path)


def test_an_unknown_attribute_raises_the_usual_attribute_error():
    import uhlmann

    with pytest.raises(AttributeError) as info:
        uhlmann.no_such_module
    assert str(info.value) == "module 'uhlmann' has no attribute 'no_such_module'"
    with pytest.raises(ImportError, match="cannot import name 'no_such_module' from 'uhlmann'"):
        from uhlmann import no_such_module  # noqa: F401


def test_every_submodule_binds_every_name_in_its_all(tmp_path):
    # the bench tracer wraps each module's __all__ through getattr, so a stale entry breaks every run
    out = _fresh("""
        import importlib, json, pkgutil
        import uhlmann
        names = sorted(m.name for m in pkgutil.iter_modules(uhlmann.__path__) if m.name != "__main__")
        mods = {name: importlib.import_module("uhlmann." + name) for name in names}
        stale = [f"{name}.{n}" for name, mod in mods.items() for n in getattr(mod, "__all__", ())
                 if not hasattr(mod, n)]
        print(json.dumps([names, stale]))
    """, tmp_path)
    names, stale = json.loads(out)
    assert {"adversarial", "certificate", "grouprep", "matcore", "protocol", "states", "uhlmann"} <= set(names)
    assert stale == []
