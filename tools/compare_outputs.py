"""Compare the outputs of two checkouts of this repository, byte for byte.

Usage::

    python tools/compare_outputs.py OLD_ROOT NEW_ROOT [--keep DIR]

Each root is a checkout (its package under ``src/``, its demos under
``demos/``).  The script runs itself once per root in a fresh interpreter
with ``PYTHONPATH=<root>/src``; that run writes one file per output into
its own directory, and the two directories are then compared file by file.
Exit status 0 when every output matches, 1 otherwise (the differing names
are printed).  ``--keep DIR`` keeps both dumps under ``DIR/old`` and
``DIR/new``.

Outputs, each recorded with the exit code, stdout, stderr and every file
written, with the checkout's root in any text replaced by ``<checkout>`` (a
warning names the file that raised it):

* eight state pairs: random at d = 3, 5, 6, 32, 64 (``default_rng(100 + d)``),
  full rank at d = 8 and at d = 32 (``default_rng(7)``, the pinned pair of
  the full-rank regression test), and the eta family at d = 4, eta = 1e-3;
* per pair: ``canonical`` (default, ``--tol 1e-6``), ``report`` and
  ``certificate`` (default, with a probe, ``--tol 1e-4``; the certificate
  also at ``--alpha -1.5``) and two ``round-gap`` settings with their state
  files;
* the four ``adversarial`` families at two settings each, ``protocol`` with
  every prover (with its CSV), its default, ``--n 3``, 200 trials (past
  two 64-trial blocks and trial 192, with its CSV), the derangement prover
  at ``--eta 0.1`` (m = 6400, with its CSV) and a state-file pair, ``grouprep`` on s3, z4, z6, z2 and z3 at dim 2, ``grouprep`` on a
  D4 (order 8, non-abelian) table file at its default dim 8 with
  ``--count 3``, ``grouprep`` on z8 with ``--count 70`` (past one pass of
  64 rows at dim 8) and on s3 with ``--count 9``, ``grouprep`` at dim 1 on z1
  (1 x 1 grids) and on z8 (1 x 64 grids), ``grouprep`` on a table file of
  S3 with its elements renumbered (default dim and dim 6, at ``--scale`` 0
  and 0.3, ``--count 2``), and ``grouprep`` on table files with float,
  boolean and ragged entries;
* ``report`` and ``certificate`` with ``--probe-trials -3``, with
  ``--epsilon 1e308`` (a bound that overflows) and with ``--seed -1`` (no
  probe), ``grouprep --dim 0``, ``protocol --seed -1``, ``adversarial
  kappa`` and ``boost`` at ``--lam 0`` and at ``--d 3 --lam 0.5`` (the top,
  1/(d-1)), and ``adversarial kappa`` at
  ``--d 3`` with ``--lam`` 0.6, inf and nan and at ``--d 1 --lam 0.1``;
* ``canonical`` and ``report``, default and ``--tol 1e-9``, on the eta
  family at d = 4, eta = 1e-10, where Tr_A|D><C| has relative singular
  values 1, 1, 7.1e-11 and 7.1e-11;
* ``canonical`` on state files whose fields have the wrong JSON type (a
  top-level array; ``rows`` an array or a string; ``cols`` a float; ``dim_a``
  null; ``data`` a number, or holding a string, a boolean or an integer past
  the float range; ``normalized`` a string) and ``grouprep`` on group files
  that are an array or have numeric ``labels``; an error that escapes
  ``cli.main`` is recorded as the output;
* per subcommand (``canonical``, ``report`` with and without a probe,
  ``certificate``, ``round-gap``, ``adversarial eta``, ``protocol`` with the
  honest and the derangement prover, ``grouprep``), the sorted ``uhlmann.*``
  modules that a fresh interpreter has loaded after the call, and
  ``protocol --n 40`` with either prover in a fresh interpreter whose address
  space is capped at 4 GB;
* usage errors (no arguments, an unknown subcommand, an unknown flag, a
  missing required flag, a bad type, a bad choice) and ``--help`` for the
  program and two subcommands, run after the calls above in the same
  interpreter, with ``COLUMNS=80`` so help wraps alike;
* library values, as exact bytes: ``three_form_deviation``,
  ``psd_core_check``, ``projector_structure_check``, ``primal_probe``,
  ``rigidity_residual``, three ``near_optimal_unitary`` walks, the canonical
  completion, ``states.fidelity`` (of the pair's factored density matrices
  and of bare ones, built from their matrices alone), ``input_ensemble_state``,
  ``geometric_mean``, ``soundness_probe`` rows and
  ``completeness_experiment``; ``repr()`` of a ``RigidityReport``, a
  ``DualCertificate``, a ``StabilityResult``, a ``RunOutcome``, a
  ``ProtocolParams`` and a ``SoundnessReport``; on rand5 (a kernel to complete) and full8
  (full rank), a 130-trial ``primal_probe`` at eps 0, 1e-2, 0.1 and 5
  (past the 64-walk block; at eps 0.1 some walks of a chunk grow in the
  doubling and some do not) and 70 ``near_optimal_unitary`` walks, one
  generator each, at eps 1e-2 and 0.1; on rand5,
  ``primal_probe`` at 64 and 65 trials (one block, and one walk past it);
  ``primal_probe`` past one compute chunk: 300 trials on rand32 and 5000
  trials on a random pair at d = 2 (``default_rng(102)``);
  ``three_form_deviation`` and ``psd_core_check`` of a pair whose C grid is
  ``random_instance(3, default_rng(1))``'s scaled by 1 + 5e-7, a norm that
  ``NORM_TOL`` accepts unscaled; on matrices of rank d // 2 at d = 2, 3, 5, 6,
  ``pseudoinverse``, ``matrix_sign``, ``psd_function`` (``sqrt`` and
  ``inv_sqrt``), ``gram_power`` (1, -1, 0) and ``states.fidelity`` of bare
  density matrices;
* the cmjson text (with extra keys on both sides of ``data``) of writer edge
  matrices: a 3x5 grid holding -0.0 in either part, 5e-324, -1.5e-310 and
  1e300, that grid scaled by 1e-12, its transpose, a read-only copy, a 1x1
  and a 128x128 grid holding the same edge values; and each written by
  ``write_state`` and read back by ``read_state``;
* ``canonical`` and ``report`` on rand32's C file with its keys reordered and
  whitespace between every token, and ``canonical`` on three broken copies
  of rand32's C file (a leading zero, a pair of four numbers, a NaN);
* a grouprep library sweep, one output per representation: z1 to z8 and s3
  at dims 2, 3 and the group order (where a built-in exact representation
  exists), each with the maximally mixed and a random rho, and with uniform
  and a non-uniform mu that has a zero weight.  Each records ``rep_defect``,
  the C and D grids of ``build_states``, the dense W~ (built here from the
  unitaries, as the tests build it), ``intertwiner``,
  ``convolution`` at every element and the ``stability_check`` fields;
  three multi-row passes of ``_rows`` (s3 at dim 3, z4 at dim 4, z6 at dim
  2), each with a rank-deficient rho and a skewed mu with zero weights, record
  every row's ``stability_check``;
  further outputs record the errors of broken ``from_table`` tables (with
  ragged, nested, float and boolean entries among them) and of
  bad ``ApproxRep.create`` inputs;
* the stdout of every ``demos/*.py``.

Functions that took the canonical W as a second argument before it became
the core's own are called with it when their signature still asks for it,
so older checkouts compare too.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import inspect
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile

PAIRS = ("rand3", "rand5", "rand6", "rand32", "rand64", "full8", "full32", "eta4")


def _hex(a) -> str:
    import numpy as np

    a = np.ascontiguousarray(a)
    return f"{a.dtype} {a.shape} {a.tobytes().hex()}"


def _w_tilde(rep):
    """The dense ``sum_{g,h} (U_hg U_g*) (x) |g,h><g,h|`` on B1 (x) (B2 (x) B3), B1 slowest."""
    import numpy as np

    us, k = rep.unitaries, rep.group.order**2
    blocks = (us[rep.group.mult.T] @ us[:, None].conj().swapaxes(-1, -2)).reshape(k, rep.dim, rep.dim)
    out = np.zeros((rep.dim, k, rep.dim, k), dtype=complex)
    out[:, np.arange(k), :, np.arange(k)] = blocks
    return out.reshape(rep.dim * k, rep.dim * k)


def _with_w(fn, inst, *args):
    """``fn(inst, *args)``, passing the canonical W second where ``fn`` still asks for it."""
    from uhlmann import uhlmann

    if "w" in inspect.signature(fn).parameters:
        return fn(inst, uhlmann.canonical_w(inst), *args)
    return fn(inst, *args)


# one cli.main call in a fresh interpreter: its output, and the package modules loaded after it
_FRESH_CALL = """import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))  # an allocation past this fails at once
from uhlmann import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except Exception as exc:
        code = f"uncaught {type(exc).__name__}: {exc}"
loaded = " ".join(sorted(m for m in sys.modules if m.split(".")[0] == "uhlmann"))
print(f"exit {code}", out.getvalue(), err.getvalue(), loaded, sep="\\n--\\n")
"""


class Dump:
    def __init__(self, out: pathlib.Path, root: pathlib.Path):
        self.out, self.root = out, str(root)

    def put(self, name: str, text: str) -> None:
        (self.out / name).write_text(text.replace(self.root, "<checkout>"), encoding="utf-8")

    def value(self, name: str, thunk) -> None:
        try:
            text = repr(thunk())
        except Exception as exc:  # the error is the output
            text = f"{type(exc).__name__}: {exc}"
        self.put(name, text + "\n")

    def cli(self, name: str, argv: list, files: tuple = ()) -> None:
        from uhlmann import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an error that escapes main is the output
                code = f"uncaught {type(exc).__name__}: {exc}"
        parts = [f"exit {code}", out.getvalue(), err.getvalue()]
        for path in files:
            parts.append(pathlib.Path(path).read_text() if os.path.exists(path) else "(none)")
            if os.path.exists(path):
                os.remove(path)
        self.put(name, "\n--\n".join(parts))

    def fresh_cli(self, name: str, argv: list) -> None:
        run = subprocess.run([sys.executable, "-c", _FRESH_CALL, json.dumps(argv)], capture_output=True,
                             text=True, env=os.environ)
        self.put(name, f"exit {run.returncode}\n{run.stdout}\n--\n{run.stderr}")


def _edge_matrices():
    import numpy as np

    rng = np.random.default_rng(8)
    grid = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    grid.flat[:6] = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1.5e-310),
                     complex(1e300, -1e300), complex(-1.5e-310, 5e-324)]
    frozen = grid.copy()
    frozen.flags.writeable = False
    big = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
    big.flat[:6] = grid.flat[:6]
    return {"3x5": grid, "scaled": grid * 1e-12, "transposed": grid.T, "read_only": frozen,
            "1x1": np.array([[complex(-0.0, 1e300)]]), "128x128": big}


def _state_round_trip(m):
    from uhlmann import states

    states.write_state("edge.json", states.BipartitePureState(m, normalized=False))
    text, coeffs = pathlib.Path("edge.json").read_text(), states.read_state("edge.json").coeffs
    os.remove("edge.json")
    return text, _hex(coeffs)


def _pairs():
    import numpy as np

    from uhlmann import adversarial, uhlmann

    out = {}
    for d in (3, 5, 6, 32, 64):
        out[f"rand{d}"] = uhlmann.random_instance(d, np.random.default_rng(100 + d))
    out["full8"] = uhlmann.random_instance(8, np.random.default_rng(108), rank_c=8, rank_d=8)
    out["full32"] = uhlmann.random_instance(32, np.random.default_rng(7), rank_c=32, rank_d=32)
    out["eta4"] = adversarial.build_eta_family(4, 1e-3, 0.5).instance
    return out


def dump(out: pathlib.Path, demos: pathlib.Path) -> None:
    import numpy as np

    from uhlmann import adversarial, certificate, grouprep, matcore, protocol, states, uhlmann

    rec = Dump(out, demos.parent)
    os.chdir(out)  # relative paths, so error messages match across checkouts
    insts = _pairs()
    for name, inst in insts.items():
        states.write_state(f"{name}_c.json", inst.c)
        states.write_state(f"{name}_d.json", inst.d)
    for name in PAIRS:
        files = ["--c", f"{name}_c.json", "--d", f"{name}_d.json"]
        rec.cli(f"{name}.canonical", ["canonical", *files])
        rec.cli(f"{name}.canonical_tol", ["canonical", *files, "--tol", "1e-6", "--out", "w.json"], ("w.json",))
        for cmd in ("report", "certificate"):
            rec.cli(f"{name}.{cmd}", [cmd, *files])
            rec.cli(f"{name}.{cmd}_probe", [cmd, *files, "--probe-trials", "20", "--seed", "4"])
            rec.cli(f"{name}.{cmd}_tol", [cmd, *files, "--tol", "1e-4"])
        rec.cli(f"{name}.certificate_alpha", ["certificate", *files, "--alpha", "-1.5"])
        for k, extra in enumerate((["--eta-target", "0.3"], ["--eta-target", "0.1", "--mix-delta", "1e-4"])):
            rec.cli(f"{name}.round_gap{k}", ["round-gap", *files, *extra, "--out-c", "rc.json",
                                              "--out-d", "rd.json"], ("rc.json", "rd.json"))

    # the state file reformatted, and broken: the same bytes or errors by any reader
    text = pathlib.Path("rand32_c.json").read_text()
    obj = json.loads(text)
    span = text[text.index('"data":') + 7:text.index(',"dim_a"')]
    pathlib.Path("spaced32_c.json").write_text(
        '{\n "normalized" : true ,\n "data" :\n' + span.replace("[", "[ ").replace(",", " ,\n\t")
        + ' ,\r\n "rows": %d, "dim_b":%d, "cols" : %d ,"dim_a"\t: %d\n}\n'
        % (obj["rows"], obj["dim_b"], obj["cols"], obj["dim_a"]))
    for cmd in ("canonical", "report"):
        rec.cli(f"spaced32.{cmd}", [cmd, "--c", "spaced32_c.json", "--d", "rand32_d.json"])
    first = text[text.index('"data":[[') + 9:].split(",", 1)[0]
    for name, broken in (("leading_zero", text.replace(first, "01", 1)),
                         ("four_numbers", text.replace("],[", ",", 1)), ("nan", text.replace(first, "NaN", 1))):
        pathlib.Path(f"broken_{name}.json").write_text(broken)
        rec.cli(f"cmjson_error.{name}", ["canonical", "--c", f"broken_{name}.json", "--d", "rand32_d.json"])

    # usage errors and help in the middle of the run, through the parser the calls above built
    files = ["--c", "rand3_c.json", "--d", "rand3_d.json"]
    for name, argv in (("none", []), ("help", ["--help"]), ("report_help", ["report", "--help"]),
                       ("protocol_help", ["protocol", "-h"]), ("unknown_command", ["frobnicate"]),
                       ("unknown_flag", ["report", *files, "--bogus"]), ("missing_required", ["canonical"]),
                       ("bad_type", ["protocol", "--n", "two"]), ("bad_choice", ["adversarial", "zeta"])):
        rec.cli(f"usage.{name}", argv)

    for name, argv in (("canonical", ["canonical", *files]), ("report", ["report", *files]),
                       ("report_probe", ["report", *files, "--probe-trials", "3", "--seed", "1"]),
                       ("certificate", ["certificate", *files]),
                       ("round_gap", ["round-gap", *files, "--eta-target", "0.3"]),
                       ("adversarial_eta", ["adversarial", "eta"]),
                       ("protocol_honest", ["protocol", "--trials", "3", "--seed", "1"]),
                       ("protocol_derangement", ["protocol", "--prover", "derangement", "--trials", "3", "--seed", "1"]),
                       ("grouprep", ["grouprep", "--count", "1", "--seed", "1"]),
                       ("protocol_n40_honest", ["protocol", "--n", "40", "--trials", "2", "--seed", "1"]),
                       ("protocol_n40_derangement", ["protocol", "--n", "40", "--trials", "2", "--seed", "1",
                                                     "--prover", "derangement"])):
        rec.fresh_cli(f"fresh.{name}", argv)

    adv = {
        "eta": [[], ["--d", "8", "--eta", "0.2", "--tau", "0.7"]],
        "kappa": [[], ["--d", "4", "--lam", "0.05", "--weight", "0.2", "--epsilon", "0.1"]],
        "boost": [[], ["--d", "4", "--lam", "0.05", "--weight", "0.2", "--epsilon", "0.1"]],
        "qutrit": [[], ["--epsilon", "0.01"]],
    }
    for fam, settings in adv.items():
        for k, extra in enumerate(settings):
            rec.cli(f"adversarial.{fam}{k}", ["adversarial", fam, *extra])

    for prover in ("honest", "derangement", "random", "epsilon:0.05"):
        rec.cli(f"protocol.{prover}", ["protocol", "--prover", prover, "--trials", "50", "--seed", "3",
                                        "--out", "p.csv"], ("p.csv",))
    rec.cli("protocol.default", ["protocol"])
    rec.cli("protocol.n3", ["protocol", "--n", "3", "--trials", "20", "--seed", "2"])
    rec.cli("protocol.t200", ["protocol", "--trials", "200", "--seed", "3", "--out", "p.csv"], ("p.csv",))
    rec.cli("protocol.derangement_eta0.1", ["protocol", "--prover", "derangement", "--eta", "0.1",
                                            "--trials", "50", "--seed", "3", "--out", "p.csv"], ("p.csv",))
    states.write_state("p4_c.json", uhlmann.random_instance(4, np.random.default_rng(404)).c)
    states.write_state("p4_d.json", uhlmann.random_instance(4, np.random.default_rng(405)).d)
    rec.cli("protocol.files", ["protocol", "--c", "p4_c.json", "--d", "p4_d.json", "--r", "3",
                                "--prover", "epsilon:0.02", "--trials", "20", "--seed", "1"])
    for group, extra in (("s3", []), ("z4", []), ("z6", []), ("z2", []), ("z3", ["--dim", "2"])):
        rec.cli(f"grouprep.{group}", ["grouprep", "--group", group, "--seed", "3", "--count", "2",
                                       "--scale", "0.3", *extra])
    rec.cli("grouprep.default", ["grouprep"])
    rec.cli("grouprep.z8_count70", ["grouprep", "--group", "z8", "--count", "70", "--seed", "3"])
    rec.cli("grouprep.s3_count9", ["grouprep", "--group", "s3", "--count", "9", "--seed", "5"])
    rec.cli("grouprep.z1_dim1", ["grouprep", "--group", "z1", "--dim", "1", "--count", "3"])
    rec.cli("grouprep.z8_dim1", ["grouprep", "--group", "z8", "--dim", "1", "--count", "4", "--seed", "2",
                                  "--scale", "0.7"])
    # D4 = <r, s>: index 4 f + k is r^k s^f, and s r^k = r^-k s
    d4 = [[(a + (-1) ** (a // 4) * b) % 4 + 4 * ((a // 4) ^ (b // 4)) for b in range(8)] for a in range(8)]
    pathlib.Path("table_d4.json").write_text(json.dumps({"order": 8, "table": d4}))
    rec.cli("grouprep.table_d4", ["grouprep", "--group", "table_d4.json", "--count", "3", "--seed", "3",
                                  "--scale", "0.3"])
    # S3 with its elements renumbered: the exact representation is read off the table, any labelling
    s3_relabelled = [[0, 1, 2, 3, 4, 5], [1, 5, 4, 2, 3, 0], [2, 3, 0, 1, 5, 4],
                     [3, 4, 5, 0, 1, 2], [4, 2, 1, 5, 0, 3], [5, 0, 3, 4, 2, 1]]
    pathlib.Path("table_s3_relabelled.json").write_text(json.dumps({"order": 6, "table": s3_relabelled}))
    for dim, scale in itertools.product((None, "6"), ("0", "0.3")):
        rec.cli(f"grouprep.table_s3_relabelled_dim{dim or 'default'}_scale{scale}",
                ["grouprep", "--group", "table_s3_relabelled.json", "--count", "2", "--seed", "3", "--scale", scale,
                 *(["--dim", dim] if dim else [])])
    for name, table in (("float", [[0, 1.9], [1.2, 0]]), ("bool", [[False, True], [True, False]]),
                        ("ragged", [[0, 1], [1]])):
        pathlib.Path(f"table_{name}.json").write_text(json.dumps({"order": 2, "table": table}))
        rec.cli(f"grouprep.table_{name}", ["grouprep", "--group", f"table_{name}.json", "--dim", "2",
                                            "--count", "1", "--seed", "1"])
    for cmd in ("report", "certificate"):
        rec.cli(f"rand3.{cmd}_probe_negative", [cmd, "--c", "rand3_c.json", "--d", "rand3_d.json",
                                                 "--probe-trials", "-3", "--seed", "4"])
        rec.cli(f"rand3.{cmd}_eps1e308", [cmd, "--c", "rand3_c.json", "--d", "rand3_d.json", "--epsilon", "1e308"])
        rec.cli(f"rand3.{cmd}_seed_negative", [cmd, "--c", "rand3_c.json", "--d", "rand3_d.json", "--seed", "-1"])
    for fam in ("kappa", "boost"):
        rec.cli(f"adversarial.{fam}_lam0", ["adversarial", fam, "--lam", "0"])
        rec.cli(f"adversarial.{fam}_d3_lam0.5", ["adversarial", fam, "--d", "3", "--lam", "0.5"])  # 1/(d-1)
    for name, extra in (("lam0.6", ["--d", "3", "--lam", "0.6"]), ("lam_inf", ["--d", "3", "--lam", "inf"]),
                        ("lam_nan", ["--d", "3", "--lam", "nan"]), ("d1", ["--d", "1", "--lam", "0.1"])):
        rec.cli(f"adversarial.kappa_{name}", ["adversarial", "kappa", *extra])
    # singular values 1, 1, 7.1e-11, 7.1e-11 of Tr_A |D><C|: the default rank rule keeps four, 1e-9 two
    eta10 = adversarial.build_eta_family(4, 1e-10, 0.5).instance
    states.write_state("eta10_c.json", eta10.c)
    states.write_state("eta10_d.json", eta10.d)
    for cmd in ("canonical", "report"):
        for suffix, extra in (("", []), ("_tol1e-9", ["--tol", "1e-9"])):
            rec.cli(f"eta10.{cmd}{suffix}", [cmd, "--c", "eta10_c.json", "--d", "eta10_d.json", *extra])
    rec.cli("grouprep.dim0", ["grouprep", "--dim", "0", "--count", "1", "--seed", "1"])
    rec.cli("protocol.seed_negative", ["protocol", "--trials", "5", "--seed", "-1"])
    # state, matrix and group files whose fields have the wrong JSON type
    base = '{"cols":2,"data":[[0.6,0.0],[0.0,0.8]],"dim_a":1,"dim_b":2,"normalized":true,"rows":1}'
    for name, text in (("top_list", "[1,2]"), ("rows_list", base.replace('"rows":1', '"rows":[1]')),
                       ("rows_string", base.replace('"rows":1', '"rows":"1"')),
                       ("cols_float", base.replace('"cols":2', '"cols":2.9')),
                       ("dim_a_null", base.replace('"dim_a":1', '"dim_a":null')),
                       ("data_number", base.replace("[[0.6,0.0],[0.0,0.8]]", "5")),
                       ("data_string", base.replace("0.6,0.0", '"0.6",0')),
                       ("data_bool", base.replace("0.6,0.0", "true,0")),
                       ("data_huge_integer", base.replace("0.6,0.0", "1" + "0" * 400 + ",0")),
                       ("normalized_string", base.replace('"normalized":true', '"normalized":"no"'))):
        pathlib.Path(f"typed_{name}.json").write_text(text)
        rec.cli(f"typed_error.{name}", ["canonical", "--c", f"typed_{name}.json", "--d", "rand3_d.json"])
    for name, text in (("top_list", "[1,2]"), ("labels_number", '{"order":2,"table":[[0,1],[1,0]],"labels":5}')):
        pathlib.Path(f"group_{name}.json").write_text(text)
        rec.cli(f"typed_error.group_{name}", ["grouprep", "--group", f"group_{name}.json", "--count", "1"])

    for name, inst in _pairs().items():
        core = inst.spectral_core()
        rec.value(f"{name}.three_form", lambda: uhlmann.three_form_deviation(inst))
        rec.value(f"{name}.psd_core", lambda: certificate.psd_core_check(inst))
        rec.value(f"{name}.projector_check", lambda: _with_w(uhlmann.projector_structure_check, inst))
        rec.value(f"{name}.probe", lambda: certificate.primal_probe(inst, 0.01, 30, 5))
        rec.value(f"{name}.completion", lambda: _hex(core.completion))
        rec.value(f"{name}.fidelity", lambda: states.fidelity(inst.rho, inst.sigma))
        rec.value(f"{name}.fidelity_bare", lambda: states.fidelity(
            states.DensityMatrix(inst.rho.mat), states.DensityMatrix(inst.sigma.mat)))
        rec.value(f"{name}.residual", lambda: _with_w(
            uhlmann.rigidity_residual, inst, uhlmann._haar_unitary(inst.dim_b, np.random.default_rng(6))))
        rec.value(f"{name}.walks", lambda: [
            (_hex(r), ov) for r, ov in (_with_w(uhlmann.near_optimal_unitary, inst, 0.01, np.random.default_rng((9, i)))
                                        for i in range(3))])
        rec.value(f"{name}.input_state", lambda: _hex(protocol.input_ensemble_state(
            inst, np.random.default_rng(11))))
    # past one block of walks (64), on a pair with a kernel to complete and on a full-rank one
    # eps 0.1 grows some walks of the chunk in the doubling and not others (rand5: 30 of 130 probe
    # walks; full8: 80); 0 and 1e-2 grow almost none, and 5 grows all
    for name in ("rand5", "full8"):
        for eps in (0.0, 1e-2, 0.1, 5.0):
            rec.value(f"{name}.probe130_eps{eps:g}", lambda: certificate.primal_probe(insts[name], eps, 130, 12))
        for eps, suffix in ((0.01, ""), (0.1, "_eps0.1")):
            rec.value(f"{name}.walks70{suffix}", lambda: [
                (_hex(r), ov.hex()) for r, ov in (_with_w(uhlmann.near_optimal_unitary, insts[name], eps,
                                                          np.random.default_rng((13, i))) for i in range(70))])
    for trials in (64, 65):
        rec.value(f"rand5.probe{trials}", lambda: certificate.primal_probe(insts["rand5"], 0.01, trials, 14))
    # past one compute chunk of walks: 256 walks per chunk at d = 32, 4096 at d <= 8
    rec.value("rand32.probe300", lambda: certificate.primal_probe(insts["rand32"], 0.01, 300, 15))
    rand2 = uhlmann.random_instance(2, np.random.default_rng(102))
    rec.value("rand2.probe5000", lambda: certificate.primal_probe(rand2, 0.01, 5000, 16))
    base = uhlmann.random_instance(3, np.random.default_rng(1))
    scaled = uhlmann.UhlmannInstance.from_states(states.BipartitePureState(base.c.coeffs * (1 + 5e-7)), base.d)
    rec.value("scaled3.three_form", lambda: uhlmann.three_form_deviation(scaled))
    rec.value("scaled3.psd_core", lambda: certificate.psd_core_check(scaled))
    rng = np.random.default_rng(77)
    for k, d in enumerate((2, 4, 7)):
        a, b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
        rec.value(f"geometric_mean{k}", lambda: _hex(uhlmann.geometric_mean(a @ a.conj().T, b @ b.conj().T)))
    # the rank rule's slicing and zero-filling sites, on matrices of rank d // 2
    for d in (2, 3, 5, 6):
        rng = np.random.default_rng(300 + d)
        x, y, z = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in ((d, d // 2), (d // 2, d), (d, d // 2)))
        m, p, q = x @ y, x @ x.conj().T, z @ z.conj().T
        eig = matcore.psd_eigen(p)
        rec.value(f"rank{d}.pseudoinverse", lambda: _hex(matcore.pseudoinverse(m)))
        rec.value(f"rank{d}.matrix_sign", lambda: _hex(matcore.matrix_sign(m)))
        rec.value(f"rank{d}.psd_function", lambda: [_hex(matcore.psd_function(eig, fn))
                                                    for fn in (np.sqrt, matcore.inv_sqrt)])
        rec.value(f"rank{d}.gram_power", lambda: [_hex(matcore.gram_power(matcore.svd(m), k)) for k in (1, -1, 0)])
        rec.value(f"rank{d}.fidelity_bare", lambda: states.fidelity(
            states.DensityMatrix(p / np.trace(p).real), states.DensityMatrix(q / np.trace(q).real)))

    ref = protocol.completeness_reference_instance(2)
    params = protocol.ProtocolParams.for_instance(ref, n=2, r=2)
    provers = [protocol.honest_prover(ref), protocol.epsilon_prover(ref, 0.01, seed=3),
               protocol.random_prover(ref.dim_b, seed=3)]
    rec.value("soundness_probe", lambda: protocol.soundness_probe(ref, params, provers, trials=100, seed=8).rows)
    rec.value("completeness", lambda: protocol.completeness_experiment(ref, params, trials=200, seed=5))
    fam = adversarial.build_eta_family(4, 0.4, 0.5)
    fparams = protocol.ProtocolParams.for_instance(fam.instance, n=2, r=2)
    rec.value("soundness_probe_eta", lambda: protocol.soundness_probe(
        fam.instance, fparams, [protocol.derangement_prover(fam.adversary_r)], trials=50, seed=1).rows)
    # repr() of one of each scalar record: the text of a record is an output too
    rec.value("repr.rigidity_report", lambda: uhlmann.rigidity_report(
        insts["rand5"], 0.01, empirical_primal=0.5))
    rec.value("repr.dual_certificate", lambda: certificate.build_certificate(insts["rand3"], 0.01, -1.5))
    rec.value("repr.stability_result", lambda: grouprep.stability_check(grouprep.perturbed_rep(
        grouprep.FiniteGroup.symmetric3(), 3, 0.3, np.random.default_rng(21))))
    rec.value("repr.run_outcome", lambda: protocol.run_protocol(
        ref, params, provers[1], protocol.input_ensemble_state(ref, np.random.default_rng(22)), 23))
    rec.value("repr.protocol_params", lambda: params)
    rec.value("repr.soundness_report", lambda: protocol.soundness_probe(
        ref, params, provers, trials=20, seed=24))

    for name, m in _edge_matrices().items():
        rec.value(f"cmjson_edge.{name}", lambda: matcore.matrix_json_text(
            m, extra={"a": True, "norm": -0.0, "zeta": None}))
        rec.value(f"state_edge.{name}", lambda: _state_round_trip(m))

    _grouprep_sweep(rec)

    for demo in sorted(demos.glob("*.py")):
        run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=os.environ)
        rec.put(f"demo.{demo.stem}", f"exit {run.returncode}\n{run.stdout}\n--\n{run.stderr}")


def _grouprep_sweep(rec: Dump) -> None:
    import numpy as np

    from uhlmann import grouprep, states
    from uhlmann.errors import BadParamsError

    groups = {f"z{n}": grouprep.FiniteGroup.cyclic(n) for n in range(1, 9)}
    groups["s3"] = grouprep.FiniteGroup.symmetric3()
    for name, group in groups.items():
        n = group.order
        for dim in sorted({2, 3, n}):
            rng = np.random.default_rng((n, dim))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            gram = a @ a.conj().T
            rhos = {"mixed": None, "random": states.DensityMatrix(gram / np.trace(gram).real)}
            skewed = np.arange(n, dtype=float) % 3  # element 0, and every third one, gets weight 0
            mus = {"uniform": None, "skewed": skewed / skewed.sum() if skewed.sum() else None}
            for (rho_name, rho), (mu_name, mu) in itertools.product(rhos.items(), mus.items()):
                key = f"grouprep_lib.{name}.d{dim}.{rho_name}.{mu_name}"
                try:
                    rep = grouprep.perturbed_rep(group, dim, 0.3, np.random.default_rng((n, dim, 1)), rho=rho, mu=mu)
                except BadParamsError as exc:  # no built-in exact representation: the error is the output
                    rec.put(key, f"{type(exc).__name__}: {exc}\n")
                    continue
                inst = grouprep.build_states(rep)
                mats, v = grouprep.intertwiner(rep)
                lines = [f"defect {grouprep.rep_defect(rep)!r}", f"c {_hex(inst.c.coeffs)}",
                         f"d {_hex(inst.d.coeffs)}", f"w_tilde {_hex(_w_tilde(rep))}",
                         f"rep_mats {_hex(np.asarray(mats))}", f"v {_hex(v)}",
                         *(f"convolution{g} {_hex(grouprep.convolution(rep, g))}" for g in range(n)),
                         f"stability {grouprep.stability_check(rep)!r}"]
                rec.put(key, "\n".join(lines) + "\n")

    # multi-row passes through the stacked rows, with a rank-deficient rho and a skewed mu with zero weights
    for name, group, dim in (("s3", groups["s3"], 3), ("z4", groups["z4"], 4), ("z6", groups["z6"], 2)):
        a = np.random.default_rng((dim, 5)).normal(size=(dim, dim - 1))
        rho = states.DensityMatrix((a @ a.T / np.trace(a @ a.T)).astype(complex))
        skewed = np.arange(group.order, dtype=float) % 3
        reps = grouprep._perturbed_reps(group, dim, 0.3, [np.random.default_rng((31, k)) for k in range(5)],
                                        rho, skewed / skewed.sum())
        rec.value(f"grouprep_pass.{name}", lambda: [grouprep.stability_check(rep, row)
                                                    for rep, row in zip(reps, grouprep._rows(reps))])

    tables = {"ragged": [[0, 1], [1]], "empty": [], "out_of_range": [[0, 1], [1, 2]],
              "no_identity": [[0, 0], [0, 0]], "no_inverse": [[0, 1], [1, 1]],
              "no_inverse3": [[0, 1, 2], [1, 2, 0], [2, 1, 0]], "non_associative": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
              "non_associative4": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 0, 0]],
              "bad_labels": ([[0, 1], [1, 0]], ["e"]), "float": [[0, 1.9], [1.2, 0]],
              "float_whole": [[0.0, 1.0], [1.0, 0.0]], "bool": [[False, True], [True, False]],
              "bool_mixed": [[0, True], [True, 0]], "nested": [[0, 1], [[1], 0]]}
    for name, table in tables.items():
        args = table if isinstance(table, tuple) else (table,)
        rec.value(f"grouprep_err.table_{name}", lambda: grouprep.FiniteGroup.from_table(*args).inverse)
    z2 = grouprep.FiniteGroup.cyclic(2)
    mixed = states.DensityMatrix(np.eye(2, dtype=complex) / 2)
    eye2, eye3 = np.eye(2), np.eye(3)
    for name, us, kw in (("count", [eye2], {}), ("shapes", [eye2, eye3], {}),
                         ("not_unitary", [eye2, 0.9 * eye2], {}),
                         ("not_unitary_then_shape", [0.9 * eye2, eye3], {}),
                         ("ndim", [eye2, np.ones(2)], {}), ("nan", [eye2, np.full((2, 2), np.nan)], {}),
                         ("mu", [eye2, eye2], {"mu": [0.7, 0.7]}), ("mu_shape", [eye2, eye2], {"mu": [1.0]}),
                         ("rho_dim", [eye3, eye3], {"rho": states.DensityMatrix(eye3 / 3)})):
        rec.value(f"grouprep_err.create_{name}", lambda: grouprep.ApproxRep.create(
            z2, us, kw.get("rho", mixed), mu=kw.get("mu")).mu)


def _run_dump(root: pathlib.Path, out: pathlib.Path) -> None:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", COLUMNS="80")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", str(out), str(root / "demos")],
                   env=env, check=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("roots", nargs="*", help="OLD_ROOT NEW_ROOT")
    p.add_argument("--keep", default=None, help="keep the two dumps under this directory")
    p.add_argument("--dump", nargs=2, metavar=("OUT", "DEMOS"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        dump(pathlib.Path(args.dump[0]).resolve(), pathlib.Path(args.dump[1]).resolve())
        return 0
    if len(args.roots) != 2:
        p.error("give OLD_ROOT and NEW_ROOT")
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(args.keep or tmp).resolve()
        old, new = base / "old", base / "new"
        for root, out in ((args.roots[0], old), (args.roots[1], new)):
            _run_dump(pathlib.Path(root).resolve(), out)
        names = sorted({f.name for f in old.iterdir()} | {f.name for f in new.iterdir()})
        differ = [n for n in names if not ((old / n).exists() and (new / n).exists()
                                           and filecmp.cmp(old / n, new / n, shallow=False))]
        for n in differ:
            print(f"differs: {n}")
        print(f"{len(names) - len(differ)} of {len(names)} outputs identical")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
