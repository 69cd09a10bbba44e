import argparse
import itertools
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from uhlmann import adversarial, cli, matcore, states
from uhlmann.errors import BadParamsError
from uhlmann.uhlmann import UhlmannInstance, canonical_w, obliqueness_kappa, random_instance, spectral_gap_eta


@pytest.fixture
def state_files(tmp_path):
    rng = np.random.default_rng(99)
    inst = random_instance(3, rng)
    c_path, d_path = tmp_path / "c.json", tmp_path / "d.json"
    states.write_state(c_path, inst.c)
    states.write_state(d_path, inst.d)
    return inst, str(c_path), str(d_path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canonical_writes_w(state_files, tmp_path, capsys):
    inst, c_path, d_path = state_files
    out = tmp_path / "w.json"
    code, _, err = run_cli(capsys, "canonical", "--c", c_path, "--d", d_path, "--out", str(out))
    assert code == 0 and err == ""
    np.testing.assert_allclose(matcore.read_cmjson(out)[0], canonical_w(inst), atol=1e-12)


def test_report_json(state_files, capsys):
    inst, c_path, d_path = state_files
    code, out, _ = run_cli(capsys, "report", "--c", c_path, "--d", d_path, "--epsilon", "0.01")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["fidelity"] == pytest.approx(inst.fidelity(), abs=1e-12)
    assert payload["delta_bound"] == pytest.approx(
        2 * payload["kappa"] * 0.01 / payload["eta"], abs=1e-12
    )
    assert payload["empirical_primal"] is None


def test_certificate_json(state_files, capsys):
    _, c_path, d_path = state_files
    code, out, _ = run_cli(
        capsys, "certificate", "--c", c_path, "--d", d_path,
        "--epsilon", "0.02", "--probe-trials", "10", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["feasibility_margin"] >= -1e-8
    assert payload["primal_best"] <= payload["dual_bound"] + 1e-6


def test_byte_identical_reruns(state_files, capsys):
    _, c_path, d_path = state_files
    argv = ["report", "--c", c_path, "--d", d_path, "--epsilon", "0.01", "--seed", "3"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_adversarial_eta_csv(capsys):
    code, out, _ = run_cli(capsys, "adversarial", "eta", "--d", "4", "--eta", "0.4", "--tau", "0.5")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["fidelity"]) == pytest.approx(np.sqrt(0.46) + np.sqrt(0.04), abs=1e-4)
    assert float(cols["eta"]) == pytest.approx(0.4, abs=1e-12)
    assert cols["tight"] == "true"


def test_adversarial_kappa_csv(capsys):
    code, out, _ = run_cli(
        capsys, "adversarial", "kappa", "--d", "3", "--lam", "0.02", "--weight", "0.03",
        "--epsilon", "0.1",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["kappa"]) > 5
    assert float(cols["residual"]) >= float(cols["kappa"]) * 0.1**2 - 1e-8


def test_round_gap(state_files, tmp_path, capsys):
    _, c_path, d_path = state_files
    out_c = tmp_path / "c2.json"
    code, out, _ = run_cli(
        capsys, "round-gap", "--c", c_path, "--d", d_path,
        "--eta-target", "0.3", "--out-c", str(out_c),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] >= 0.3 - 1e-8
    assert payload["overlap_c"] >= 1 - 0.09 - 1e-8
    assert states.read_state(out_c).norm() == pytest.approx(1, abs=1e-10)


def test_round_gap_out_d_round_trips_to_the_rounded_d(state_files, tmp_path, capsys):
    _, c_path, d_path = state_files
    out_c, out_d = tmp_path / "c2.json", tmp_path / "d2.json"
    code, out, _ = run_cli(capsys, "round-gap", "--c", c_path, "--d", d_path, "--eta-target", "0.3",
                           "--out-c", str(out_c), "--out-d", str(out_d))
    assert code == 0
    inst = UhlmannInstance.from_states(states.read_state(c_path), states.read_state(d_path))
    rounded = adversarial.round_spectral_gap(inst, 0.3)
    assert json.loads(out)["gap"] == rounded.gap
    for path, pure in ((out_c, rounded.rounded.c), (out_d, rounded.rounded.d)):
        back = states.read_state(path)
        assert back.coeffs.tobytes() == pure.coeffs.tobytes() and back.normalized == pure.normalized


def test_adversarial_qutrit_row_is_the_library_sensitivity(capsys):
    code, out, _ = run_cli(capsys, "adversarial", "qutrit", "--epsilon", "0.01")
    assert code == 0
    sens = adversarial.qutrit_sensitivity(0.01)
    row = ["qutrit", 3, sens.perturbed.fidelity(), float("nan"), float("nan"), 0.01,
           sens.w_distance, sens.state_distance, False]
    assert out.splitlines() == [",".join(cli._ADV_HEADER), ",".join(map(matcore.format_value, row))]


def test_protocol_on_state_files_is_the_library_trial_loop(tmp_path, capsys):
    from uhlmann import protocol

    pair = random_instance(4, np.random.default_rng(44))  # B is 2^n-dimensional at the default n = 2
    c_path, d_path, csv = tmp_path / "c.json", tmp_path / "d.json", tmp_path / "trials.csv"
    states.write_state(c_path, pair.c)
    states.write_state(d_path, pair.d)
    code, out, _ = run_cli(capsys, "protocol", "--c", str(c_path), "--d", str(d_path), "--r", "3",
                           "--trials", "20", "--seed", "1", "--out", str(csv))
    assert code == 0
    inst = UhlmannInstance.from_states(states.read_state(c_path), states.read_state(d_path))
    params = protocol.ProtocolParams.for_instance(inst, 2, 3)
    inv, outs = protocol._trial_loop(inst, params, protocol.honest_prover(inst), (1,), 20)
    payload = json.loads(out)
    assert (payload["prover"], payload["m"], payload["gamma"], payload["threshold"]) == (
        "honest", params.m, params.gamma, params.threshold)
    assert payload["accept_probability"] == inv.accept_probability
    assert payload["acceptance_rate"] == sum(o.accepted for o in outs) / 20
    rows = [[t, o.accepted, o.j, o.i_star, o.output_state_fidelity] for t, o in enumerate(outs)]
    assert csv.read_text().splitlines()[1:] == [",".join(map(matcore.format_value, row)) for row in rows]


def test_protocol_summary(tmp_path, capsys):
    trials_csv = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        capsys, "protocol", "--n", "2", "--r", "2", "--trials", "50",
        "--seed", "7", "--prover", "honest", "--out", str(trials_csv),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] >= 1
    assert 0 <= payload["acceptance_rate"] <= 1
    lines = trials_csv.read_text().strip().splitlines()
    assert lines[0].startswith("trial,")
    assert len(lines) == 51


def test_grouprep_lines(capsys):
    code, out, _ = run_cli(
        capsys, "grouprep", "--group", "z2", "--scale", "0.2", "--count", "3", "--seed", "1",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert row["stability_distance"] <= row["defect_epsilon"] + 1e-6
        assert row["eta"] == pytest.approx(1, abs=1e-8)


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows":1,"cols":2,"data":[[1.0,0.0]]}')
    code, _, err = run_cli(capsys, "canonical", "--c", str(bad), "--d", str(bad))
    assert code == 2
    assert json.loads(err)["error"]


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "report", "--c", "nope.json", "--d", "nope.json")
    assert code == 2
    assert "message" in json.loads(err)


def test_ci_strict_requires_seed(monkeypatch, state_files, capsys):
    monkeypatch.setenv("CI_STRICT", "1")
    code, _, err = run_cli(capsys, "protocol", "--n", "1", "--r", "2", "--trials", "5")
    assert code == 2
    assert "seed" in json.loads(err)["message"]
    code2, out, _ = run_cli(
        capsys, "protocol", "--n", "1", "--r", "2", "--trials", "5", "--seed", "0"
    )
    assert code2 == 0
    # only a randomized run needs one: report draws only with a probe
    _, c_path, d_path = state_files
    assert run_cli(capsys, "report", "--c", c_path, "--d", d_path)[0] == 0
    assert run_cli(capsys, "report", "--c", c_path, "--d", d_path, "--probe-trials", "5")[0] == 2


def test_canonical_takes_the_library_rank_rule_by_default(tmp_path, capsys):
    # Tr_A |D><C| has relative singular values 1, 1, 7.1e-11, 7.1e-11: the library rule
    # (4e-12) keeps all four, as report's eta = 1e-10 does; a cut at 1e-9 keeps two
    fam = adversarial.build_eta_family(4, 1e-10, 0.5)
    c_path, d_path = str(tmp_path / "c.json"), str(tmp_path / "d.json")
    states.write_state(c_path, fam.instance.c)
    states.write_state(d_path, fam.instance.d)
    inst = UhlmannInstance.from_states(states.read_state(c_path), states.read_state(d_path))
    files = ["--c", c_path, "--d", d_path]
    code, out, _ = run_cli(capsys, "canonical", *files)
    assert code == 0 and out == matcore.matrix_json_text(canonical_w(inst))
    assert np.linalg.matrix_rank(canonical_w(inst)) == 4
    assert json.loads(run_cli(capsys, "report", *files)[1])["eta"] == pytest.approx(1e-10, rel=1e-6)
    code, out, _ = run_cli(capsys, "canonical", *files, "--tol", "1e-9")
    assert code == 0 and out == matcore.matrix_json_text(canonical_w(inst, rank_tol=1e-9))
    assert np.linalg.matrix_rank(canonical_w(inst, rank_tol=1e-9)) == 2


def test_tol_range_validated(state_files, capsys):
    _, c_path, d_path = state_files
    code, _, err = run_cli(capsys, "canonical", "--c", c_path, "--d", d_path, "--tol", "0.5")
    assert code == 2
    assert "tol" in json.loads(err)["message"]


# `report` on the eta family at eta = 1e-3 (d = 4) at the default cut:
# B = sigma^1/2 rho^1/2 has singular value ratio sqrt(delta / (1 - delta)),
# 7.1e-4, above the default cut 4e-12 and below 1e-3.
REPORT_ETA_1E3 = (
    '{"delta_bound":20,"empirical_primal":null,"epsilon":0.01,'
    '"eta":0.001,"fidelity":0.70760660440983014,"kappa":1,'
    '"schema_version":1,"weak_bound":3.1391471647213587}\n'
)


def test_report_and_certificate_pass_tol_as_rank_tol(tmp_path, capsys):
    fam = adversarial.build_eta_family(4, 1e-3, 0.5)
    c_path, d_path = str(tmp_path / "c.json"), str(tmp_path / "d.json")
    states.write_state(c_path, fam.instance.c)
    states.write_state(d_path, fam.instance.d)
    files = ["--c", c_path, "--d", d_path]
    code, out, _ = run_cli(capsys, "report", *files)
    assert code == 0 and out == REPORT_ETA_1E3
    code, out, _ = run_cli(capsys, "report", *files, "--tol", "1e-3")
    assert code == 0
    cut = json.loads(out)
    # the light half of sigma is cut away: the gap jumps to sqrt(2 (1 - delta))
    assert cut["eta"] == pytest.approx(np.sqrt(2 * (1 - 5e-7)), rel=1e-12)
    assert cut["delta_bound"] == pytest.approx(2 * 0.01 / cut["eta"], rel=1e-12)
    _, default_cert, _ = run_cli(capsys, "certificate", *files)
    _, cut_cert, _ = run_cli(capsys, "certificate", *files, "--tol", "1e-3")
    assert json.loads(default_cert)["alpha"] == pytest.approx(-1 / 1e-3, rel=1e-12)
    assert json.loads(cut_cert)["alpha"] == pytest.approx(-1 / cut["eta"], rel=1e-12)
    code, _, err = run_cli(capsys, "report", *files, "--tol", "0.5")
    assert code == 2 and "tol" in json.loads(err)["message"]


def test_report_tol_takes_fidelity_at_the_cut(tmp_path, capsys):
    inst = adversarial.build_eta_family(4, 1e-3, 0.5).instance
    c_path, d_path = str(tmp_path / "c.json"), str(tmp_path / "d.json")
    states.write_state(c_path, inst.c)
    states.write_state(d_path, inst.d)
    code, out, _ = run_cli(capsys, "report", "--c", c_path, "--d", d_path, "--tol", "1e-3")
    assert code == 0
    cut = json.loads(out)
    f = inst.spectral_core(1e-3).fidelity
    assert cut["fidelity"] == f
    assert cut["fidelity"] == pytest.approx(0.70710660440983, abs=1e-12)
    assert cut["weak_bound"] == pytest.approx(8 * (1 - f + np.sqrt(0.01)), rel=1e-14)


@pytest.mark.parametrize("argv", [
    ["canonical", "--seed", "1"],
    ["adversarial", "eta", "--seed", "1"],
    ["round-gap", "--eta-target", "0.3", "--seed", "1"],
    ["adversarial", "eta", "--tol", "1e-6"],
    ["round-gap", "--eta-target", "0.3", "--tol", "1e-6"],
    ["protocol", "--seed", "1", "--tol", "1e-6"],
    ["grouprep", "--seed", "1", "--tol", "1e-6"],
])
def test_flags_no_handler_reads_are_rejected(argv, state_files, capsys):
    _, c_path, d_path = state_files
    files = ["--c", c_path, "--d", d_path] if argv[0] in ("canonical", "round-gap") else []
    code, out, err = run_cli(capsys, *argv, *files)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_unknown_subcommand_usage(capsys):
    assert cli.main(["frobnicate"]) == 2


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("prover", ["honest", "derangement", "random", "epsilon:0.05"])
def test_protocol_matches_golden_bytes(prover, tmp_path, capsys):
    # stdout and CSV of the block stream: each trial draws i* and then j ~ Binomial(m - 1, p) from the
    # generator of its 64-trial block
    csv = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        capsys, "protocol", "--n", "2", "--r", "2", "--trials", "50", "--seed", "3",
        "--prover", prover, "--out", str(csv),
    )
    name = "protocol_" + prover.replace(":", "_")
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("group", ["s3", "z4"])
def test_grouprep_matches_golden_bytes(group, capsys):
    for _ in range(2):  # the second call takes the group its process built first
        code, out, _ = run_cli(
            capsys, "grouprep", "--group", group, "--seed", "3", "--count", "2", "--scale", "0.3",
        )
        assert code == 0
        assert out.encode() == (GOLDEN / f"grouprep_{group}.stdout").read_bytes()


def test_error_line_is_written_by_json_line(capsys):
    code, out, err = run_cli(capsys, "protocol", "--trials", "0", "--seed", "1")
    assert code == 2 and out == ""
    assert err == matcore.json_line({"error": "BadParamsError", "message": "--trials must be >= 1, got 0"})
    assert err == '{"error":"BadParamsError","message":"--trials must be >= 1, got 0"}\n'


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_protocol_rejects_trials_below_one(trials, capsys):
    code, out, err = run_cli(capsys, "protocol", "--trials", trials, "--seed", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParamsError"


@pytest.mark.parametrize("cmd", ["report", "certificate"])
def test_probe_trials_below_one_is_a_bad_param(cmd, state_files, capsys):
    _, c_path, d_path = state_files
    code, out, err = run_cli(capsys, cmd, "--c", c_path, "--d", d_path, "--probe-trials", "-3", "--seed", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "BadParamsError", "message": "--probe-trials must be >= 0, got -3"}


@pytest.mark.parametrize("argv", [
    ["protocol", "--trials", "5"],
    ["grouprep", "--count", "1"],
    ["report", "--probe-trials", "5"],
    ["report"],
    ["certificate"],
], ids=["protocol", "grouprep", "report_probe", "report", "certificate"])
def test_a_negative_seed_is_a_bad_param(argv, state_files, capsys):
    # checked whenever it is given, also where no draw reads it
    _, c_path, d_path = state_files
    files = ["--c", c_path, "--d", d_path] if argv[0] in ("report", "certificate") else []
    code, out, err = run_cli(capsys, *argv, *files, "--seed", "-1")
    assert code == 2 and out == ""
    assert err == '{"error":"BadParamsError","message":"--seed must be >= 0, got -1"}\n'


@pytest.mark.parametrize("count", ["0", "-2"])
def test_grouprep_rejects_count_below_one(count, capsys):
    code, out, err = run_cli(capsys, "grouprep", "--count", count, "--seed", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParamsError"


@pytest.mark.parametrize("flag", ["--c", "--d"])
def test_protocol_requires_both_state_files(flag, state_files, capsys):
    _, c_path, _ = state_files
    for path in (c_path, "missing.json"):
        code, out, err = run_cli(capsys, "protocol", flag, path, "--trials", "5", "--seed", "1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "BadParamsError"


def test_protocol_calls_run_protocol_once_per_trial(monkeypatch, capsys):
    from uhlmann import protocol

    calls = []
    orig = protocol.run_protocol

    def counted(*args, **kwargs):
        calls.append(args[4] if len(args) > 4 else kwargs["seed"])
        return orig(*args, **kwargs)

    monkeypatch.setattr(protocol, "run_protocol", counted)
    code, _, _ = run_cli(capsys, "protocol", "--trials", "130", "--seed", "5")
    assert code == 0
    # each call draws from its block's generator: three of them, for 64, 64 and 2 trials
    assert len(calls) == 130 and all(isinstance(g, np.random.Generator) for g in calls)
    assert len({id(g) for g in calls}) == 3
    assert [len(list(run)) for _, run in itertools.groupby(calls, key=id)] == [64, 64, 2]


def test_protocol_rows_are_a_prefix_of_longer_runs(tmp_path, capsys):
    # trial t depends only on the seed and on t, not on the trial count
    rows = {}
    for trials in (37, 130):
        csv = tmp_path / f"trials{trials}.csv"
        code, _, _ = run_cli(capsys, "protocol", "--trials", str(trials), "--seed", "5", "--out", str(csv))
        assert code == 0
        rows[trials] = csv.read_text().splitlines()
    assert len(rows[130]) == 131
    assert rows[37] == rows[130][:38]


def test_protocol_rejects_rounds_past_int64(capsys):
    code, out, err = run_cli(capsys, "protocol", "--prover", "derangement", "--eta", "1e-10", "--seed", "1")
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "BadParamsError" and payload["message"].startswith("m = ")


def test_protocol_trial_cost_does_not_grow_with_m(tmp_path):
    # m = 6.4e9: m - 1 uniforms per trial would take 51 GB, one binomial draw takes none; the
    # address space is capped at 4 GB so that a regression fails here instead of exhausting memory
    argv = ["protocol", "--prover", "derangement", "--eta", "1e-4", "--trials", "200", "--seed", "1"]
    script = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from uhlmann import cli\n"
        "start = time.perf_counter()\n"
        f"code = cli.main({argv!r})\n"
        "print(time.perf_counter() - start, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["m"] > 2**32
    assert float(run.stderr) < 1.0


@pytest.mark.parametrize("n", ["0", "-1"])
def test_protocol_rejects_n_below_one(n, capsys):
    code, out, err = run_cli(capsys, "protocol", "--n", n, "--trials", "5", "--seed", "1")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "BadParamsError", "message": "n and r must be positive integers"}


@pytest.mark.parametrize("prover", ["honest", "derangement"])
def test_protocol_caps_n_for_the_built_in_instances(prover, capsys):
    # 2^40 dimensions: without the cap the first allocation fails at once, and its MemoryError escaped cli.main
    code, out, err = run_cli(capsys, "protocol", "--n", "40", "--trials", "2", "--seed", "1", "--prover", prover)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "BadParamsError", "message": "--n must be <= 10 without --c/--d, got 40"}


def test_protocol_help_states_the_n_cap(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run_cli(capsys, "protocol", "--help")
    assert code == 0 and f"at most {cli.MAX_BUILTIN_N} without --c/--d" in " ".join(out.split())


@pytest.mark.parametrize("family", ["kappa", "boost"])
@pytest.mark.parametrize("d", ["0", "1", "-1"])
def test_adversarial_kappa_rejects_d_below_two(family, d, capsys):
    code, out, err = run_cli(capsys, "adversarial", family, "--d", d)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "BadParamsError", "message": "d must be >= 2"}


def run_cli_strict(capsys, *argv):
    """``run_cli`` with warnings as errors, so numpy's RuntimeWarnings cannot reach stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, *argv)


@pytest.mark.parametrize("argv,message", [
    (["--dim", "-1"], "dim must be >= 1, got -1"),
    (["--dim", "0"], "dim must be >= 1, got 0"),
    (["--scale", "inf"], "scale must be finite, got inf"),
    (["--scale", "nan"], "scale must be finite, got nan"),
])
def test_grouprep_rejects_bad_dim_and_scale(argv, message, capsys):
    code, out, err = run_cli_strict(capsys, "grouprep", "--seed", "1", "--count", "1", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "BadParamsError", "message": message}


@pytest.mark.parametrize("table,message", [
    ([[0, 1.9], [1.2, 0]], "table entries must be integers"),
    ([[False, True], [True, False]], "table entries must be integers"),
    ([[0, 1], [1]], "multiplication table must be square and nonempty"),
])
def test_grouprep_rejects_malformed_table_files(table, message, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"order": 2, "table": table}))
    code, out, err = run_cli_strict(capsys, "grouprep", "--group", str(path), "--dim", "2",
                                    "--count", "1", "--seed", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "BadParamsError", "message": message}


@pytest.mark.parametrize("family", ["kappa", "boost"])
@pytest.mark.parametrize("argv,message", [
    (["--weight", "2"], "weight must lie in [0, 1], got 2.0"),
    (["--weight", "nan"], "weight must lie in [0, 1], got nan"),
    (["--weight", "-0.5"], "weight must lie in [0, 1], got -0.5"),
    (["--lam", "0"], "--lam must lie in (0, 1/(d-1)), got 0.0"),  # kappa_rho's closed range takes 0
    (["--lam", "-0.0"], "--lam must lie in (0, 1/(d-1)), got -0.0"),
    (["--lam", "-0.1"], "--lam must lie in (0, 1/(d-1)), got -0.1"),
    (["--lam", "inf"], "--lam must lie in (0, 1/(d-1)), got inf"),
    (["--lam", "nan"], "--lam must lie in (0, 1/(d-1)), got nan"),
    (["--d", "3", "--lam", "0.6"], "--lam must lie in (0, 1/(d-1)), got 0.6"),
])
def test_adversarial_kappa_rejects_bad_weight_and_lam(family, argv, message, capsys):
    code, out, err = run_cli_strict(capsys, "adversarial", family, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "BadParamsError", "message": message}


@pytest.mark.parametrize("family", ["kappa", "boost"])
@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_adversarial_lam_top_is_kappa_rhos(family, d, capsys):
    # kappa_rho takes the top of its closed range, where rho's first eigenvalue 1 - (d-1) lam is 0; the
    # CLI's range is open there, so the top gets the flag message.  The float just below the top passes
    # the flag and is refused by the family's build.  At d = 4 and 7, (d-1) times the next float above
    # the top rounds to 1: kappa_rho's own comparison still refuses it
    top = 1.0 / (d - 1)
    below, above = (float(np.nextafter(top, x)) for x in (0.0, np.inf))
    adversarial.kappa_rho(d, top)
    with pytest.raises(BadParamsError, match=r"^lam must lie in \[0, 1/\(d-1\)\]"):
        adversarial.kappa_rho(d, above)
    for lam in (top, above):
        code, out, err = run_cli_strict(capsys, "adversarial", family, "--d", str(d), "--lam", repr(lam))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "BadParamsError", "message": f"--lam must lie in (0, 1/(d-1)), got {lam}"}
    code, out, err = run_cli_strict(capsys, "adversarial", family, "--d", str(d), "--lam", repr(below))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "NotInvertibleError", "message": "rho must be invertible"}
    # a d below 2 keeps kappa_rho's message, whatever --lam
    code, _, err = run_cli_strict(capsys, "adversarial", family, "--d", "1", "--lam", "0.6")
    assert code == 2 and json.loads(err) == {"error": "BadParamsError", "message": "d must be >= 2"}


@pytest.mark.parametrize("eps", ["-1", "nan", "inf"])
def test_epsilon_must_be_finite_and_nonnegative(eps, state_files, capsys):
    _, c_path, d_path = state_files
    files = ["--c", c_path, "--d", d_path]
    for argv in (["report", *files, "--epsilon", eps], ["certificate", *files, "--epsilon", eps],
                 ["protocol", "--prover", f"epsilon:{eps}", "--trials", "5", "--seed", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "BadParamsError"
        assert error["message"].startswith("epsilon must be finite and >= 0")


@pytest.mark.parametrize("cmd,scale,field", [("report", 0.75, "delta_bound"), ("certificate", 0.75, "dual_bound"),
                                              ("certificate", 1.5, "value")])
def test_a_bound_past_the_float_range_exits_2_instead_of_printing_inf(cmd, scale, field, state_files, capsys):
    # the bounds are about 2 (kappa/eta) eps and the certificate's value about (kappa/eta) eps
    inst, c_path, d_path = state_files
    ratio = obliqueness_kappa(inst) / spectral_gap_eta(inst)
    eps = repr(scale * (sys.float_info.max / ratio))
    code, out, err = run_cli_strict(capsys, cmd, "--c", c_path, "--d", d_path, "--epsilon", eps)
    assert code == 2 and out == "" and err.count("\n") == 1  # and no overflow warning
    assert json.loads(err) == {"error": "ValueError", "message": f"{field} is inf, which JSON cannot hold"}


def test_json_lines_refuse_non_finite_floats_and_csv_keeps_nan(capsys):
    for bad in (float("inf"), float("-inf"), float("nan"), np.float64("inf")):
        with pytest.raises(ValueError, match="^x is .*, which JSON cannot hold$"):
            matcore.json_line({"a": 1.0, "x": bad})
    code, out, _ = run_cli(capsys, "adversarial", "boost")  # its residual and bound columns are nan
    assert code == 0 and out.splitlines()[1].endswith(",nan,nan,false")


def test_epsilon_zero_is_accepted(state_files, capsys):
    _, c_path, d_path = state_files
    files = ["--c", c_path, "--d", d_path]
    for argv in (["report", *files, "--epsilon", "0"], ["certificate", *files, "--epsilon", "0"],
                 ["protocol", "--prover", "epsilon:0", "--trials", "5", "--seed", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["schema_version"] == 1


ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_shared_parser_matches_fresh_processes(state_files, tmp_path, monkeypatch, capsys):
    # one process runs the sequence, usage errors and --help in the middle;
    # each call must print what a fresh interpreter prints for the same argv
    _, c_path, d_path = state_files
    files = ["--c", c_path, "--d", d_path]
    sequence = [
        ["report", *files],
        ["report", *files, "--bogus"],
        ["certificate", *files, "--probe-trials", "5", "--seed", "2"],
        ["--help"],
        ["protocol", "--trials", "20", "--seed", "4"],
        ["canonical", "--c", str(tmp_path / "missing.json"), "--d", d_path],
        ["grouprep", "--group", "s3", "--count", "2", "--seed", "3"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    monkeypatch.delenv("CI_STRICT", raising=False)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    codes = []
    for argv in sequence:
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "uhlmann", *argv], cwd=tmp_path, env=env,
                               capture_output=True, timeout=120)
        assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0, 0, 2, 0]


def test_second_call_builds_no_parser(monkeypatch, capsys):
    assert run_cli(capsys, "adversarial", "eta")[0] == 0
    # count through __init__: a subclass patched over argparse.ArgumentParser
    # recurses, since argparse's own __init__ looks its class up by name
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "adversarial", "eta")[0] == 0
    assert run_cli(capsys, "adversarial", "eta", "--bogus")[0] == 2
    assert built == []


# The determinism scope: at a fixed BLAS thread count every output is byte-identical; across
# thread counts the large-d outputs move in their last digits, since a threaded BLAS sums
# in another order.  Pairs: random_instance(d, default_rng(s), rank_c=d/2, rank_d=d/2 - 3)
# for s in {5, 7}, and the full-rank seed-7 pair.
THREAD_SCOPE_PAIRS = [(d, s, rank_c, rank_d) for d in (64, 128)
                      for s, rank_c, rank_d in ((5, d // 2, d // 2 - 3), (7, d // 2, d // 2 - 3), (7, d, d))]
_RUN_ARGVS = """import json, sys
from uhlmann import cli
sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_outputs_across_blas_thread_counts(tmp_path):
    commands = {"canonical": [], "report": ["--epsilon", "0.01"], "certificate": ["--epsilon", "0.01"]}
    argvs, outputs = [], {}
    for d, s, rank_c, rank_d in THREAD_SCOPE_PAIRS:
        inst = random_instance(d, np.random.default_rng(s), rank_c=rank_c, rank_d=rank_d)
        name = f"d{d}_s{s}_r{rank_c}"
        files = []
        for side, state in (("c", inst.c), ("d", inst.d)):
            states.write_state(tmp_path / f"{name}.{side}.json", state)
            files += [f"--{side}", str(tmp_path / f"{name}.{side}.json")]
        for cmd, flags in commands.items():
            outputs[d, name, cmd] = tmp_path / f"{name}.{cmd}"
            argvs.append([cmd, *files, *flags, "--out", str(outputs[d, name, cmd])])
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    texts = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _RUN_ARGVS, json.dumps(argvs)], env=env,
                             capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr
        texts[threads] = {key: out.read_text() for key, out in outputs.items()}
    for (d, name, cmd), one in texts["1"].items():
        two = texts["2"][d, name, cmd]
        if d <= 64:
            assert one == two, (name, cmd)
            continue
        one, two = json.loads(one), json.loads(two)
        assert one.keys() == two.keys()
        if cmd == "canonical":
            w1, w2 = (np.array(x["data"]) for x in (one, two))
            assert np.abs(w1 - w2).max() <= 1e-10 * np.abs(w1).max(), name
            continue
        for key, value in one.items():
            if key == "feasibility_margin":  # rounding noise around zero: compared absolutely
                assert abs(value - two[key]) <= 1e-12, (name, key)
            elif isinstance(value, float):
                assert value == pytest.approx(two[key], rel=1e-10, abs=0), (name, key)
            else:
                assert value == two[key], (name, key)


_STATE = '{"cols":2,"data":[[0.6,0.0],[0.0,0.8]],"dim_a":1,"dim_b":2,"normalized":true,"rows":1}'


_TYPED = {
    "top_list": ("[1,2]", "cmjson must be a JSON object, got list"),
    "rows_list": (_STATE.replace('"rows":1', '"rows":[1]'), "cmjson field rows must be an integer >= 0, got [1]"),
    "rows_string": (_STATE.replace('"rows":1', '"rows":"1"'), "cmjson field rows must be an integer >= 0, got '1'"),
    "rows_bool": (_STATE.replace('"rows":1', '"rows":true'), "cmjson field rows must be an integer >= 0, got True"),
    "cols_float": (_STATE.replace('"cols":2', '"cols":1.9'), "cmjson field cols must be an integer >= 0, got 1.9"),
    "cols_whole_float": (_STATE.replace('"cols":2', '"cols":2.0'), "cmjson field cols must be an integer >= 0, got 2.0"),
    "dim_a_null": (_STATE.replace('"dim_a":1', '"dim_a":null'),
                   "state file field dim_a must be an integer >= 0, got None"),
    "dim_b_negative": (_STATE.replace('"dim_b":2', '"dim_b":-2'),
                       "state file field dim_b must be an integer >= 0, got -2"),
    "data_number": (_STATE.replace("[[0.6,0.0],[0.0,0.8]]", "5"),
                    "cmjson data must be a list of [re, im] pairs, got int"),
    "data_string": (_STATE.replace("[[0.6,0.0],[0.0,0.8]]", '"ab"'),
                    "cmjson data must be a list of [re, im] pairs, got str"),
    "entry_string": (_STATE.replace("0.6,0.0", '"1",0'), "cmjson data entries must be [re, im] pairs of numbers"),
    "entry_bool": (_STATE.replace("0.6,0.0", "true,0"), "cmjson data entries must be [re, im] pairs of numbers"),
    "entry_null": (_STATE.replace("0.6,0.0", "null,0"), "cmjson data entries must be [re, im] pairs of numbers"),
    "pair_string": (_STATE.replace("[0.6,0.0]", '"ab"'), "cmjson data entries must be [re, im] pairs of numbers"),
    "pair_object": (_STATE.replace("[0.6,0.0]", '{"a":0.6,"b":0}'),
                    "cmjson data entries must be [re, im] pairs of numbers"),
    "pair_number": (_STATE.replace("[0.6,0.0]", "0.6"), "cmjson data entries must be [re, im] pairs of numbers"),
    "pairs_ragged": (_STATE.replace("[0.6,0.0],[0.0,0.8]", "[0.6,0.0,0.0],[0.8]"),
                     "cmjson data entries must be [re, im] pairs of numbers"),
    "huge_integer": (_STATE.replace("0.6,0.0", "1" + "0" * 400 + ",0"),
                     "cmjson data holds an integer too large for a float"),
    "normalized_string": (_STATE.replace('"normalized":true', '"normalized":"no"'),
                          "state file field normalized must be true or false, got 'no'"),
    "normalized_number": (_STATE.replace('"normalized":true', '"normalized":1'),
                          "state file field normalized must be true or false, got 1"),
}


@pytest.mark.parametrize("name", sorted(_TYPED))
def test_wrongly_typed_state_files_exit_2_naming_the_field(name, state_files, tmp_path, capsys):
    (text, message), (_, c_path, d_path) = _TYPED[name], state_files
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="ascii")
    for argv in (["--c", str(bad), "--d", d_path], ["--c", c_path, "--d", str(bad)]):
        code, out, err = run_cli(capsys, "report", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}


def test_integer_data_stays_valid_and_reads_as_floats(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(_STATE.replace("[[0.6,0.0],[0.0,0.8]]", "[[0,1],[-0,0]]").replace('"normalized":true',
                                                                                          '"normalized":false'))
    coeffs = states.read_state(path).coeffs
    assert coeffs.dtype == complex and coeffs.tobytes() == np.array([[1j, 0]]).tobytes()


@pytest.mark.parametrize("obj,message", [
    pytest.param([1, 2], "group file must hold a JSON object, got list", id="top_list"),
    pytest.param({"order": 2, "table": [[0, 1], [1, 0]], "labels": 5}, "labels field must be a list, got 5",
                 id="labels_number"),
    pytest.param({"order": 2, "table": [[0, 1], [1, 0]], "labels": "ab"}, "labels field must be a list, got 'ab'",
                 id="labels_string"),
])
def test_wrongly_typed_group_files_exit_2_naming_the_field(obj, message, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli_strict(capsys, "grouprep", "--group", str(path), "--count", "1", "--seed", "1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "BadParamsError", "message": message}
