"""End-to-end command line checks (subprocess level, plus in-process exit codes)."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from schurhr import acceptance, analysis, cli, quadforms
from schurhr.errors import DegreeMismatchError
from schurhr.partitions import partitions_up_to
from schurhr.polyring import MultiPoly, elementary
from schurhr.schur import schur_jt

CLI = [sys.executable, "-m", "schurhr"]


def run(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600, **kw
    )


@pytest.fixture()
def config(tmp_path):
    cfg = {
        "space": {"factors": [2, 3]},
        "bundles": {
            "E": {"lines": [[1, 0], [1, 0], [0, 1]], "twist": ["0", "0"]},
        },
        "partitions": {"col3": [1, 1, 1]},
        "seed": 42,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_schur_prints_the_polynomial():
    r = run("schur", "--lambda", "1,1", "--vars", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "x1^2 + x1*x2 + x2^2"


def test_schur_elementary_basis():
    r = run("schur", "--lambda", "1,1,1", "--vars", "3", "--basis", "c")
    assert r.returncode == 0
    assert r.stdout.strip() == "c1^3 - 2*c1*c2 + c3"


def _from_elementary_rendering(text, e):
    """The polynomial in e variables that an e-basis rendering such as
    "c1^3 - 2*c1*c2 + c3" stands for, with c_k = elementary(k, e)."""
    tokens = text.split(" ")
    if tokens[0].startswith("-"):
        tokens[0:1] = ["-", tokens[0][1:]]
    else:
        tokens.insert(0, "+")
    total = MultiPoly.zero(e)
    for sign, body in zip(tokens[::2], tokens[1::2]):
        term = MultiPoly.constant(-1 if sign == "-" else 1, e)
        for factor in body.split("*"):
            if factor.startswith("c"):
                k, _, power = factor[1:].partition("^")
                term = term * elementary(int(k), e) ** int(power or 1)
            else:
                term = term.scale(Fraction(factor))
        total = total + term
    return total


@pytest.mark.parametrize("e", range(5))
def test_schur_elementary_basis_is_the_polynomial(e, capsys):
    # every shape of weight <= 6, every slice and one on each side of the
    # range: c_k -> elementary(k, e) in the rendering gives the "poly" field
    for lam in partitions_up_to(6):
        spec = ",".join(map(str, lam.normalized)) or "0"
        for derived in [None, *range(-1, lam.weight + 2)]:
            argv = ["schur", "--lambda", spec, "--vars", str(e), "--basis", "c", "--json"]
            if derived is not None:
                argv += ["--derived", str(derived)]
            assert cli.main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            want = MultiPoly.from_json(payload["poly"], e)
            assert _from_elementary_rendering(payload["rendered"], e) == want, argv


def test_form_reproduces_the_counterexample_matrix(config):
    r = run(
        "form", "--config", config, "--bundle", "E",
        "--term", "3/4:3", "--term", "1/4:1,1,1",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["matrix"] == [["1/4", "1/2"], ["1/2", "3/2"]]
    assert payload["inertia"] == {"n_plus": 2, "n_minus": 0, "n_zero": 0}
    assert payload["is_hr"] is False
    assert payload["is_weak_hr"] is False


def test_class_subcommand(config):
    r = run("class", "--config", config, "--bundle", "E", "--lambda", "col3")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["rendered"] == "3*t1^2*t2 + 2*t1*t2^2 + t2^3"


def test_chern_subcommand_inline_bundle():
    r = run(
        "chern", "--space", "2,3", "--lines", "1,0;1,0;0,1", "--twist", "0,0",
        "-p", "1",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["rendered"] == "2*t1 + t2"
    assert payload["twist_rule_agrees"] is True


def test_kt_subcommand_json_and_csv(tmp_path):
    args = [
        "kt", "--space", "2", "--lines", "1;1", "--bundle2-lines", "1;1",
        "--lambda", "1,1", "--mu", "1,1",
    ]
    r = run(*args)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["sequence"]["values"] == ["9", "36", "9"]
    assert payload["log_concave"] is True
    r = run(*args, "--format", "csv")
    assert r.returncode == 0
    assert r.stdout == "i,value\n0,9\n1,36\n2,9\n"
    out = tmp_path / "kt.csv"
    r = run(*args, "--format", "csv", "--output", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert out.read_text() == "i,value\n0,9\n1,36\n2,9\n"


def test_seq_subcommand(tmp_path):
    r = run("seq", "--lambda", "1,1", "--point", "1,1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["sequence"]["values"] == ["3", "6", "3"]
    out = tmp_path / "seq.csv"
    r = run("seq", "--lambda", "1,1", "--point", "1,1", "--format", "csv", "--output", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert out.read_text() == "i,value\n0,3\n1,6\n2,3\n"


def test_polya_subcommand():
    r = run("polya", "--mus", "1,2,1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["minors_nonneg"] and payload["real_rooted"]
    assert payload["minors_search"] == {"kind": "bounded", "width_cap": 12, "h_cap": 60}
    r = run("polya", "--mus", "1,0,1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["routes_agree"] and not payload["real_rooted"]
    # past the length cap only the root route runs, and no search is reported
    r = run("polya", "--mus", ",".join(["1"] * 9))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["minors_nonneg"] is None and payload["minors_search"] is None
    assert payload["routes_agree"] is None and payload["real_rooted"] is False


@pytest.mark.parametrize("mus", ["1,2,1", "1,8,28,56,70,56,28,8,1"])
def test_polya_combination_verdict_reaches_the_exit_code(mus, monkeypatch, capsys):
    # the root route decides the sequence on both sides of the length cap
    monkeypatch.setattr(quadforms.InertiaTriple, "is_weak_hr", False)
    argv = ["polya", "--space", "2,3", "--lines", "1,0;1,0;0,1", "--lambda", "1,1,1",
            "--mus", mus]
    assert cli.main(argv) == cli.CHECK_VIOLATION
    assert json.loads(capsys.readouterr().out)["combination"]["is_weak_hr"] is False


def test_hr_scan(config):
    r = run(
        "hr-scan", "--config", config, "--bundle", "E", "--lambda", "col3",
        "--t-values", "1/10,1/4,1",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert all(rec["is_hr"] for rec in payload["scan"])


@pytest.mark.parametrize("count", ["0", "-1"])
def test_hr_scan_rejects_a_t_count_below_1(config, count, capsys):
    # a scan that tested no twist must not report a pass
    argv = ["hr-scan", "--config", config, "--bundle", "E", "--lambda", "col3",
            "--t-count", count]
    assert cli.main(argv) == cli.USAGE_ERROR
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --t-count must be at least 1, got {count}\n"


def test_hr_scan_ignores_t_count_given_t_values(config):
    # --t-count only sizes a random draw; explicit twists are still scanned
    r = run(
        "hr-scan", "--config", config, "--bundle", "E", "--lambda", "col3",
        "--t-values", "1/2", "--t-count", "0",
    )
    assert r.returncode == 0
    assert [rec["t"] for rec in json.loads(r.stdout)["scan"]] == ["1/2"]


@pytest.mark.parametrize("argv, forms_of", [
    (["form", "--bundle", "E", "--term", "3/4:3", "--term", "1/4:1,1,1"], lambda p: [p]),
    (["polya", "--mus", "1,2,1", "--bundle", "E", "--lambda", "2,1"],
     lambda p: [p["combination"]]),
    (["hr-scan", "--bundle", "E", "--lambda", "col3", "--t-values", "1/10,1/4,1"],
     lambda p: p["scan"]),
    (["--paper-examples"], lambda p: p["convex_mix"]),
])
def test_each_reported_form_is_reduced_once(config, monkeypatch, capsys, argv, forms_of):
    real, calls = quadforms.inertia, []

    def spy(m):
        calls.append(m)
        return real(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("schurhr") and getattr(mod, "inertia", None) is real:
            monkeypatch.setattr(mod, "inertia", spy)
    if argv[0] != "--paper-examples":
        argv = [argv[0], "--config", config, *argv[1:]]
    assert cli.main(argv) == 0
    forms = forms_of(json.loads(capsys.readouterr().out))
    assert all(set(f) >= {"matrix", "inertia", "is_hr", "is_weak_hr"} for f in forms)
    assert len(calls) == len(forms) > 0


@pytest.mark.parametrize("extra, message", [
    (["--lines", "-1,0;0,1"], "bundle is not nef"),
    (["--lines", "1,0;0,1", "--h", "-1,1"], "h is not nef"),
    (["--lines", "1,0;0,1", "--h", "1,0"], "h is not ample"),
    (["--lines", "1,0;0,1", "--t-values=-1/2"], "t must be nonnegative"),
])
def test_hr_scan_checks_its_hypotheses(extra, message):
    # a violated hypothesis is bad input (exit 1), not a failed check (exit 2)
    r = run("hr-scan", "--space", "2,2", "--twist", "0,0", "--lambda", "1,1", *extra)
    assert r.returncode == cli.USAGE_ERROR
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


def test_lorentzian_subcommand():
    r = run("lorentzian", "--lambda", "1,1", "--vars", "2", "--mode", "strict")
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is False
    r = run("lorentzian", "--lambda", "1,1", "--vars", "2", "--mode", "perturbed")
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_lorentzian_reports_whether_it_retried(capsys, fail_first_lorentzian_check):
    argv = ["lorentzian", "--lambda", "2,1", "--vars", "3", "--epsilon", "1/50"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["epsilon"] == "1/500"
    assert payload["retried_at_epsilon_over_10"] is True
    assert cli.main(argv) == 0  # only the first call was made to fail
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True and payload["epsilon"] == "1/50"
    assert payload["retried_at_epsilon_over_10"] is False


def test_lorentzian_retries_once_at_a_tenth_of_epsilon(capsys, tmp_path, monkeypatch):
    # a pass at epsilon is the report of that one check, with no retry
    argv = ["lorentzian", "--lambda", "2,1", "--vars", "2", "--epsilon", "1/100"]
    assert cli.main(argv) == 0
    first = analysis.lorentzian_check(schur_jt((2, 1), 2).normalize(), "perturbed",
                                      Fraction(1, 100))
    assert first.ok
    assert json.loads(capsys.readouterr().out) == {
        **first.to_json(), "retried_at_epsilon_over_10": False}
    # x1^2 - x1*x2 + x2^2 has a negative coefficient and a definite Hessian,
    # so it fails at epsilon and once more at epsilon / 10, and no third time
    path = tmp_path / "p.json"
    path.write_text(json.dumps(MultiPoly(2, {(2, 0): 1, (1, 1): -1, (0, 2): 1}).to_json()))
    real, tried = analysis.lorentzian_check, []
    monkeypatch.setattr(analysis, "lorentzian_check",
                        lambda p, mode, eps: tried.append(eps) or real(p, mode, eps))
    argv = ["lorentzian", "--poly-file", str(path), "--vars", "2", "--epsilon", "1/100"]
    for flags, code in (([], 0), (["--expect-pass"], cli.CHECK_VIOLATION)):
        assert cli.main(argv + flags) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["epsilon"] == "1/1000"
        assert payload["retried_at_epsilon_over_10"] is True
    assert tried == [Fraction(1, 100), Fraction(1, 1000)] * 2


def test_lorentzian_rejects_a_nonpositive_epsilon():
    # epsilon <= 0 is no perturbation: a usage error, not a failed check
    for eps in ("0", "-1/100"):
        r = run("lorentzian", "--lambda", "2,1", "--vars", "3", "--epsilon", eps)
        assert r.returncode == cli.USAGE_ERROR and r.stdout == ""
        assert r.stderr == f"error: --epsilon must be positive in perturbed mode, got {eps}\n"
        # strict mode tests p itself and reads no epsilon
        r = run("lorentzian", "--lambda", "2,1", "--vars", "3", "--epsilon", eps,
                "--mode", "strict")
        assert r.returncode == 0 and json.loads(r.stdout)["epsilon"] is None


def test_lorentzian_of_a_zero_polynomial_is_a_usage_error():
    for mode in ("strict", "perturbed"):
        r = run("lorentzian", "--lambda", "3", "--vars", "2", "--mode", mode)
        assert r.returncode == 1
        assert r.stderr == "error: the polynomial is zero\n"


def test_kt_without_a_second_bundle_names_its_flags():
    r = run("kt", "--space", "2", "--lines", "1;1", "--lambda", "1,1", "--mu", "1,1")
    assert r.returncode == 1
    assert r.stderr == (
        "error: no bundle2 given (use --bundle2 with a config, or --bundle2-lines)\n"
    )


def test_lorentzian_expect_pass_exit_code():
    r = run(
        "lorentzian", "--lambda", "1,1", "--vars", "2", "--mode", "strict",
        "--expect-pass",
    )
    assert r.returncode == 2


def test_bridge_subcommands():
    r = run("bridge", "--mode", "lemma", "--lambda", "1,1", "--vars", "2",
            "--alpha", "0,0", "--eprime", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True
    r = run("bridge", "--mode", "intersection", "--lambda", "1,1", "--vars", "2",
            "--n", "2", "--alpha", "0,0", "--epsilon", "1/100")
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_paper_examples_flag():
    r = run("--paper-examples")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["ok"] is True
    assert payload["convex_mix"][1]["matrix"] == [["1/4", "1/2"], ["1/2", "3/2"]]


def test_usage_error_exit_code():
    r = run("schur", "--lambda", "1,1")  # missing --vars
    assert r.returncode == 1
    r = run("form", "--config", "/nonexistent.json", "--bundle", "E", "--lambda", "3")
    assert r.returncode == 1


@pytest.mark.parametrize("argv, message", [
    (["seq", "--lambda", "2,1", "--point", "-1,2"],
     "point must be coordinatewise nonnegative"),
    (["seq", "--lambda", "2,1", "--point", "1,2", "--mu", "1", "--d", "3",
      "--point2", "-1,2"], "points must be coordinatewise nonnegative"),
    (["polya", "--mus", "1,2", "--space", "2,2", "--lines", "-1,0;0,1",
      "--twist", "0,0", "--lambda", "1,1"], "bundle is not nef"),
    (["polya", "--mus", "1,2", "--space", "2,2", "--lines", "1,0;0,1",
      "--twist", "0,0", "--lambda", "1,1", "--h", "-1,1"], "h is not nef"),
    (["bridge", "--lambda", "2,1", "--vars", "2", "--alpha", "-1,2"],
     "alpha must be 2 nonnegative integers"),
])
def test_a_negative_value_after_a_space_reaches_the_verifier(argv, message, capsys):
    # argparse alone reads "-1,2" as an unknown option: "expected one argument"
    assert cli.main(argv) == cli.USAGE_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["lorentzian"], ["bridge", "--alpha", "0,0"]])
@pytest.mark.parametrize("content", ['[{"exponents": [2, 0], "coeff": 1.5}]', '{"x": 1}',
                                     '[{"exponents": [1.5, 0.5], "coeff": "1"}]'])
def test_malformed_poly_file_is_a_usage_error(tmp_path, command, content):
    # a float coefficient, an object where a list of terms belongs, and
    # exponents that are not integers
    path = tmp_path / "poly.json"
    path.write_text(content)
    r = run(*command, "--poly-file", str(path), "--vars", "2")
    assert r.returncode == 1
    assert r.stderr.startswith("error: bad polynomial file")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, message", [
    (["seq", "--lambda", "1,1", "--point", "1/0,1"], "zero denominator in '1/0'"),
    (["polya", "--mus", "1,1/0"], "zero denominator in '1/0'"),
    (["lorentzian", "--lambda", "2,1", "--vars", "3", "--epsilon", "1/0"],
     "zero denominator in '1/0'"),
    (["bridge", "--mode", "intersection", "--vars", "2", "--n", "2", "--alpha", "0,0"],
     "missing --lambda"),
    (["schur", "--lambda", "1,1", "--vars", "-1"], "variable count must be nonnegative"),
    (["schur", "--lambda", "0", "--vars", "-2"], "variable count must be nonnegative"),
    (["schur", "--lambda", "2,1", "--vars", "-1", "--basis", "c"],
     "variable count must be nonnegative"),
    (["schur", "--lambda", "2,1", "--vars", "-1", "--derived", "9"],
     "variable count must be nonnegative"),
])
def test_bad_input_prints_one_error_line(argv, message):
    r = run(*argv)
    assert r.returncode == 1
    assert r.stderr == f"error: {message}\n"


def test_malformed_config_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"space\": [2,\n}")
    r = run("form", "--config", str(bad), "--bundle", "E", "--lambda", "3")
    assert r.returncode == 1
    assert "line" in r.stderr


def test_verify_subset():
    r = run("verify", "--seed", "7", "--criteria", "1,2,4", "--workers", "1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["ok"] is True
    assert [c["id"] for c in payload["criteria"]] == [1, 2, 4]


def test_verify_internal_error_is_not_a_usage_error(monkeypatch, capsys):
    def broken(seed, pool=None):
        raise DegreeMismatchError("raised inside a criterion")

    monkeypatch.setattr(acceptance, "CRITERIA", [(1, broken)])
    assert cli.main(["verify", "--criteria", "1", "--workers", "1"]) == cli.CHECK_VIOLATION
    assert "internal error: DegreeMismatchError" in capsys.readouterr().err


def test_internal_error_in_any_subcommand_is_not_a_usage_error(monkeypatch, capsys):
    def broken(*args):
        raise KeyError("raised inside kt")

    monkeypatch.setattr(analysis, "kt_sequence", broken)
    argv = ["kt", "--space", "2", "--lines", "1;1", "--bundle2-lines", "1;1",
            "--lambda", "1,1", "--mu", "1,1"]
    assert cli.main(argv) == cli.CHECK_VIOLATION
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.endswith("internal error: KeyError: 'raised inside kt'\n")


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    argv = ["seq", "--lambda", "1,1", "--point", "1,1", "--output", str(out)]
    assert cli.main(argv) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


def test_verify_malformed_criteria_is_a_usage_error(capsys):
    assert cli.main(["verify", "--criteria", "1,x", "--workers", "1"]) == cli.USAGE_ERROR
    assert "bad --criteria" in capsys.readouterr().err


def test_config_output_block_is_a_default(tmp_path, capsys):
    out = tmp_path / "report.txt"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"output": {"path": str(out), "format": "csv"}}))
    assert cli.main(["seq", "--config", str(cfg), "--lambda", "1,1", "--point", "1,1"]) == 0
    assert out.read_text() == "i,value\n0,3\n1,6\n2,3\n"
    # flags win over the config
    flagged = tmp_path / "flagged.json"
    assert cli.main(["seq", "--config", str(cfg), "--lambda", "1,1", "--point", "1,1",
                     "--format", "json", "--output", str(flagged)]) == 0
    assert json.loads(flagged.read_text())["sequence"]["values"] == ["3", "6", "3"]
    # verify takes the path, and writes compact JSON
    assert cli.main(["verify", "--config", str(cfg), "--criteria", "1", "--workers", "1"]) == 0
    text = out.read_text()
    assert text.startswith('{"criteria":[') and text.endswith("}\n") and "\n" not in text[:-1]
    assert capsys.readouterr().out == ""


def test_config_output_block_reaches_every_subcommand(tmp_path, config, capsys):
    out = tmp_path / "class.json"
    cfg = json.loads(open(config).read())
    cfg["output"] = {"path": str(out)}
    path = tmp_path / "with-output.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["class", "--config", str(path), "--bundle", "E", "--lambda", "1,1,1"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["rendered"] == "3*t1^2*t2 + 2*t1*t2^2 + t2^3"


def test_schur_text_goes_to_the_output_file(tmp_path, capsys):
    out = tmp_path / "schur.txt"
    assert cli.main(["schur", "--lambda", "1,1", "--vars", "2", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "x1^2 + x1*x2 + x2^2\n"
    # the top-level --output, given before the subcommand, is not dropped
    top = tmp_path / "top.txt"
    assert cli.main(["--output", str(top), "schur", "--lambda", "1", "--vars", "1"]) == 0
    assert capsys.readouterr().out == ""
    assert top.read_text() == "x1\n"


def test_verify_seed_and_workers_precedence(tmp_path, monkeypatch, capsys):
    """Flags, then SCHURHR_SEED / SCHURHR_WORKERS, then the config's seed,
    then DEFAULT_SEED."""
    calls = []

    def fake_run_all(seed, workers, criteria):
        calls.append((seed, workers))
        return {"seed": seed, "ok": True, "criteria": []}

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": 7}))

    monkeypatch.setenv("SCHURHR_SEED", "11")
    monkeypatch.setenv("SCHURHR_WORKERS", "3")
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    assert calls.pop() == (11, 3)
    assert cli.main(["verify", "--config", str(cfg), "--seed", "5", "--workers", "1"]) == 0
    assert calls.pop() == (5, 1)

    monkeypatch.delenv("SCHURHR_SEED")
    monkeypatch.delenv("SCHURHR_WORKERS")
    assert cli.main(["verify", "--config", str(cfg), "--workers", "1"]) == 0
    assert calls.pop() == (7, 1)
    assert cli.main(["verify", "--workers", "1"]) == 0
    assert calls.pop() == (acceptance.DEFAULT_SEED, 1)
    capsys.readouterr()


@pytest.mark.parametrize("seed", [42.0, "x", True])
def test_verify_rejects_a_config_seed_that_is_not_an_int(tmp_path, monkeypatch, capsys, seed):
    ran = []
    monkeypatch.setattr(acceptance, "run_all", lambda *a, **k: ran.append(a))
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": seed}))
    assert cli.main(["verify", "--config", str(cfg), "--workers", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed" in err[0]
    assert json.dumps(seed) in err[0]
    assert ran == []


def test_a_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1]")
    assert cli.main(["verify", "--config", str(cfg), "--workers", "1"]) == 1
    assert capsys.readouterr().err == f"error: config {cfg} is not a JSON object\n"
