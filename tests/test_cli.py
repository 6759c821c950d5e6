"""Command-line surface: subcommands, exit codes, output shape."""

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from nilforms import (
    InternalInvariantBreach,
    cli,
    cohomology,
    coordinate_model,
    exterior_core,
    find_symplectic,
    format_form,
    parse_salamon,
    verification,
)
from nilforms.cli import main
from nilforms.coordinate_model import RealizationReport

from conftest import corpus_script, wrong_coframe


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_filiform_text(capsys):
    code, out, _ = run(capsys, "analyze", "(0,0,12,13)")
    assert code == 0
    assert "betti" in out
    assert "(1, 2, 2, 2, 1)" in out or "1, 2, 2, 2, 1" in out
    assert "genuine" in out


def test_analyze_json_is_valid_and_deterministic(capsys):
    code, out, _ = run(capsys, "analyze", "(0,0,12,13)", "--json")
    assert code == 0
    first = json.loads(out)
    assert first["betti"] == [1, 2, 2, 2, 1]
    assert first["lcs"]["genuine_witness"]["theta"]["terms"] == [["1", [2]]]
    code, out2, _ = run(capsys, "analyze", "(0,0,12,13)", "--json")
    assert out == out2


@pytest.mark.parametrize("text,step", [("()", 0), ("(0)", 1)])
def test_analyze_below_dimension_two(capsys, text, step):
    code, out, err = run(capsys, "analyze", text)
    assert code == 0, err
    assert "massey triple products (degree 1): none nonzero" in out.splitlines()
    assert f"step {step}" in out
    code, out, _ = run(capsys, "analyze", text, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["massey"] is None and doc["step"] == step


@pytest.mark.parametrize("text,calls", [
    ("(0,0)", 1),
    ("(0,0,0,12)", 0),
    # the search's first witness has theta = 2 x1: an lcs pair, not a
    # symplectic form
    ("(0,12,13,14)", 0),
])
def test_analyze_decides_symplectic_once(capsys, monkeypatch, text, calls):
    # from dimension 4 on, the lcs search decides theta = 0 first, over the
    # closed 2-forms, and analyze reads the symplectic form off it
    seen = []

    def counted(algebra):
        seen.append(algebra)
        return find_symplectic(algebra)

    monkeypatch.setattr(cli, "find_symplectic", counted)
    code, out, _ = run(capsys, "analyze", text)
    assert code == 0
    assert len(seen) == calls
    witness = find_symplectic(parse_salamon(text))
    expected = format_form(witness) if witness else "NONE (exhaustive over closed 2-forms)"
    assert f"symplectic: {expected}" in out.splitlines()


def test_analyze_reports_kahler_admissibility(capsys):
    _, torus_out, _ = run(capsys, "analyze", "(0,0,0,0)")
    assert "Kahler admissible: yes" in torus_out
    _, kt_out, _ = run(capsys, "analyze", "(0,0,0,12)")
    assert "Kahler admissible: no" in kt_out


def test_analyze_quiet_one_liner(capsys):
    code, out, _ = run(capsys, "analyze", "kodaira_thurston", "--quiet")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_analyze_catalog_name_with_hermitian_defaults(capsys):
    code, out, _ = run(capsys, "analyze", "kodaira_thurston", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["hermitian"]["label"] == "vaisman"


def test_analyze_reads_json_file(tmp_path, capsys):
    doc = {"dim": 4, "d": {"4": [["1", [1, 2]]]}}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 3, 4, 3, 1]


def test_search_lcs_torus_reports_honestly(capsys):
    code, out, _ = run(capsys, "search-lcs", "(0,0,0,0)", "--height", "1")
    assert code == 0
    assert "NOT_FOUND_UP_TO_HEIGHT(1)" in out
    assert "81" in out
    assert "nonexistent" not in out.lower()


def test_search_lcs_filiform_finds_the_pair(capsys):
    code, out, _ = run(capsys, "search-lcs", "(0,0,12,13)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "FOUND"
    assert doc["genuine_witness"]["theta"]["terms"] == [["1", [2]]]


def test_search_symplectic(capsys):
    code, out, _ = run(capsys, "search-symplectic", "(0,0,0,12)")
    assert code == 0
    assert "x1^x4 + x2^x3" in out


def test_search_symplectic_reports_exhaustive_nonexistence(capsys):
    # dx2=e12, dx3=e13, dx4=e14 has no closed nondegenerate 2-form
    doc = json.dumps({"dim": 4, "d": {
        "2": [["1", [1, 2]]], "3": [["1", [1, 3]]], "4": [["1", [1, 4]]]}})
    import io, sys as _sys
    _sys.stdin = io.StringIO(doc)
    try:
        code = main(["search-symplectic", "-"])
    finally:
        _sys.stdin = _sys.__stdin__
    out = capsys.readouterr().out
    assert code == 0
    assert "NONE" in out and "exhaustive" in out


def test_cohomology_with_twist(capsys):
    code, out, _ = run(capsys, "cohomology", "(0,0,12,13)", "--theta", "x2",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [0, 0, 0, 0, 0]


@pytest.mark.parametrize("theta", [None, "x2"])
def test_cohomology_betti_line_reads_the_spaces(capsys, theta):
    argv = ["cohomology", "--json", "(0,0,12,13)"] + (["--theta", theta] if theta else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [s["betti"] for s in doc["spaces"]]


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "machine checks pass" in out
    assert "FAIL" not in out
    assert "NOTE" in out  # documented facts are printed, not asserted


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_machine_pass"] is True
    assert any(c["provenance"] == "literature" for c in doc["checks"])


def test_model_check(capsys):
    code, out, _ = run(capsys, "model-check")
    assert code == 0
    assert "PASS structure_equations" in out


def test_model_check_prints_the_failing_checks_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(coordinate_model, "invariant_coframe", wrong_coframe)
    code, out, err = run(capsys, "model-check")
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "coordinate model for (0,0,12,13)",
        "FAIL structure_equations",
        "FAIL left_invariance",
    ]


def test_verify_paper_reports_failures_and_exits_1(monkeypatch, capsys):
    # a check whose callee raises fails with the exception as its detail;
    # a model check that fails names itself in the model's detail
    def boom(*args):
        raise InternalInvariantBreach("no Massey product today")

    monkeypatch.setattr(verification, "triple_massey", boom)
    monkeypatch.setattr(verification, "verify_realization", lambda: RealizationReport(
        salamon="(0,0,12,13)", checks=(("structure_equations", True),
                                       ("lattice_closed", False))))
    code, out, err = run(capsys, "verify-paper")
    assert (code, err) == (1, "")
    raised = "raised InternalInvariantBreach: no Massey product today"
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        f"FAIL filiform_massey_nonzero: {raised}",
        "FAIL filiform_coordinate_model: failing: lattice_closed",
        f"FAIL kodaira_thurston_massey_nonzero: {raised}",
    ]
    machine = sum(1 for line in out.splitlines() if line.startswith(("PASS ", "FAIL ")))
    assert out.splitlines()[-1] == f"{machine - 3}/{machine} machine checks pass"
    code, out, _ = run(capsys, "verify-paper", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["all_machine_pass"] is False
    failed = {c["name"]: c["detail"] for c in doc["checks"] if c["passed"] is False}
    assert failed == {"filiform_massey_nonzero": raised,
                      "filiform_coordinate_model": "failing: lattice_closed",
                      "kodaira_thurston_massey_nonzero": raised}


@pytest.mark.parametrize("text,message", [
    ("(0,0,0,0,0,0,0,0,0,12)",
     "bare digits are ambiguous from dimension 10 up at position 19"),
    ("(0,0,12,13)x", "trailing characters at position 11"),
])
def test_exit_code_2_on_tuple_grammar_guards(capsys, text, message):
    code, out, err = run(capsys, "analyze", text)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message} (expected ")


def test_exit_code_2_on_syntax_error(capsys):
    assert main(["analyze", "(0,0,1x)"]) == 2
    assert main(["analyze", "(0,0,21)"]) == 2


def test_search_symplectic_refuses_dimension_0(capsys):
    # a 2-form cannot exist there; one error line, no traceback
    assert run(capsys, "search-symplectic", "()") \
        == (3, "", "error: symplectic structures need dimension >= 2\n")


def test_cohomology_twisted_by_zero_in_dimension_0_is_the_untwisted_answer(capsys):
    # theta = 0 twists nothing, even where no 1-form exists to carry it
    plain = run(capsys, "cohomology", "()")
    assert plain == (0, "betti: (1,)\nH^0 (dim 1): [1]\n", "")
    assert run(capsys, "cohomology", "--theta", "0", "()") == plain


def test_exit_code_3_on_invalid_algebra(capsys):
    assert main(["analyze", "(0,0,12,34)"]) == 3
    err = capsys.readouterr().err
    assert "Jacobi" in err or "jacobi" in err


@pytest.mark.parametrize("command", ["search-lcs", "analyze"])
def test_exit_code_3_on_a_negative_height(capsys, command):
    assert main([command, "(0,0,0,12)", "--height", "-1"]) == 3
    assert "height" in capsys.readouterr().err


def test_exit_code_3_past_the_size_budget(capsys, monkeypatch):
    monkeypatch.setattr(exterior_core, "_BUDGET", 3)
    assert main(["analyze", "(0,0,12,13)"]) == 3
    assert "past the budget of 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search-lcs", "analyze"])
def test_an_astronomical_height_is_refused_at_the_candidate_count(capsys, command):
    # P == 0 on (0,0,0,0,12,34), so the candidates are counted in closed
    # form, by a totient sieve that a height of 10^30 puts past the budget
    assert main([command, "(0,0,0,0,12,34)", "--height", str(10**30)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the totient sieve that counts the candidate values")
    assert "past the budget of 10000000" in err


@pytest.mark.parametrize("command", ["search-symplectic", "search-lcs", "analyze"])
def test_an_abelian_algebra_of_dimension_18_is_refused_at_its_pfaffian(capsys, command):
    # 17!! = 34459425 terms over Z^2: refused once the terms formed pass
    # the default budget, in well under a second
    assert main([command, "(" + ",".join(["0"] * 18) + ")"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the Pfaffian in dimension 18 would build about")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cohomology_refuses_past_the_budget_before_building_a_space(capsys, monkeypatch):
    # C(4, 2) * 4 = 24 cells in the middle degree; degrees 0 and 1 fit under 20
    monkeypatch.setattr(exterior_core, "_BUDGET", 20)
    built = []
    init = cohomology.CohomologySpace.__init__

    def spy(space, algebra, degree, theta=None):
        built.append(degree)
        init(space, algebra, degree, theta)

    monkeypatch.setattr(cohomology.CohomologySpace, "__init__", spy)
    assert main(["cohomology", "(0,0,12,13)"]) == 3
    assert "about 24 cells, past the budget of 20" in capsys.readouterr().err
    assert built == []


def test_exit_code_3_on_missing_file(capsys, tmp_path):
    assert main(["analyze", "no_such_file.json"]) == 3
    assert "No such file or directory: 'no_such_file.json'" \
        in capsys.readouterr().err
    assert main(["analyze", str(tmp_path)]) == 3
    assert str(tmp_path) in capsys.readouterr().err


_LONG_RUN = "1" * 5000


@pytest.mark.parametrize("argv", [
    ("analyze", "(0,0,1²,13)"),
    ("analyze", "(0,0,１２,13)"),
    pytest.param(("analyze", f"(0,0,0,{_LONG_RUN}*12)"), id="long-coefficient"),
    ("cohomology", "(0,0,12,13)", "--theta", "x²"),
])
def test_exit_code_2_on_digits_past_ascii_or_int_size(capsys, argv):
    assert main(list(argv)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("document", [
    '{"dim": 4, "d": {"²": []}}',
    '{"dim": 4, "d": {"4": [["1e100000000", [1, 2]]]}}',
    '{"dim": 4, "d": {"4": [["0.5", [1, 2]]]}}',
    pytest.param('{"dim": 4, "d": {"4": [[%s, [1, 2]]]}}' % _LONG_RUN,
                 id="long-integer"),
])
def test_exit_code_2_on_json_numbers_out_of_grammar(capsys, tmp_path, document):
    path = tmp_path / "hostile.json"
    path.write_text(document, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: /")


def test_exit_code_2_on_schema_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 4, "d": {"4": [["1", [2, 1]]]}}))
    assert main(["analyze", str(path)]) == 2


def test_exit_code_2_on_a_labels_key(capsys, tmp_path):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({"dim": 4, "d": {"4": [["1", [1, 2]]]},
                                "labels": ["a", "b", "c", "d"]}))
    assert main(["analyze", str(path)]) == 2
    assert "unknown keys: ['labels']" in capsys.readouterr().err


def _env_with_src():
    """This environment with the repository's ``src`` first on PYTHONPATH,
    so a subprocess imports this checkout however the suite was started."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "nilforms", "analyze", "(0,0,0,0)", "--quiet"],
        capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_import_leaves_out_dataclasses_and_inspect():
    # the difference of sys.modules, since site may preload modules of its own
    probe = ("import sys\nbefore = set(sys.modules)\nimport nilforms.cli\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stdout.split())
    assert "nilforms.cli" in imported
    assert not imported & {"dataclasses", "inspect"}


def test_a_call_that_reads_and_writes_no_json_leaves_json_unimported():
    probe = ("import sys\nbefore = set(sys.modules)\nfrom nilforms import cli\n"
             "code = cli.main(['analyze', '(0,0,12,13)'])\n"
             "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = set(proc.stderr.split())
    assert "nilforms.cli" in imported
    assert "json" not in imported


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_output_pipe_ends_the_call_as_sigpipe_ends_cat():
    # 257,584 bytes of output, far past any pipe buffer, so the write that
    # follows the close is refused
    argv = [sys.executable, "-m", "nilforms", "cohomology", "--json",
            "(0,0,0,0,0,0,0,0,0,0)"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env_with_src())
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert err == b""


ALGEBRA_DOC = json.dumps({"dim": 4, "d": {"4": [["1", [1, 2]]]}})


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_an_algebra_read_from_json_reports_as_its_tuple(tmp_path, capsys, monkeypatch, flags):
    path = tmp_path / "algebra.json"
    path.write_text(ALGEBRA_DOC)
    expected = run(capsys, "analyze", "(0,0,0,12)", *flags)
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, "analyze", str(path), *flags) == expected
    monkeypatch.setattr("sys.stdin", io.StringIO(ALGEBRA_DOC))
    assert run(capsys, "analyze", "-", *flags) == expected


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_a_pair_read_from_json_files_reports_as_the_catalog_default(tmp_path, capsys, flags):
    # kodaira_thurston's catalog pair is the identity metric with ROTATION_J
    metric, acs = tmp_path / "I4.json", tmp_path / "J.json"
    metric.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]]))
    acs.write_text(json.dumps(ROTATION_J))
    golden = GOLDEN / f"{'_'.join(('analyze', 'kodaira_thurston', *flags))}.txt"
    assert run(capsys, "analyze", "(0,0,0,12)", "--metric", str(metric),
               "--acs", str(acs), *flags) == (0, golden.read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("route,document,message", [
    ("file", "{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("stdin", "[1,", "Expecting value: line 1 column 4 (char 3)"),
    ("metric", "[[1,0],[0,1", "Expecting ',' delimiter: line 1 column 12 (char 11)"),
])
def test_a_document_that_does_not_decode_exits_2_with_the_decoder_message(
        tmp_path, capsys, monkeypatch, route, document, message):
    path, acs = tmp_path / "broken.json", tmp_path / "J.json"
    path.write_text(document)
    acs.write_text(json.dumps(ROTATION_J))
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    argv = {"file": ["analyze", str(path)],
            "stdin": ["analyze", "-"],
            "metric": ["analyze", "(0,0,0,12)", "--metric", str(path), "--acs", str(acs)]}
    assert run(capsys, *argv[route]) == (2, "", f"error: {message}\n")


def test_metric_without_acs_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert main(["analyze", "(0,0,0,12)", "--metric", str(path)]) == 2


def test_a_pair_on_a_non_unimodular_algebra_is_classified(tmp_path, capsys):
    # the Lee form reads the fundamental form alone, so no unimodularity gate
    metric, acs = tmp_path / "I4.json", tmp_path / "J.json"
    metric.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]]))
    acs.write_text(json.dumps([[0, -1, 0, 0], [1, 0, 0, 0],
                               [0, 0, 0, -1], [0, 0, 1, 0]]))
    code, out, err = run(capsys, "analyze", "(0,12,13,14)",
                         "--metric", str(metric), "--acs", str(acs))
    assert (code, err) == (0, "")
    assert "hermitian pair: lck (Lee form 2*x1)" in out.splitlines()


ROTATION_J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def test_an_integrable_pair_with_an_open_lee_form_is_labelled(tmp_path, capsys):
    metric, acs = tmp_path / "I4.json", tmp_path / "J.json"
    metric.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]]))
    acs.write_text(json.dumps(ROTATION_J))
    code, out, err = run(capsys, "analyze", "(0,0,-2*12-23,-24)",
                         "--metric", str(metric), "--acs", str(acs))
    assert (code, err) == (0, "")
    assert "hermitian pair: integrable_non_lck (Lee form -2*x2 - 2*x4)" in out.splitlines()


def test_an_internal_breach_exits_4(monkeypatch, capsys):
    def breach(*args, **kwargs):
        raise InternalInvariantBreach("negative Betti number")

    monkeypatch.setattr("nilforms.cli.betti_profile", breach)
    code, out, err = run(capsys, "analyze", "(0,0,12,13)")
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ")


def test_a_file_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: Expecting property name")


def test_analyze_quiet_names_a_missing_symplectic_form(capsys):
    code, out, _ = run(capsys, "analyze", "(0,12,13,14)", "--quiet")
    assert code == 0
    assert "  no symplectic  " in out


@pytest.mark.parametrize("gram,acs,code,message", [
    ([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ROTATION_J, 3,
     "leading principal minor 2 is -3; metric is not positive definite"),
    ([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ROTATION_J, 3,
     "Gram matrix must be symmetric"),
    # JSON true is no rational, as in an algebra document: read as 1, it
    # would pass for the identity Gram matrix
    ([[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ROTATION_J, 2,
     "/0/0: expected a rational, got a boolean"),
    ([[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], ROTATION_J, 2,
     "/0/0: expected an integer or 'p/q' string"),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
     [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, True, 0]], 2,
     "/3/2: expected a rational, got a boolean"),
    ({"a": 1}, ROTATION_J, 2, "/: matrix file must hold a list of rows"),
], ids=["indefinite", "not-symmetric", "true-in-gram", "float-in-gram", "true-in-acs",
        "not-a-list"])
def test_a_bad_gram_file_is_a_typed_error(tmp_path, capsys, gram, acs, code, message):
    metric_path, acs_path = tmp_path / "g.json", tmp_path / "J.json"
    metric_path.write_text(json.dumps(gram))
    acs_path.write_text(json.dumps(acs))
    result = run(capsys, "analyze", "(0,0,0,12)",
                 "--metric", str(metric_path), "--acs", str(acs_path))
    assert result == (code, "", f"error: {message}\n")


_DEEP = "[" * 200_000


@pytest.mark.parametrize("route", ["file", "stdin", "metric"])
def test_json_nested_past_the_decoder_stack_exits_2(tmp_path, capsys, monkeypatch, route):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    argv = {"file": ["analyze", str(path)],
            "stdin": ["analyze", "-"],
            "metric": ["analyze", "torus4", "--metric", str(path), "--acs", str(path)]}
    monkeypatch.setattr("sys.stdin", io.StringIO(_DEEP))
    result = run(capsys, *argv[route])
    assert result == (2, "", "error: /: unreadable JSON: nested too deeply\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ("verify-paper",), ("verify-paper", "--json"), ("model-check",),
    *(("analyze", name, *flags)
      for name in ("filiform_0_0_12_13", "kodaira_thurston", "six_dim_example", "torus4")
      for flags in ((), ("--json",))),
], ids=lambda argv: "-".join(argv))
def test_the_report_text_is_the_recorded_golden(capsys, argv):
    """The full stdout, byte for byte, as recorded in tests/golden.  Only an
    intended output change rewrites a golden, with
    ``PYTHONPATH=src python -m nilforms ARGV > tests/golden/NAME.txt``."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{'_'.join(argv)}.txt").read_text(encoding="utf-8")


def test_every_output_is_the_recorded_corpus_digest(capsys):
    """``scripts/corpus.py --check`` in process: every command line of its
    corpus gives the exit code, stdout and stderr whose digest
    tests/golden/corpus.json records.  An intended output change rewrites
    the file with ``scripts/corpus.py --write``, and names each changed argv."""
    status = corpus_script().main(["--check"])
    assert status == 0, capsys.readouterr().out
