"""CLI surface: subcommands, exit codes, printed summaries."""

import json
import signal
import time

import pytest

from pcplab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_variety_info(capsys):
    for spec, m, points, degree, complexity in (("ball1:n=2", "2", "3", "1", "3"),
                                                ("pow:(ball1:n=2)^2", "4", "9", "2", "6")):
        code, out, _ = run(capsys, "variety", "info", spec, "--q", "5")
        assert code == 0
        lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
        assert lines["q"] == "5"
        assert lines["m"] == m
        assert lines["points"] == points
        assert lines["extension_degree"] == degree
        assert lines["grobner_complexity"] == complexity
        assert lines["grobner_basis_size"] == complexity


def test_variety_info_reduced_basis_outgrows_the_generators(capsys, tmp_path):
    # two generators with leading monomials x1*x2 and x2^2 leave x1^3 as a
    # third minimal non-standard monomial, so certificates divide by three
    path = tmp_path / "four.txt"
    path.write_text("0 4\n1 0\n1 3\n4 1\n")
    code, out, _ = run(capsys, "variety", "info", f"points:{path}", "--q", "5")
    assert code == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert (lines["grobner_complexity"], lines["grobner_basis_size"]) == ("2", "3")


def test_variety_grobner_listing(capsys):
    code, out, _ = run(capsys, "variety", "grobner", "ball1:n=2", "--q", "5")
    assert code == 0
    assert out.splitlines() == ["4*x1^2 + x1", "x1*x2", "4*x2^2 + x2"]


def test_variety_bad_spec_exit_2(capsys):
    code, _, err = run(capsys, "variety", "info", "garbage:", "--q", "5")
    assert code == 2
    assert "error" in err


def test_ldt_run_completeness(capsys):
    code, out, _ = run(capsys, "ldt", "run", "--q", "5", "--nvars", "1",
                       "--degree", "2", "--trials", "50", "--seed", "3")
    assert code == 0
    assert "ldt completeness: 50/50 accepts" in out
    assert "queries/trial=2" in out


def test_ldt_local_correct_flag(capsys):
    code, out, _ = run(capsys, "ldt", "run", "--q", "5", "--nvars", "1",
                       "--degree", "2", "--trials", "50", "--local-correct")
    assert code == 0
    assert out.startswith("lc completeness:")


def test_zerotest_run_writes_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "zerotest", "run", "--q", "5",
                       "--variety", "cube:H=0,1;m=1", "--degree", "2",
                       "--trials", "60", "--out", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert report["trials"] == 60
    assert report["rejects"] == 0
    assert "bits/trial=17" in out


def test_soundness_min_reject_rate_gate(capsys):
    args = ["zerotest", "run", "--q", "5", "--variety", "cube:H=0,1;m=1",
            "--degree", "2", "--mode", "soundness", "--adversary", "zero-cert",
            "--trials", "80", "--seed", "4"]
    code_pass, out, _ = run(capsys, *args, "--min-reject-rate", "0.01")
    assert code_pass == 0
    code_fail, _, err = run(capsys, *args, "--min-reject-rate", "0.999999")
    assert code_fail == 1
    assert "FAIL" in err


def test_pcp_run_prints_implied_length(capsys):
    code, out, _ = run(capsys, "pcp", "run", "--q", "17",
                       "--variety", "cube:H=0,1,2;m=1", "--graph", "complete:3",
                       "--trials", "20", "--seed", "5")
    assert code == 0
    assert "pcp completeness: 20/20 accepts" in out
    assert "implied proof length:" in out
    assert "never materialized" in out


def test_config_error_exit_2(capsys):
    code, _, err = run(capsys, "ldt", "run", "--q", "6", "--nvars", "1")
    assert code == 2
    assert "config error" in err


def test_exhaustive_budget_error_exit_2(capsys):
    code, _, err = run(capsys, "zerotest", "run", "--q", "5",
                       "--variety", "cube:H=0,1;m=2", "--degree", "4",
                       "--sampling", "exhaustive", "--enum-budget", "100")
    assert code == 2
    assert "config error" in err


VACUOUS_ZEROTEST = ["zerotest", "run", "--q", "5", "--variety", "cube:H=0,1,2;m=1",
                    "--degree", "1", "--trials", "20"]
LDT_FLAGS = ["--q", "5", "--nvars", "1"]
PCP_K4_FLAGS = ["--q", "17", "--variety", "cube:H=0,1,2,3;m=1", "--graph", "complete:4"]
# K5 does not fit on the 3-point cube; the error names both counts
OVERSIZED_PCP_FLAGS = ["--q", "17", "--variety", "cube:H=0,1,2;m=1", "--graph", "complete:5"]
OVERSIZED_MESSAGE = "graph has 5 vertices but the variety only 3 points"
K13_PCP_FLAGS = ["--q", "5", "--variety", "ball1:n=12", "--graph", "complete:13",
                 "--mode", "soundness", "--adversary", "improper-pipeline"]
K13_MESSAGE = "graph has no proper 3-coloring and 13 vertices, above the 12-vertex cap"


@pytest.mark.parametrize("argv", [
    # the cube's only generator has degree 3 > 1: nothing nonzero to prove
    VACUOUS_ZEROTEST,
    VACUOUS_ZEROTEST + ["--mode", "soundness", "--adversary", "inconsistent-lines"],
    # degree tag >= q
    ["ldt", "run", *LDT_FLAGS, "--degree", "7"],
    # the default corrupt-point adversary at delta = 0 measures honest oracles
    ["ldt", "run", *LDT_FLAGS, "--degree", "2", "--mode", "soundness"],
    ["ldt", "run", *LDT_FLAGS, "--degree", "2", "--mode", "soundness", "--local-correct"],
    # an adversary that completeness mode would ignore
    ["ldt", "run", *LDT_FLAGS, "--degree", "2", "--adversary", "bogus"],
    # a delta that nothing reads: only the corrupt-* adversaries corrupt
    ["pcp", "run", *PCP_K4_FLAGS, "--mode", "soundness", "--adversary",
     "improper-pipeline", "--delta", "0.5", "--trials", "10"],
    ["zerotest", "run", "--q", "5", "--variety", "cube:H=0,1;m=1", "--degree", "2",
     "--mode", "soundness", "--adversary", "wrong-poly", "--delta", "0.5", "--trials", "20"],
    ["ldt", "run", *LDT_FLAGS, "--degree", "2", "--delta", "0.5"],
    ["pcp", "run", *OVERSIZED_PCP_FLAGS, "--trials", "5"],
])
def test_meaningless_runs_exit_2(capsys, argv):
    def hang(signum, frame):
        raise TimeoutError("run did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    if "complete:5" in argv:
        assert OVERSIZED_MESSAGE in err


@pytest.mark.parametrize("flags", [
    ["ldt", *LDT_FLAGS, "--degree", "7"],
    ["ldt", *LDT_FLAGS, "--degree", "2", "--mode", "soundness"],
    ["ldt", *LDT_FLAGS, "--degree", "2", "--adversary", "bogus"],
    ["pcp", "--q", "17", "--variety", "cube:H=0,1,2;m=1", "--graph", "complete:3",
     "--sampling", "exhaustive"],
    # no generator of degree <= 1, so the only vanishing polynomial is 0
    ["zerotest", "--q", "5", "--variety", "cube:H=0,1,2;m=1", "--degree", "1"],
    # completeness needs a proper 3-coloring, soundness a graph without one
    ["pcp", "--q", "17", "--variety", "cube:H=0,1,2,3;m=1", "--graph", "complete:4"],
    ["pcp", "--q", "17", "--variety", "cube:H=0,1,2,3;m=1", "--graph", "complete:3",
     "--mode", "soundness", "--adversary", "improper-pipeline"],
    # a delta that nothing reads
    ["pcp", *PCP_K4_FLAGS, "--mode", "soundness", "--adversary", "improper-pipeline",
     "--delta", "0.5"],
    ["zerotest", "--q", "5", "--variety", "cube:H=0,1;m=1", "--degree", "2",
     "--mode", "soundness", "--adversary", "wrong-poly", "--delta", "0.5"],
    ["ldt", *LDT_FLAGS, "--degree", "2", "--delta", "0.5"],
    # exhaustive spaces above the enumeration budget
    ["ldt", "--q", "7", "--nvars", "3", "--degree", "2", "--sampling", "exhaustive",
     "--enum-budget", "10"],
    ["zerotest", "--q", "5", "--variety", "ball1:n=2", "--degree", "2",
     "--sampling", "exhaustive", "--enum-budget", "10"],
    ["pcp", *OVERSIZED_PCP_FLAGS],
    # no proper coloring, and above the fewest-conflicts search's vertex cap
    ["pcp", *K13_PCP_FLAGS],
])
def test_budget_rejects_what_a_run_rejects(capsys, flags):
    code, _, budget_err = run(capsys, "budget", *flags)
    assert code == 2
    code, _, run_err = run(capsys, flags[0], "run", *flags[1:])
    assert code == 2
    assert budget_err == run_err
    assert budget_err.startswith("config error: ")
    if "complete:5" in flags:
        assert OVERSIZED_MESSAGE in budget_err
    if "complete:13" in flags:
        assert K13_MESSAGE in budget_err


def test_out_to_a_missing_directory_exits_2_before_the_run(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    started = time.perf_counter()
    code, stdout, err = run(capsys, "ldt", "run", "--q", "7", "--nvars", "2", "--degree", "2",
                            "--trials", "1000000", "--out", str(out))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert stdout == ""
    assert str(out) in err and err.startswith("error: ")
    assert not out.parent.exists()


K12_FLAGS = ["--q", "5", "--variety", "ball1:n=12", "--graph", "complete:12"]
NOT_COLORABLE = "config error: graph is not 3-colorable; completeness mode needs a proper coloring\n"


@pytest.mark.parametrize("argv, code, out, err", [
    (["pcp", "run", *K12_FLAGS], 2, "", NOT_COLORABLE),
    (["budget", "pcp", *K12_FLAGS], 2, "", NOT_COLORABLE),
    (["budget", "pcp", *K12_FLAGS, "--mode", "soundness", "--adversary",
      "improper-pipeline"], 0, "1838\n", ""),
], ids=["run", "budget", "budget-soundness"])
def test_pcp_config_checked_from_allowance_0_only(capsys, argv, code, out, err):
    # K12 has no proper coloring and is within the search cap: the check
    # needs only the failed proper-coloring pass, never the improper search
    started = time.perf_counter()
    assert run(capsys, *argv) == (code, out, err)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("name, text, line", [
    ("token.txt", "0 1\n1 vm\n", "2: '1 vm'"),
    ("arity.txt", "0 1\n# comment\n\n1 0 1\n", "4: '1 0 1'"),
    ("repeat.txt", "0 1\n1 0\n0 1\n", "3: '0 1'"),
], ids=["token", "arity", "repeat"])
def test_malformed_points_file_names_file_and_line(capsys, tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    for argv in (["variety", "info", f"points:{path}", "--q", "5"],
                 ["pcp", "run", "--q", "5", "--variety", f"points:{path}",
                  "--graph", "complete:2", "--trials", "5"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{path}:{line}" in err


@pytest.mark.parametrize("name, text, line", [
    ("token.txt", "3\n0 x\n", "2: '0 x'"),
    ("edge.txt", "3\n0 1\n0 1 2\n", "3: '0 1 2'"),
    ("lone.txt", "3\n\n2\n", "3: '2'"),
    ("count.txt", "# n\n3 4\n0 1\n", "2: '3 4'"),
    ("range.txt", "3\n0 1\n1 5\n", "3: '1 5'"),
    ("loop.txt", "3\n0 1\n# loop\n2 2\n", "4: '2 2'"),
    ("empty.txt", "# none\n0\n", "2: '0'"),
], ids=["token", "edge", "lone", "count", "range", "loop", "empty"])
def test_malformed_graph_file_names_file_and_line(capsys, tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "pcp", "run", "--q", "17", "--variety", "cube:H=0,1,2;m=1",
                         "--graph", str(path), "--trials", "5")
    assert code == 2 and out == ""
    assert f"{path}:{line}" in err


def test_budget_subcommand(capsys):
    code, out, _ = run(capsys, "budget", "zerotest", "--q", "5",
                       "--variety", "cube:H=0,1;m=1", "--degree", "2")
    assert code == 0
    assert out.strip() == "17"
    code, out, _ = run(capsys, "budget", "pcp", "--q", "17",
                       "--variety", "cube:H=0,1,2;m=1", "--graph", "complete:3")
    assert code == 0
    assert out.strip() == "94"


def test_preset_list(capsys):
    code, out, _ = run(capsys, "preset", "list")
    assert code == 0
    names = [ln.split(":")[0] for ln in out.strip().splitlines()]
    assert names == ["hadamard-like", "n-eps", "polylog"]


def test_missing_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_pcp_soundness_on_colorable_graph_exit_2(capsys):
    # K3 has a proper 3-coloring: the improper-coloring adversaries would
    # build an honest proof, so the measurement would mean nothing
    code, _, err = run(capsys, "pcp", "run", "--q", "17",
                       "--variety", "cube:H=0,1,2;m=1", "--graph", "complete:3",
                       "--mode", "soundness", "--adversary", "improper-pipeline",
                       "--trials", "5")
    assert code == 2
    assert "config error" in err
    assert "3-colorable" in err
