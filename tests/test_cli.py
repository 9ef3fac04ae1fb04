import argparse
import contextlib
import io
import json
import math
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncbieberbach
from ncbieberbach import families, verify
from ncbieberbach.actions import scan_cocycles, scan_row
from ncbieberbach.cli import SUITES, build_parser, main
from ncbieberbach.report import Check
from ncbieberbach.scalars import DEFAULT_CYCLOTOMIC_ORDER


def run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


def test_ktheory_json_payload(capsys):
    code, report = run_json(capsys, "ktheory", "B6")
    assert code == 0
    assert report["payload"]["K0"] == {"rank": 2, "torsion": []}
    assert report["payload"]["K1"] == {"rank": 2, "torsion": []}
    assert report["schema"] == "nbk-report/1"
    assert {r["status"] for r in report["results"]} == {"pass"}


def test_ktheory_epsilon_variants_agree(capsys):
    _, plus = run_json(capsys, "ktheory", "B2", "--epsilon", "+1")
    _, minus = run_json(capsys, "ktheory", "B2", "--epsilon", "-1")
    assert plus["payload"]["K0"] == minus["payload"]["K0"]
    assert plus["payload"]["K1"] == minus["payload"]["K1"]
    assert plus["payload"]["matrix"] != minus["payload"]["matrix"]


def test_ktheory_b3_groups(capsys):
    code, report = run_json(capsys, "ktheory", "B3")
    assert code == 0
    assert report["payload"]["K0"] == {"rank": 2, "torsion": [3]}
    snf = report["payload"]["snf_certificate"]
    assert snf["diagonal"].count(3) == 1


def test_scan_matching_family(capsys):
    code, report = run_json(capsys, "scan", "--family", "B2")
    assert code == 0
    assert report["payload"]["computed"] == report["payload"]["reference"]


def test_scan_subgrid(capsys):
    code, report = run_json(capsys, "scan", "--family", "B2", "--denominator", "2")
    assert code == 0


@pytest.mark.parametrize("denominator", [5, 7])
def test_scan_works_at_the_order_of_its_grid(capsys, denominator):
    """Grid phases k/D need zeta_{2D}: every family reports, none exits 2."""
    for family in families.FAMILIES:
        code, report = run_json(capsys, "scan", "--family", family, "--denominator", str(denominator))
        assert code in (0, 1), family
        assert report["config"]["cyclotomic_order"] == math.lcm(DEFAULT_CYCLOTOMIC_ORDER, 2 * denominator)
    code, _ = run_json(capsys, "verify", "--suite", "actions", "--denominator", str(denominator))
    assert code in (0, 1)


@pytest.mark.parametrize("extra, order, scan_order", [
    (["--denominator", "5"], 120, 120),
    (["--theta", "1/5"], 120, 24),
], ids=["denominator-5", "theta-1-5"])
def test_verify_scans_at_the_order_of_its_grid(capsys, monkeypatch, extra, order, scan_order):
    """The report names the field order of the suites; the scans keep theta
    formal, so they run at the order of their grid, as ``nbk scan`` does."""
    orders = []
    scan_cocycles = verify.scan_cocycles

    def recording_scan(*args, **kwargs):
        result = scan_cocycles(*args, **kwargs)
        orders.append(result.order)
        return result

    monkeypatch.setattr(verify, "scan_cocycles", recording_scan)
    _, report = run_json(capsys, "verify", "--suite", "actions", *extra)
    assert report["config"]["cyclotomic_order"] == order
    assert orders == [scan_order] * len(families.FAMILIES)


def test_scan_row_is_an_anomaly_only_for_the_pinned_defect(capsys):
    # the 1/3 grid holds the thirds of the B6 row but not the halves of N2,
    # and on it the tabulated and pinned N2 rows coincide
    _, report = run_json(capsys, "verify", "--suite", "actions", "--denominator", "3")
    statuses = {r["name"]: r["status"] for r in report["results"]}
    assert statuses["scan[N2]"] == "pass"
    assert statuses["scan[B6]"] == "anomaly"
    # a scan that computes neither the tabulated nor the pinned set fails
    result = scan_cocycles("N2", 6)
    slot, patterns = result.computed()
    result.patterns[slot] = patterns - {min(patterns)}
    assert scan_row(result).status == "fail"


@pytest.mark.parametrize("denominator", [5, 7, 11])
def test_verify_passes_correct_scans_on_a_grid_without_the_tabulated_values(capsys, denominator):
    """Halves and thirds are not multiples of 1/5, 1/7 or 1/11: the scan rows
    compare the rows the grid holds, and pass."""
    code, report = run_json(capsys, "verify", "--suite", "actions", "--denominator", str(denominator))
    assert code == 0
    assert {r["status"] for r in report["results"] if r["name"].startswith("scan[")} == {"pass"}


def test_scan_documented_mismatch_exits_nonzero(capsys):
    code, report = run_json(capsys, "scan", "--family", "N2")
    assert code == 1
    statuses = {r["name"]: r["status"] for r in report["results"]}
    assert statuses["matches-reference-table"] == "fail"
    assert any("not reproducible" in note for note in report["notes"])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["scan", "--family", "B9"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["ktheory"])
    assert err.value.code == 2
    # sample sizes that would let a check pass after evaluating nothing
    for argv in (["verify", "--suite", "traces", "--samples", "0"],
                 ["verify", "--suite", "traces", "--samples", "-3"],
                 ["verify", "--suite", "morita", "--degree", "-1"],
                 ["verify", "--suite", "morita", "--degree", "0"],
                 # sample sizes and degrees above their bounds
                 ["verify", "--suite", "traces", "--samples", "1001"],
                 ["verify", "--suite", "morita", "--degree", "11"],
                 # a grid denominator below 1 leaves no order for the run
                 ["verify", "--suite", "algebra", "--denominator", "0"],
                 ["scan", "--family", "B2", "--denominator", "-2"],
                 # one grid bound for both subcommands that read a denominator
                 ["verify", "--suite", "algebra", "--denominator", "13"],
                 ["scan", "--family", "B2", "--denominator", "13"],
                 # options a subcommand would not read
                 ["ktheory", "B3", "--theta", "1/5"],
                 ["ktheory", "B3", "--samples", "7"],
                 ["homology", "--samples", "7"],
                 ["scan", "--family", "B2", "--seed", "3"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_a_stray_argument_is_reported_by_its_subcommand(capsys):
    for argv, command, stray in ((["homology", "x"], "homology", "x"),
                                 (["ktheory", "B3", "--theta", "1/5"], "ktheory", "--theta 1/5")):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: nbk {command} ")
        assert lines[-1] == f"nbk {command}: error: unrecognized arguments: {stray}"


# bounded values of the options without choices, by destination: theta
# denominators up to 5 and grids up to 6 keep the field order at most 240
_OPTION_VALUES = {
    "seed": st.integers(-3, 3).map(str),
    "samples": st.integers(1, 3).map(str),
    "degree": st.integers(1, 2).map(str),
    "denominator": st.integers(1, 6).map(str),
    "theta": st.sampled_from(["0", "1/2", "2/3", "3/4", "1/5", "7/5"]),
    "epsilon": st.sampled_from(["+1", "1", "-1"]),
    "out": st.just(os.path.join(__file__, "report.json")),  # under a file: writing the report fails
}
_INVALID_TOKENS = ["", "x", "0", "-1", "13", "1001", "1/0", "1/13", "B9", "--bogus", "--theta", "--suite"]


@st.composite
def _argv(draw):
    """An ``nbk`` argv from the parser's own subcommands, choices and options:
    one suite at a time (``all`` forks workers), bounded values, and up to two
    invalid tokens anywhere."""
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    name = draw(st.sampled_from(sorted(commands)))
    argv = [name]
    for action in commands[name]._actions:
        if action.dest == "help":
            continue
        if action.option_strings and action.dest != "suite" and not draw(st.booleans()):
            continue  # a drawn option left out; verify always names its suite
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        values = (st.sampled_from([c for c in action.choices if c != "all"]) if action.choices
                  else _OPTION_VALUES[action.dest])
        argv += [*action.option_strings[:1], draw(values)]
    for token in draw(st.lists(st.sampled_from(_INVALID_TOKENS), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def test_any_drawn_argv_exits_cleanly():
    """Exit 0, 1 or 2 with no traceback, and an ``nbk [<cmd>]: error:`` line on 2."""
    codes = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_argv())
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 2:
            assert re.search(r"^nbk( \w+)?: error: ", err.getvalue(), re.M), (argv, err.getvalue())
        codes.add(code)

    run()
    assert {0, 2} <= codes


@pytest.mark.parametrize("option, value", [("--samples", "1001"), ("--degree", "11")])
def test_sample_size_and_degree_are_bounded(capsys, option, value):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "algebra", option, value])
    assert err.value.code == 2
    assert f"argument {option}: must be at most" in capsys.readouterr().err


def test_verify_homology_suite(capsys):
    code, report = run_json(capsys, "verify", "--suite", "homology")
    assert code == 0
    assert all(r["status"] == "pass" for r in report["results"])


def test_verify_betastar_suite_anomalies_do_not_fail(capsys):
    code, report = run_json(capsys, "verify", "--suite", "betastar")
    assert code == 0
    statuses = {r["status"] for r in report["results"]}
    assert statuses == {"pass", "anomaly"}


def test_strict_mode_turns_anomalies_into_failures(capsys):
    code, _ = run_json(capsys, "verify", "--suite", "betastar", "--strict")
    assert code == 1


def test_report_byte_stability(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "--suite", "homology", "--seed", "5",
                     "--format", "json", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, extra", [
    ("verify_all_seed11.json", []),
    ("verify_all_seed11_theta1-5.json", ["--theta", "1/5"]),
])
def test_verify_report_matches_golden(tmp_path, name, extra):
    # the golden files pin the exact report bytes, anomaly reprs included
    path = tmp_path / name
    code = main(["verify", "--suite", "all", "--samples", "3", "--degree", "1", "--seed", "11",
                 "--format", "json", "--out", str(path), *extra])
    assert code == 0
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


_KTHEORY_RUNS = [["ktheory", "B2", "--epsilon", "1"], ["ktheory", "B2", "--epsilon", "-1"],
                 ["ktheory", "B3"], ["ktheory", "B4"], ["ktheory", "B6"]]


def test_ktheory_reports_match_golden(capsys):
    # the golden list pins every report, the SNF certificate's U and V included
    golden = json.loads((GOLDEN / "ktheory.json").read_text())
    assert len(golden) == len(_KTHEORY_RUNS)
    for argv, expected in zip(_KTHEORY_RUNS, golden):
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert report == expected


def test_verify_report_matches_golden_under_optimize_flag(capsys):
    # the checks, and the certified solve behind beta_hat_*, must not rest on
    # plain asserts, which python -O removes
    runs = [["verify", "--suite", "all", "--samples", "3", "--degree", "1", "--seed", "11"],
            *_KTHEORY_RUNS]
    runs = [[*argv, "--format", "json"] for argv in runs]
    expected = (GOLDEN / "verify_all_seed11.json").read_text()
    for argv in runs[1:]:
        assert main(argv) == 0
        expected += capsys.readouterr().out
    code = (
        "import sys\n"
        "from ncbieberbach.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "sys.exit(max(codes))\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True)
    assert run.stdout == expected


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this package from
    its source tree, compiling it as ``nbk`` does when no bytecode is written."""
    src = str(Path(ncbieberbach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


PARSER_MODULES = {"ncbieberbach", *(f"ncbieberbach.{m}" for m in ("cli", "families", "report", "scalars"))}
SCAN_MODULES = PARSER_MODULES | {"ncbieberbach.actions", "ncbieberbach.torus"}


def _loaded_after(statement: str, prelude: str = "import ncbieberbach.cli as cli") -> set[str]:
    """The package modules, and ``dataclasses``, loaded in a fresh interpreter
    that runs ``prelude`` (by default, imports the CLI) and then ``statement``
    with its output captured."""
    code = (
        "import contextlib, io, sys\n"
        f"{prelude}\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {statement}\n"
        "print(*(m for m in sys.modules if m.split('.')[0] in ('ncbieberbach', 'dataclasses')))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_each_command_loads_only_the_modules_it_runs():
    """Every invocation compiles what it imports: the parser needs neither
    the actions nor the torus, the scan neither the crossed products nor
    ``verify``, ``ktheory`` or ``lattice``, which the other commands load when
    they run; no command loads ``dataclasses``."""
    scan = 'cli.main(["scan", "--family", "B2", "--denominator", "4", "--format", "json"])'
    assert _loaded_after(scan) == SCAN_MODULES
    assert _loaded_after("cli.build_parser()") == PARSER_MODULES
    for argv in (["verify", "--suite", "homology"], ["ktheory", "B2"], ["homology"]):
        loaded = _loaded_after(f"cli.main({argv + ['--format', 'json']!r})")
        assert {f"ncbieberbach.{m}" for m in ("verify", "crossed", "ktheory", "lattice")} <= loaded, argv
        assert "dataclasses" not in loaded, argv


def test_the_integer_geometry_loads_only_the_data_and_the_certificate():
    """``lattice`` imports only ``families`` and ``scalars.certify``, so any module can use it."""
    loaded = _loaded_after("import ncbieberbach.lattice", prelude="")
    assert loaded == {"ncbieberbach", *(f"ncbieberbach.{m}" for m in ("families", "lattice", "scalars"))}


def test_the_parser_names_the_verify_suites():
    assert SUITES == (*verify.SUITES, "all")


def test_markdown_rendering(capsys):
    code = main(["homology", "--family", "B4", "--format", "md"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# nbk homology" in out
    assert "k0-equals-z-plus-h1[B4]" in out


def test_markdown_cells_escape_the_pipe(capsys):
    """The anomaly details of the crossed suite print CrossedElement{[0,0|p^0]:...};
    each table row keeps its three cells."""
    main(["verify", "--suite", "crossed"])
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| ")]
    assert any("[0,0\\|p^0]" in row for row in rows)
    assert all(len(re.split(r"(?<!\\)\|", row)) == 5 for row in rows), rows


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["ktheory", "B4", "--format", "json", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(path.read_text())
    assert report["payload"]["K0"] == {"rank": 2, "torsion": [2]}


def test_folded_theta_verify(capsys):
    code, report = run_json(capsys, "verify", "--suite", "crossed", "--theta", "1/5")
    assert code == 0
    assert report["config"]["theta_mode"] == "1/5"
    assert report["config"]["cyclotomic_order"] == 120


@pytest.mark.parametrize("theta", [["--theta", "1/1009"], ["--theta=-2/13"]], ids=["1/1009", "-2/13"])
def test_theta_denominator_is_bounded_before_any_table_is_built(capsys, theta):
    """``--theta 1/1009`` would derive field order 24,216 and never finish;
    the parser refuses a denominator above ``MAX_DENOMINATOR`` and names the
    option."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "algebra", *theta])
    assert err.value.code == 2
    assert "argument --theta: denominator must be at most 12" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# the suites side by side

GOLDEN_SETTINGS = dict(seed=11, samples=3, degree=1, denominator=6)


def _no_fork():
    raise AssertionError("a single suite or a single CPU must not fork")


@pytest.fixture
def two_cpus(monkeypatch):
    """The forked path, whatever this host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_run_suites_gives_the_rows_of_a_sequential_run(monkeypatch):
    settings = verify.Settings(**GOLDEN_SETTINGS)
    sequential = [verify.SUITES[name](settings) for name in verify.SUITES]
    assert verify.run_suites(list(verify.SUITES), settings) == sequential
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _no_fork)
    assert verify.run_suites(list(verify.SUITES), settings) == sequential


def test_run_suites_runs_each_suite_in_a_worker_and_reads_them_at_call_time(monkeypatch, two_cpus):
    calls = []

    def recording(settings):
        calls.append(os.getpid())
        return [Check(f"ran-in[{os.getpid()}]", "pass")]

    monkeypatch.setitem(verify.SUITES, "homology", recording)
    settings = verify.Settings(**GOLDEN_SETTINGS)
    rows = verify.run_suites(["homology", "betastar"], settings)
    assert calls == [] and len(rows[0]) == 1  # the patched runner ran, in a worker
    assert rows[0][0].name.startswith("ran-in[") and rows[0][0].name != f"ran-in[{os.getpid()}]"
    assert rows[1] == verify.SUITES["betastar"](settings)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_suite_whose_worker_dies_runs_again_in_the_parent(monkeypatch, two_cpus):
    parent = os.getpid()
    homology = verify.SUITES["homology"]

    def dying(settings):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return homology(settings)

    monkeypatch.setitem(verify.SUITES, "homology", dying)
    settings = verify.Settings(**GOLDEN_SETTINGS)
    assert verify.run_suites(["betastar", "homology"], settings)[1] == homology(settings)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["forked", "in-process"])
def test_a_suite_error_exits_two_as_in_process_and_leaves_no_child(capsys, monkeypatch, cpus):
    calls = []

    def boom(settings):
        calls.append(os.getpid())
        raise ValueError("boom")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setitem(verify.SUITES, "traces", boom)
    code = main(["verify", "--suite", "all", "--samples", "3", "--degree", "1", "--seed", "11"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "nbk: error: boom\n"
    assert calls == [os.getpid()]  # the worker's call stays in the worker
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_stopped_when_the_parent_raises(monkeypatch, two_cpus):
    import pickle

    def slow(settings):
        time.sleep(60)

    def broken(data):
        raise RuntimeError("unreadable rows")

    monkeypatch.setitem(verify.SUITES, "morita", slow)
    monkeypatch.setattr(pickle, "loads", broken)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="unreadable rows"):
        verify.run_suites(["homology", "morita", "morita"], verify.Settings(**GOLDEN_SETTINGS))
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_single_suite_runs_in_the_parent(capsys, monkeypatch):
    calls = []
    homology = verify.SUITES["homology"]

    def recording(settings):
        calls.append(os.getpid())
        return homology(settings)

    monkeypatch.setitem(verify.SUITES, "homology", recording)
    monkeypatch.setattr(os, "fork", _no_fork)
    code, report = run_json(capsys, "verify", "--suite", "homology")
    assert code == 0 and calls == [os.getpid()]
    assert {r["name"] for r in report["results"]} == {f"k0-equals-z-plus-h1[{f}]" for f in families.K_FAMILIES}


@pytest.mark.parametrize("cpus, forks", [({0, 1}, 2), (set(range(8)), 7)], ids=["two-cpus", "eight-cpus"])
def test_run_suites_forks_one_worker_per_cpu_up_to_one_per_suite(monkeypatch, cpus, forks):
    fork, calls = os.fork, []

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(os, "fork", counting)
    settings = verify.Settings(**GOLDEN_SETTINGS)
    assert verify.run_suites(list(verify.SUITES), settings) == [verify.SUITES[name](settings) for name in verify.SUITES]
    assert calls == [os.getpid()] * forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tagged(settings):
    return [Check(f"ran-in[{os.getpid()}]", "pass")]


@contextlib.contextmanager
def _gated_suites():
    """Two suites on one pipe: ``waiting`` holds its worker until ``opening``
    runs in another one (at most 20 s), so that other worker takes every
    suite queued between them.  Both give ``_tagged`` rows."""
    read, write = os.pipe()

    def waiting(settings):
        opened = select.select([read], [], [], 20)[0]
        return _tagged(settings) if opened else [Check("the gate never opened", "fail")]

    def opening(settings):
        os.write(write, b"x")
        return _tagged(settings)

    try:
        yield waiting, opening
    finally:
        os.close(read)
        os.close(write)


def test_a_worker_whose_suite_raises_takes_the_next_suite(monkeypatch, two_cpus):
    parent = os.getpid()

    def raising(settings):
        if os.getpid() != parent:
            raise ValueError("raised in a worker")
        return _tagged(settings)

    with _gated_suites() as (waiting, opening):
        for name, suite in zip(("algebra", "actions", "crossed", "traces"), (waiting, raising, _tagged, opening)):
            monkeypatch.setitem(verify.SUITES, name, suite)
        rows = verify.run_suites(["algebra", "actions", "crossed", "traces"], verify.Settings(**GOLDEN_SETTINGS))
    held, rerun, after, opener = (suite_rows[0].name for suite_rows in rows)
    assert rerun == f"ran-in[{parent}]"  # the suite that raised in its worker ran again here
    assert after == opener != held  # ... and its worker went on to the next two
    assert parent not in {int(name[len("ran-in["):-1]) for name in (held, after)}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["forked", "in-process"])
def test_of_two_suites_that_raise_the_earlier_one_surfaces(capsys, monkeypatch, cpus):
    def raising(message):
        def suite(settings):
            raise ValueError(message)
        return suite

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setitem(verify.SUITES, "morita", raising("morita raised"))
    monkeypatch.setitem(verify.SUITES, "actions", raising("actions raised"))
    code = main(["verify", "--suite", "all", "--samples", "3", "--degree", "1", "--seed", "11"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "nbk: error: actions raised\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_rows_larger_than_a_pipe_come_back_while_another_worker_runs(monkeypatch, two_cpus):
    """The 200 kB rows fill the worker's pipe three times over; the parent
    must read them while the other worker still waits for the gate, which
    only the suite after the large one opens."""
    counterexample = {"x": "7" * 200_000}

    def large(settings):
        return [Check(f"ran-in[{os.getpid()}]", "fail", counterexample=counterexample)]

    with _gated_suites() as (waiting, opening):
        for name, suite in zip(("algebra", "actions", "crossed"), (waiting, large, opening)):
            monkeypatch.setitem(verify.SUITES, name, suite)
        rows = verify.run_suites(["algebra", "actions", "crossed"], verify.Settings(**GOLDEN_SETTINGS))
    assert len(pickle.dumps(rows[1])) > 1 << 16
    assert rows[1][0].counterexample == counterexample and rows[1][0].name != f"ran-in[{os.getpid()}]"
    assert rows[0][0].name.startswith("ran-in[") and rows[0][0].name != rows[1][0].name == rows[2][0].name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", ["11", "2601"])
def test_the_verify_report_is_the_same_on_one_cpu_and_on_two(capsys, monkeypatch, seed):
    argv = ["verify", "--suite", "all", "--samples", "20", "--degree", "2", "--seed", seed, "--format", "json"]
    outputs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_more_workers_than_cores_take_each_queued_suite_once(monkeypatch):
    """Eight workers on one queue of 60 suites: each suite runs once, in a
    worker, so no index is lost to a worker or taken twice."""
    read, write = os.pipe()

    def counted(settings):
        os.write(write, b"x")
        return _tagged(settings)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setitem(verify.SUITES, "homology", counted)
    try:
        rows = verify.run_suites(["homology"] * 60, verify.Settings(**GOLDEN_SETTINGS))
        ran = os.read(read, 1024)
    finally:
        os.close(read)
        os.close(write)
    tags = {suite_rows[0].name for suite_rows in rows}
    assert len(rows) == 60 and ran == b"x" * 60
    assert f"ran-in[{os.getpid()}]" not in tags and len(tags) <= 8
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
