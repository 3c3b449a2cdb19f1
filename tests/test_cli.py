import ast
import csv
import multiprocessing
import os
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fdd2d.cli import CSV_COLUMNS, SWEEPABLE, main, parse_args, run

# CLI subprocesses import the checkout's package, installed or not
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REPO_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(args, env_extra=None):
    env = dict(REPO_ENV)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "fdd2d.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_fig4_style_flags():
    spec = parse_args(
        ["--mode", "analytic", "--n-users", "20", "--radius", "40",
         "--zipf", "0.8", "--theta-db", "-10:30:1"]
    )
    assert spec.mode == "analytic"
    assert spec.n_users == 20
    assert spec.radius == 40.0
    assert spec.zipf == 0.8
    assert spec.library_size == 1000  # default
    assert spec.alpha == 4.0          # default
    assert spec.beta == 1e-5          # default
    grid = spec.theta_db
    assert grid[0] == -10.0 and grid[-1] == 30.0 and len(grid) == 41


def test_parse_fig3_style_sweep():
    spec = parse_args(
        ["--n-users", "5", "--sweep", "n_users=5,10,20,40", "--zipf", "1.2", "--radius", "30"]
    )
    assert spec.sweep == [("n_users", [5, 10, 20, 40])]


def test_missing_n_users_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["--mode", "analytic"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    result = run_cli(["--n-users", "5", "--frobnicate"])
    assert result.returncode == 2


def test_malformed_grid_exits_2():
    for grid in ("1:2", "5:1:1", "a:b:c", "0:10:-1"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["--n-users", "5", "--theta-db", grid])
        assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["4000:4000:1", "-4000:-4000:1", "0:10:1e-300"])
def test_unusable_theta_grid_exits_2(grid, tmp_path, capsys):
    # linear thresholds of infinity or 0, and more points than can be allocated
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--n-users", "5", "--theta-db", grid, "--out", str(out)])
    assert exc.value.code == 2
    assert "--theta-db" in capsys.readouterr().err
    assert not out.exists()


def config_setting(path, flag, value):
    """Write a config file of ``n_users = 5`` with ``flag``'s key set to ``value``, and return its path."""
    path.write_text("".join(f"{key} = {v}\n" for key, v in {"n_users": "5", flag[2:].replace("-", "_"): value}.items()))
    return path


# (parameter, flag, value out of range, the library's message); the first four can be swept
OUT_OF_RANGE = [
    ("n_users", "--n-users", "0", "n_users must be an integer >= 1, got 0"),
    ("gamma_r", "--zipf", "-0.5", "gamma_r must be a finite number >= 0, got -0.5"),
    ("radius", "--radius", "0", "radius must be a finite number > 0, got 0.0"),
    ("beta", "--beta", "1.5", "beta must be a finite number in [0, 1], got 1.5"),
    ("library_size", "--library-size", "0", "m must be an integer >= 1, got 0"),
    ("alpha", "--alpha", "2", "alpha must be a finite number > 2, got 2.0"),
    ("trials", "--trials", "0", "trials must be an integer >= 1, got 0"),
    ("seed", "--seed", "-1", "master_seed must be an integer in [0, 18446744073709551615], got -1"),
]


@pytest.mark.parametrize("name, flag, bad, message", OUT_OF_RANGE, ids=["-".join(case[:3]) for case in OUT_OF_RANGE])
def test_sweepable_value_out_of_range_exits_2(name, flag, bad, message, tmp_path, capsys):
    # the converters only parse, so the library checks each value from its flag, the config file and --sweep
    cfg = config_setting(tmp_path / "bad.cfg", flag, bad)
    sources = [(["--n-users", "5", flag, bad], flag), (["--config", str(cfg)], flag)]
    if name in SWEEPABLE:
        sources.append((["--n-users", "5", "--sweep", f"{name}={bad}"], f"--sweep {name}"))
    for argv, named in sources:
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert named in err and message in err


@pytest.mark.parametrize("flag, bad, sweep", [("--n-users", "0", "n_users=5"), ("--zipf", "-1", "gamma_r=0.8"),
                                              ("--radius", "0", "radius=10,20"), ("--beta", "2", "beta=0.1")])
def test_value_a_sweep_replaces_is_not_checked(flag, bad, sweep, tmp_path):
    # the run never uses the flag's value, whether the flag or the config file gives it
    def points(argv):
        return [(c.n_users, c.profile.gamma_r, c.disk.radius, c.channel.beta) for c in parse_args([*argv, "--sweep", sweep]).configs]

    cfg = config_setting(tmp_path / "replaced.cfg", flag, bad)
    reference = points(["--n-users", "5"])
    assert points(["--n-users", "5", flag, bad]) == reference
    assert points(["--config", str(cfg)]) == reference


def test_swept_n_users_needs_no_n_users_flag(tmp_path):
    out = tmp_path / "out.csv"
    assert run(parse_args(["--sweep", "n_users=5,10", "--theta-db", "0:0:1", *QUICK_NODES, "--out", str(out)])) == 0
    assert [r["n_users"] for r in read_rows(out)] == ["5", "10"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--radius", "1e80"], "--radius"),
        (["--radius", "1e-200"], "--radius"),
        (["--alpha", "1000"], "--alpha"),
        (["--sweep", "radius=30,1e80"], "--sweep radius"),
        (["--config", "radius.cfg"], "--radius"),
    ],
)
def test_distance_powers_out_of_float64_exit_2(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "radius.cfg").write_text("radius = 1e300\n")
    for mode in ("analytic", "simulate"):
        out = tmp_path / f"{mode}.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--mode", mode, "--n-users", "5", *argv, "--theta-db", "0:0:1", "--trials", "10", "--out", str(out)])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [["--radius", "1e30"], ["--radius", "1e-30"], ["--alpha", "100"]])
def test_extreme_distance_powers_run_without_warnings(argv, tmp_path):
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fdd2d.cli", "--mode", "both", "--n-users", "5", *argv,
         "--theta-db", "0:10:10", "--trials", "500", "--out", str(out)],
        capture_output=True, text=True, env=REPO_ENV,
    )
    assert result.returncode == 0, result.stderr
    for row in read_rows(out):
        for column in ("p_total_analytic", "p_total_sim"):
            assert 0.0 <= float(row[column]) <= 1.0


def test_large_distance_power_analytic_run_without_warnings(tmp_path):
    # both distance powers of the transform's integrand underflow at alpha = 150
    out = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fdd2d.cli", "--mode", "analytic", "--n-users", "5",
         "--alpha", "150", "--theta-db", "0:10:10", "--out", str(out)],
        capture_output=True, text=True, env=REPO_ENV,
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert rows
    for row in rows:
        for column in ("p_sir_analytic", "p_total_analytic"):
            assert 0.0 <= float(row[column]) <= 1.0


def test_n_users_above_library_exits_2(capsys):
    # the message names the flag whose counts the run uses
    for argv, named in (
        (["--n-users", "50"], "--n-users"),
        (["--n-users", "5", "--sweep", "n_users=5,50"], "--sweep n_users"),
        (["--n-users", "50", "--sweep", "n_users=5,50"], "--sweep n_users"),
    ):
        with pytest.raises(SystemExit) as exc:
            parse_args([*argv, "--library-size", "10"])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err


def test_swept_n_users_replaces_the_flag_in_the_library_check(tmp_path):
    # only the swept counts are run, so only they must fit in the library
    out = tmp_path / "out.csv"
    args = ["--n-users", "2000", "--library-size", "1000", "--sweep", "n_users=5", "--theta-db", "0:0:1",
            *QUICK_NODES, "--out", str(out)]
    assert run(parse_args(args)) == 0
    assert [r["n_users"] for r in read_rows(out)] == ["5"]


def test_bad_sweep_parameter_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_args(["--n-users", "5", "--sweep", "alpha=3,4"])
    assert exc.value.code == 2


def test_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    args = ["--mode", "simulate", "--n-users", "5", "--trials", "10", "--out", out]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--seed", str(2**64)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert parse_args(args + ["--seed", str(2**64 - 1)]).seed == 2**64 - 1


def test_repeated_sweep_parameter_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args(["--n-users", "5", "--sweep", "beta=0.1", "--sweep", "beta=0.2"])
    assert exc.value.code == 2
    assert "--sweep beta" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n_users = 5\nzipff = 0.3\n")
    with pytest.raises(SystemExit) as exc:
        parse_args(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "'zipff'" in capsys.readouterr().err


def test_config_file_sweep_is_replaced_by_flag(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_users = 5\nsweep = n_users=5,10\n")
    assert parse_args(["--config", str(cfg)]).sweep == [("n_users", [5, 10])]
    assert parse_args(["--config", str(cfg), "--sweep", "beta=0.1"]).sweep == [("beta", [0.1])]


def test_config_file_sweep_lines_add_up(tmp_path, capsys):
    cfg = tmp_path / "sweeps.cfg"
    cfg.write_text("n_users = 5\nsweep = n_users=5,10\nsweep = beta=0.1\n")
    assert parse_args(["--config", str(cfg)]).sweep == [("n_users", [5, 10]), ("beta", [0.1])]
    cfg.write_text("n_users = 5\nsweep = beta=0.1\nsweep = beta=0.2\n")
    with pytest.raises(SystemExit) as exc:
        parse_args(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "--sweep beta" in capsys.readouterr().err


def test_repeated_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("n_users = 5\nradius = 20\n# wider\nradius = 40\n")
    with pytest.raises(SystemExit) as exc:
        parse_args(["--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'radius'" in err and "line 2" in err and "line 4" in err


@pytest.mark.parametrize("line, flag", [("mode = foo", "--mode"), ("si_model = nope", "--si-model")])
def test_config_file_value_outside_choices_exits_2(line, flag, tmp_path, capsys):
    # a config file's lines are parsed as flags, so argparse checks their choices
    cfg = tmp_path / "choice.cfg"
    cfg.write_text(f"n_users = 5\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        parse_args(["--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "invalid choice" in err


@pytest.mark.parametrize(
    "key, bad",
    [("mode", "foo"), ("si_model", "nope"), ("radius", "0"), ("quad_nodes", "bogus=8")],
)
def test_bad_value_gives_the_same_error_from_file_and_flag(key, bad, tmp_path, capsys):
    # one argparse pass checks a value whichever source gives it
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_users = 5\n{key} = {bad}\n")
    errors = []
    for argv in (["--config", str(cfg)], ["--n-users", "5", "--" + key.replace("_", "-"), bad]):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "content, named",
    [(b"\xff\xfe n_users = 5\n", "--config"), (b"n_users = 5\nout = a\x00b.csv\n", "line 2")],
    ids=["not-utf8", "nul-byte"],
)
def test_config_file_that_is_not_text_exits_2(content, named, tmp_path, monkeypatch, capsys):
    # the file is read before anything runs, so no output is written
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--theta-db", "0:0:1", *QUICK_NODES])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--config" in err and named in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_bad_quad_nodes_exit_2(tmp_path, capsys):
    # the converter checks the pair syntax; QuadratureSpec checks levels and counts
    cfg = tmp_path / "nodes.cfg"
    for nodes, named in (("v=30,v=40", "'v'"), ("bogus=8", "'bogus'"), ("v=3", "'v'")):
        cfg.write_text(f"n_users = 5\nquad_nodes = {nodes}\n")
        for argv in (["--n-users", "5", "--quad-nodes", nodes], ["--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--quad-nodes" in err and named in err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # editors such as Windows Notepad write one before the first key
    cfg = tmp_path / "run.cfg"
    text = "n_users = 5\nzipf = 0.8\nsweep = radius=20,40\ntheta_db = 0:10:5\n"
    specs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        cfg.write_bytes(prefix + text.encode())
        specs.append(vars(parse_args(["--config", str(cfg)])))
    plain, marked = specs
    for spec in specs:
        spec["theta_db"] = spec["theta_db"].tolist()
        spec["configs"] = [(c.n_users, c.profile.gamma_r, c.disk.radius, c.channel.alpha, c.channel.beta)
                           for c in spec["configs"]]
    assert marked == plain
    assert plain["configs"] == [(5, 0.8, 20.0, 4.0, 1e-5), (5, 0.8, 40.0, 4.0, 1e-5)]


def test_config_file_hash_starts_a_comment_only_after_whitespace(tmp_path):
    # a "#" inside a value once cut it short, so the CSV went to the wrong path
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "c6#x.csv"
    cfg.write_text(f"# a comment line\nn_users = 5  # five\nzipf = 0.8\t# tab\nout = {out}\n")
    spec = parse_args(["--config", str(cfg)])
    assert (spec.n_users, spec.zipf, spec.out) == (5, 0.8, str(out))


def readme_commands():
    """Every ``fdd2d ...`` command of README.md's fenced blocks, ``\\`` continuations joined, as argv lists."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines() if line.startswith("fdd2d ")]


def test_readme_cli_examples_parse(tmp_path):
    # a renamed flag or a changed rule fails here instead of leaving the README wrong
    commands = readme_commands()
    assert len(commands) >= 3
    for argv in commands:
        out = str(tmp_path / "out.csv")
        spec = parse_args([*argv, "--out", out])
        assert spec.out == out and spec.configs


def loaded_modules(statements, packages, env_extra=None):
    """Run ``statements`` in a fresh interpreter; return the modules of ``packages`` it then holds."""
    probe = (
        f"import sys; {statements}; "
        f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {packages!r})))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=dict(REPO_ENV, **(env_extra or {})))
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "statements, env",
    [
        ("import fdd2d", None),
        ("import fdd2d.cli", None),
        ("import fdd2d.cli as cli; cli.run(cli.parse_args({analytic!r}))", None),
        ("import fdd2d.cli as cli; cli.run(cli.parse_args({simulate!r}))", {"FD_D2D_THREADS": "1"}),
    ],
    ids=["import-package", "import-cli", "analytic-run", "one-worker-simulate-run"],
)
def test_light_runs_load_no_scipy_or_process_pool(statements, env, tmp_path):
    # numpy is the only runtime dependency and scipy serves the tests alone;
    # only a run with more than one worker opens, and so imports, the pool
    common = ["--n-users", "4", "--theta-db", "0:0:1", *QUICK_NODES, "--out", str(tmp_path / "out.csv")]
    statements = statements.format(analytic=["--mode", "analytic", *common],
                                   simulate=["--mode", "simulate", "--trials", "3000", *common])
    assert loaded_modules(statements, ["scipy", "multiprocessing", "concurrent.futures.process"], env) == []


def test_pooled_run_leaves_numpy_random_out_of_the_parent(tmp_path):
    # only the pool workers draw; importing numpy.random in the parent before
    # the fork would raise the parent's RSS by about 6 MB
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip("with one CPU the parent simulates on its own")
    args = ["--mode", "both", "--n-users", "4", "--theta-db", "0:0:1", "--trials", "3000",
            *QUICK_NODES, "--out", str(tmp_path / "out.csv")]
    statements = f"import fdd2d.cli as cli; cli.run(cli.parse_args({args!r}))"
    assert loaded_modules(statements, ["numpy.random"], {"FD_D2D_THREADS": "2"}) == []
    assert len(read_rows(tmp_path / "out.csv")) == 1


def test_cli_imports_no_private_package_name():
    # the CLI reaches the package through its public names only
    with open(os.path.join(SRC, "fdd2d", "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "fdd2d")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_invalid_worker_env_exits_2(threads, tmp_path, monkeypatch, capsys):
    # only the simulator's pool reads it, but every mode checks it
    monkeypatch.setenv("FD_D2D_THREADS", threads)
    for mode in ("simulate", "analytic"):
        out = tmp_path / f"{mode}.csv"
        with pytest.raises(SystemExit) as exc:
            main(["--mode", mode, "--n-users", "5", "--theta-db", "0:0:1",
                  "--trials", "10", "--out", str(out)])
        assert exc.value.code == 2
        assert "FD_D2D_THREADS" in capsys.readouterr().err
        assert not out.exists()


def test_analytic_run_writes_schema_stable_csv(tmp_path):
    out = tmp_path / "fig4.csv"
    result = run_cli(
        ["--mode", "analytic", "--n-users", "20", "--radius", "40", "--zipf", "0.8",
         "--theta-db", "-10:30:1", "--quad-nodes", "v=8,t=8,z0=8,angle=12,zi=8",
         "--out", str(out)]
    )
    assert result.returncode == 0
    with open(out, newline="") as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    rows = read_rows(out)
    assert len(rows) == 41
    assert all(r["p_total_sim"] == "" and r["ci_halfwidth"] == "" for r in rows)
    assert all(r["trials"] == "" and r["seed"] == "" for r in rows)
    assert all(r["p_total_analytic"] != "" for r in rows)
    assert "P-TX=" in result.stdout


def test_both_mode_reports_gap(tmp_path):
    out = tmp_path / "both.csv"
    result = run_cli(
        ["--mode", "both", "--n-users", "5", "--theta-db", "0:10:5",
         "--trials", "1500", "--seed", "3",
         "--quad-nodes", "v=8,t=8,z0=8,angle=12,zi=8", "--out", str(out)]
    )
    assert result.returncode == 0
    assert "max |p_total_analytic - p_total_sim|" in result.stdout
    rows = read_rows(out)
    assert len(rows) == 3
    assert all(r["p_total_sim"] != "" and r["p_total_analytic"] != "" for r in rows)


def test_simulate_mode_leaves_analytic_columns_empty(tmp_path):
    out = tmp_path / "sim.csv"
    result = run_cli(
        ["--mode", "simulate", "--n-users", "5", "--theta-db", "0:6:3",
         "--trials", "500", "--seed", "1", "--out", str(out)]
    )
    assert result.returncode == 0
    rows = read_rows(out)
    assert all(r["p_sir_analytic"] == "" and r["p_total_analytic"] == "" for r in rows)
    assert all(r["p_total_sim"] != "" and r["trials"] == "500" for r in rows)


def test_repeated_seed_byte_identical(tmp_path):
    args = ["--mode", "simulate", "--n-users", "5", "--theta-db", "0:10:5",
            "--trials", "1000", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]).returncode == 0
    assert run_cli(args + ["--out", str(b)]).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_produces_row_per_point(tmp_path):
    # points follow the cartesian product in flag order, first parameter
    # outermost, with one row per threshold
    for sweep, expected in (
        (["--sweep", "n_users=5,10"], [("5", "1e-05")] * 2 + [("10", "1e-05")] * 2),
        (["--sweep", "beta=1e-5,0.01", "--sweep", "n_users=5,10"],
         [("5", "1e-05")] * 2 + [("10", "1e-05")] * 2 + [("5", "0.01")] * 2 + [("10", "0.01")] * 2),
    ):
        out = tmp_path / "sweep.csv"
        result = run_cli(
            ["--mode", "analytic", "--n-users", "5", *sweep,
             "--theta-db", "0:10:10", "--quad-nodes", "v=8,t=8,z0=8,angle=12,zi=8",
             "--out", str(out)]
        )
        assert result.returncode == 0
        rows = read_rows(out)
        assert [(r["n_users"], r["beta"]) for r in rows] == expected


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment defaults\n"
        "mode = analytic\n"
        "n_users = 5\n"
        "zipf = 0.8\n"
        "theta_db = 0:10:5\n"
    )
    out = tmp_path / "cfg.csv"
    result = run_cli(
        ["--config", str(cfg), "--zipf", "1.2",
         "--quad-nodes", "v=8,t=8,z0=8,angle=12,zi=8", "--out", str(out)]
    )
    assert result.returncode == 0
    rows = read_rows(out)
    assert rows[0]["gamma_r"] == "1.2"  # flag wins over file
    assert rows[0]["n_users"] == "5"


def test_config_file_and_flags_give_the_same_run(tmp_path, monkeypatch):
    monkeypatch.setenv("FD_D2D_THREADS", "1")
    settings = [
        ("mode", "both"), ("n_users", "5"), ("radius", "25"), ("library_size", "500"), ("zipf", "0.8"),
        ("alpha", "3.5"), ("beta", "1e-4"), ("theta_db", "-5:12:1.5"), ("sweep", "n_users=5,12"),
        ("sweep", "beta=1e-05,0.01"), ("trials", "600"), ("seed", "7"), ("si_model", "single"),
        ("quad_nodes", "v=8,t=8,z0=8,angle=12,zi=8"),
    ]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings) + f"out = {tmp_path / 'file.csv'}\n")
    flags = [part for key, value in settings for part in ("--" + key.replace("_", "-"), value)]
    assert run(parse_args(["--config", str(cfg)])) == 0
    assert run(parse_args([*flags, "--out", str(tmp_path / "flags.csv")])) == 0
    assert len(read_rows(tmp_path / "file.csv")) == 4 * 12
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_unwritable_output_exits_3(tmp_path):
    result = run_cli(
        ["--mode", "analytic", "--n-users", "5", "--theta-db", "0:0:1",
         "--quad-nodes", "v=8,t=8,z0=8,angle=12,zi=8",
         "--out", str(tmp_path / "missing" / "out.csv")]
    )
    assert result.returncode == 3
    assert "cannot write" in result.stderr


QUICK_NODES = ["--quad-nodes", "v=8,t=8,z0=8,angle=12,zi=8"]


def test_worker_env_does_not_change_results(tmp_path):
    for name, args in (
        ("simulate", ["--mode", "simulate", "--n-users", "6", "--theta-db", "0:6:6",
                      "--trials", "2100", "--seed", "4"]),
        # a task carries only the contents its users cache
        ("library", ["--mode", "simulate", "--n-users", "6", "--library-size", "1000000", "--theta-db", "0:6:6",
                     "--trials", "2100", "--seed", "4"]),
        # the points of a sweep share one pool while the analytic curves are computed
        ("both", ["--mode", "both", "--n-users", "3", "--sweep", "n_users=3,6", "--theta-db", "0:6:6",
                  "--trials", "2100", "--seed", "4", *QUICK_NODES]),
    ):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-w{threads}.csv"
            result = run_cli(args + ["--out", str(out)], {"FD_D2D_THREADS": threads})
            assert result.returncode == 0, result.stderr
            stdout = [line for line in result.stdout.splitlines() if not line.startswith("wrote ")]
            outputs.append((out.read_bytes(), stdout))
        assert outputs[0] == outputs[1], name


def test_workers_run_both_draw_paths_alike(tmp_path):
    # N = 10 blocks draw each trial's fading whole; a lone trial at N = 300
    # is over the block budget and draws its transmitter rows in chunks
    args = ["--mode", "simulate", "--n-users", "10", "--sweep", "n_users=10,300", "--trials", "600", "--seed", "3"]
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"w{threads}.csv"
        result = run_cli(args + ["--out", str(out)], {"FD_D2D_THREADS": threads})
        assert result.returncode == 0, result.stderr
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def pool_run_args(out):
    return ["--mode", "both", "--n-users", "4", "--theta-db", "0:0:1", "--trials", "3000",
            *QUICK_NODES, "--out", str(out)]


def test_pool_is_shut_down_on_output_failure(tmp_path, monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("FD_D2D_THREADS", "2")
    with pytest.raises(SystemExit) as exc:
        main(pool_run_args(tmp_path / "missing" / "out.csv"))
    assert exc.value.code == 3
    assert multiprocessing.active_children() == []


def test_pool_is_shut_down_when_a_curve_fails(tmp_path, monkeypatch):
    # the blocks still queued are cancelled and the workers joined
    def fail(*args, **kwargs):
        raise RuntimeError("curve failed")

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("FD_D2D_THREADS", "2")
    monkeypatch.setattr("fdd2d.cli.success_curve", fail)
    with pytest.raises(RuntimeError, match="curve failed"):
        main(pool_run_args(tmp_path / "out.csv"))
    assert multiprocessing.active_children() == []


def test_run_memory_grows_by_a_few_floats_per_threshold(tmp_path, monkeypatch):
    # a run holds each point's curves and formats a row only as it writes it;
    # a formatted row held until the end costs over 1 KB per threshold
    monkeypatch.setenv("FD_D2D_THREADS", "1")
    peaks = {}
    # the first grid runs twice, so one-time allocations fall in neither peak
    for grid in ("0:40:0.01", "0:40:0.01", "0:40:0.002"):
        spec = parse_args(["--mode", "simulate", "--n-users", "10", "--trials", "10", "--theta-db", grid,
                           "--out", str(tmp_path / "out.csv")])
        tracemalloc.start()
        try:
            assert run(spec) == 0
            peaks[len(spec.theta_db)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[20001] - peaks[4001]) / (20001 - 4001) < 128, peaks


def test_theta_grid_endpoint_inclusion(tmp_path):
    spec = parse_args(["--n-users", "5", "--theta-db", "-10:30:2"])
    grid = spec.theta_db
    assert grid[0] == -10.0 and grid[-1] == 30.0 and len(grid) == 21
    out = tmp_path / "grid.csv"
    spec = parse_args(["--n-users", "5", "--theta-db", "0:9.5:2", *QUICK_NODES, "--out", str(out)])
    grid = spec.theta_db
    assert grid[-1] == 8.0  # step does not divide the span: stop excluded
    assert run(spec) == 0
    rows = read_rows(out)
    assert [float(r["theta_db"]) for r in rows] == list(grid)
    np.testing.assert_array_equal([float(r["theta_linear"]) for r in rows], 10.0 ** (grid / 10.0))
