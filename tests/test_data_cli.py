"""CSV ingestion, model files, report assembly, and the command line."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import example1_model, random_model
from faskit import Mode, SimulationConfig, fas_estimate, load_csv, simulate, write_csv
from faskit.cli import (
    RunConfig,
    load_model,
    main,
    oracle_report,
    render_estimate_text,
    render_oracle_text,
    run,
)
from faskit.errors import (
    AmbiguousColumnError,
    EmptyAfterFilteringError,
    MissingColumnError,
    ParseError,
)

CSV = """y,x,z1,z2,w
1.0,0.5,0.1,0.2,1.0
2.0,1.5,0.3,0.1,0.9
3.0,2.0,0.2,0.4,1.1
4.0,2.5,0.5,0.3,0.8
5.0,3.5,0.4,0.6,1.2
"""


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_happy_path(tmp_path):
    path = _write(tmp_path, CSV)
    data, dropped = load_csv(path, "y", "x", ["z1", "z2"], controls=["w"])
    assert dropped == 0
    assert data.n == 5
    assert data.z_names == ("z1", "z2")
    assert data.control_names == ("w",)
    assert data.y[2] == 3.0
    assert data.provenance.endswith("data.csv")


def test_missing_cells_drop_rows_with_a_count(tmp_path):
    text = CSV.replace("3.0,2.0,0.2,0.4,1.1", "3.0,,0.2,0.4,1.1")
    data, dropped = load_csv(_write(tmp_path, text), "y", "x", ["z1", "z2"])
    assert dropped == 1
    assert data.n == 4
    # unreferenced columns do not trigger drops
    text = CSV.replace("1.0,0.5,0.1,0.2,1.0", "1.0,0.5,0.1,0.2,")
    data, dropped = load_csv(_write(tmp_path, text), "y", "x", ["z1", "z2"])
    assert dropped == 0 and data.n == 5


def test_role_clash_is_ambiguous(tmp_path):
    path = _write(tmp_path, CSV)
    with pytest.raises(AmbiguousColumnError) as err:
        load_csv(path, "y", "x", ["x", "z2"])
    assert "x" in str(err.value)


def test_unknown_column_is_reported(tmp_path):
    with pytest.raises(MissingColumnError) as err:
        load_csv(_write(tmp_path, CSV), "y", "x", ["z1", "nope"])
    assert "nope" in str(err.value)


def test_unparseable_cell_names_row_and_column(tmp_path):
    text = CSV.replace("2.0,1.5", "2.0,abc")
    with pytest.raises(ParseError) as err:
        load_csv(_write(tmp_path, text), "y", "x", ["z1"])
    msg = str(err.value)
    assert "x" in msg and "3" in msg  # header is row 1


def test_all_rows_missing_raises(tmp_path):
    text = "y,x,z1\n,1.0,0.2\n,2.0,0.3\n"
    with pytest.raises(EmptyAfterFilteringError):
        load_csv(_write(tmp_path, text), "y", "x", ["z1"])


def test_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(139)
    data = simulate(SimulationConfig(model=random_model(rng, 2), n=40, seed=139))
    path = str(tmp_path / "roundtrip.csv")
    write_csv(data, path)
    back, dropped = load_csv(path, "y", "x", list(data.z_names))
    assert dropped == 0
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.Z, data.Z)


MODEL_FILE = """# two instruments, one exclusion violation
beta = 1.5
pi = 1.0, 0.8
gamma = 0.0, 0.4
alpha = 0.0, 0.0
sigma_z = 1.0, 0.3; 0.3, 1.0
var_u = 1.2
var_v = 0.9
"""


def test_model_file_parsing(tmp_path):
    path = _write(tmp_path, MODEL_FILE, "model.txt")
    model, extras = load_model(path)
    assert model.beta == 1.5
    assert np.array_equal(model.pi, [1.0, 0.8])
    assert np.array_equal(model.gamma, [0.0, 0.4])
    assert model.sigma_z[0, 1] == 0.3
    assert model.var_u == 1.2
    assert extras == {}


def test_model_file_defaults(tmp_path):
    path = _write(tmp_path, "beta = 2.0\npi = 1.0, 1.0, 1.0\n", "m.txt")
    model, _ = load_model(path)
    assert np.array_equal(model.gamma, np.zeros(3))
    assert np.array_equal(model.alpha, np.zeros(3))
    assert np.array_equal(model.sigma_z, np.eye(3))
    assert model.var_u == 1.0


def test_model_file_errors(tmp_path):
    with pytest.raises(ParseError) as err:
        load_model(_write(tmp_path, "beta = 1.0\npi = a, b\n", "bad.txt"))
    assert "bad.txt" in str(err.value)
    with pytest.raises(ParseError):
        load_model(_write(tmp_path, "pi = 1.0\n", "nobeta.txt"))
    with pytest.raises(ParseError):
        load_model(_write(tmp_path, "beta = 1\npi = 1\nwhat = 3\n", "unknown.txt"))


def _seeded_dataset(k=2, seed=149, n=400):
    rng = np.random.default_rng(seed)
    return simulate(SimulationConfig(model=random_model(rng, k), n=n, seed=seed))


def test_run_report_shape_and_consistency():
    data = _seeded_dataset()
    report = run(data, RunConfig(mode="all"))
    assert len(report["specs"]) == 4
    assert set(report["fas"]) == {"excl", "exo", "general"}
    # interval re-derivable from the per-spec records
    for mode in Mode:
        section = report["fas"][mode.value]
        # one sweep viewed per mode equals the mode estimated on its own
        alone = fas_estimate(data, mode=mode)
        assert section["interval"] == (None if alone.interval is None else list(alone.interval))
        assert section["selected"] == sorted(alone.selection.selected)
        rows = [r for r in report["specs"] if r["spec_id"] in section["selected"]]
        betas = [r["beta_hat"] for r in rows]
        if mode is Mode.EXCL:
            betas = [
                r["beta_hat"] for r in rows if len(r["control_subset"]) == data.k_z - 1
            ]
        if mode is Mode.EXO:
            betas = [r["beta_hat"] for r in rows if not r["control_subset"]]
        if section["interval"] is None:
            assert not betas
        else:
            assert section["interval"] == [min(betas), max(betas)]
    # weights attach instrument names
    assert [w["name"] for w in report["tsls"]["weights"]] == list(data.z_names)


def test_report_json_round_trip():
    report = run(_seeded_dataset(k=3), RunConfig(mode="all", pairwise=True))
    assert json.loads(json.dumps(report)) == report


def test_text_report_carries_the_same_numbers():
    report = run(_seeded_dataset(), RunConfig(mode="all"))
    text = render_estimate_text(report)
    assert "%.4g" % report["tsls"]["beta_2sls"] in text
    for row in report["specs"]:
        assert "%.4g" % row["beta_hat"] in text
    lo, hi = report["fas"]["general"]["interval"]
    assert f"[{'%.4g' % lo}, {'%.4g' % hi}]" in text


def test_oracle_report_modes():
    report = oracle_report(example1_model(), RunConfig(mode="excl", frontier_grid=11))
    section = report["modes"]["excl"]
    assert section["interval"] == [0.0, 3.0]
    assert len(section["frontier"]) == 11
    text = render_oracle_text(report)
    assert "excl" in text and "frontier" in text.lower()


# ---------------------------------------------------------------------------
# command line


def _estimate_args(path, extra=(), instruments="Z1,Z2"):
    return [
        "estimate", "--data", path, "--outcome", "y", "--treatment", "x",
        "--instruments", instruments, *extra,
    ]


def test_cli_estimate_text_and_json(tmp_path):
    data = _seeded_dataset()
    path = str(tmp_path / "sim.csv")
    write_csv(data, path, outcome="y", treatment="x")
    runner = CliRunner()

    res = runner.invoke(main, _estimate_args(path, ["--controls", ""]))
    assert res.exit_code == 0
    assert "FAS" in res.output

    res = runner.invoke(main, _estimate_args(path, ["--emit", "json", "--pairwise"]))
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["schema_version"] == 1
    assert report["n"] == data.n
    assert len(report["pairwise"]) == 1
    same = run(data.with_arrays(data.y, data.x, data.Z), RunConfig(mode="all"))
    assert report["tsls"]["beta_2sls"] == pytest.approx(
        same["tsls"]["beta_2sls"], rel=1e-12
    )


def test_cli_empty_selection_still_exits_zero(tmp_path):
    data = _seeded_dataset()
    path = str(tmp_path / "sim.csv")
    write_csv(data, path)
    res = CliRunner().invoke(main, _estimate_args(path, ["--cutoff", "1e9"]))
    assert res.exit_code == 0
    assert "empty" in res.output


def test_cli_error_paths_exit_one(tmp_path):
    runner = CliRunner()
    entry_cases = [
        _estimate_args(str(tmp_path / "missing.csv"), instruments="z1,z2"),
        _estimate_args(_write(tmp_path, CSV), ["--cutoff", "-3"], instruments="z1,z2"),
        _estimate_args(_write(tmp_path, CSV), instruments="z1,zz"),
        ["oracle", "--model", str(tmp_path / "no.model")],
    ]
    for args in entry_cases:
        res = runner.invoke(main, args)
        assert res.exit_code != 0, args


def test_cli_oracle_json(tmp_path):
    path = _write(
        tmp_path,
        "beta = 1.0\npi = 1.0, 1.0, 1.0\ngamma = -1.0, 0.0, 2.0\n",
        "ex1.model",
    )
    res = CliRunner().invoke(main, ["oracle", "--model", path, "--emit", "json", "--mode", "excl"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["modes"]["excl"]["interval"] == [0.0, 3.0]
    assert len(report["modes"]["excl"]["frontier"]) == 201


def test_cli_simulate_writes_csv_and_summarizes(tmp_path):
    model_path = _write(tmp_path, MODEL_FILE, "model.txt")
    out_path = str(tmp_path / "draw.csv")
    res = CliRunner().invoke(
        main,
        ["simulate", "--model", model_path, "--n", "500", "--seed", "9",
         "--out", out_path, "--emit", "json"],
    )
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["n"] == 500
    data, dropped = load_csv(out_path, "y", "x", ["Z1", "Z2"])
    assert data.n == 500 and dropped == 0

    res = CliRunner().invoke(
        main,
        ["simulate", "--model", model_path, "--n", "300", "--seed", "9",
         "--reps", "5", "--emit", "json"],
    )
    assert res.exit_code == 0
    summary = json.loads(res.output)["replication_summary"]
    for mode in ("excl", "exo", "general"):
        stats = summary[mode]
        assert stats["n_nonempty"] == 5
        assert math.isfinite(stats["lo_mean"]) and stats["lo_sd"] >= 0.0


def test_cli_simulate_reports_only_the_requested_mode(tmp_path):
    model_path = _write(tmp_path, MODEL_FILE, "model.txt")
    for reps in ("1", "3"):
        res = CliRunner().invoke(
            main,
            ["simulate", "--model", model_path, "--n", "300", "--seed", "9",
             "--reps", reps, "--mode", "excl", "--emit", "json"],
        )
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert list(report["population"]) == ["excl"]
        block = report["estimates"] if reps == "1" else report["replication_summary"]
        assert list(block) == ["excl"]
        text = CliRunner().invoke(
            main,
            ["simulate", "--model", model_path, "--n", "300", "--seed", "9",
             "--reps", reps, "--mode", "excl"],
        ).output
        assert "FAS_excl" in text and "FAS_exo" not in text


def test_cli_removed_options_are_usage_errors(tmp_path):
    data = _seeded_dataset(k=3)
    path = str(tmp_path / "sim.csv")
    write_csv(data, path)
    model_path = _write(tmp_path, MODEL_FILE, "model.txt")
    runner = CliRunner()
    res = runner.invoke(main, _estimate_args(path, ["--threads", "2"], instruments="Z1,Z2,Z3"))
    assert res.exit_code == 2
    res = runner.invoke(main, ["oracle", "--model", model_path, "--cutoff", "5"])
    assert res.exit_code == 2


def test_cli_simulate_rejects_nonpositive_reps(tmp_path):
    model_path = _write(tmp_path, MODEL_FILE, "model.txt")
    runner = CliRunner()
    for reps in ("0", "-5"):
        res = runner.invoke(
            main, ["simulate", "--model", model_path, "--n", "300", "--seed", "9", "--reps", reps]
        )
        assert res.exit_code == 2
        assert "--reps" in res.output


def test_cli_robust_flavor_changes_standard_errors(tmp_path):
    data = _seeded_dataset()
    path = str(tmp_path / "sim.csv")
    write_csv(data, path)
    runner = CliRunner()
    out0 = json.loads(
        runner.invoke(main, _estimate_args(path, ["--robust", "hc0", "--emit", "json"])).output
    )
    out1 = json.loads(
        runner.invoke(main, _estimate_args(path, ["--robust", "hc1", "--emit", "json"])).output
    )
    assert out0["tsls"]["se"] < out1["tsls"]["se"]
    assert out0["tsls"]["beta_2sls"] == out1["tsls"]["beta_2sls"]


def test_console_script_prints_one_line_error_and_exits_1(tmp_path):
    # the installed wrapper, not CliRunner: diagnostics go to stderr as "error: ..."
    import os
    import subprocess
    import sys

    import faskit

    # the child imports the same faskit as this suite, however it was found
    src = os.path.dirname(os.path.dirname(faskit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from faskit.cli import entry; entry()",
         "estimate", "--data", str(tmp_path / "nope.csv"),
         "--outcome", "y", "--treatment", "x", "--instruments", "z1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "nope.csv" in proc.stderr
    assert proc.stdout == ""
