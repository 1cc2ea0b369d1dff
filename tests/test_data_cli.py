"""CSV ingestion, model files, report assembly, and the command line."""

import csv
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import example1_model, random_model
from faskit import (
    Dataset,
    Frontier,
    JustIdSpec,
    Mode,
    SimulationConfig,
    fas_estimate,
    fas_frontier,
    load_csv,
    population_fas,
    simulate,
    write_csv,
)
from faskit import data as data_module
from faskit.cli import (
    entry,
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
    ZeroFirstStageError,
)
from faskit.jsontext import indented_chunks

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


@pytest.mark.parametrize("missing", [False, True], ids=["one parse", "row by row"])
def test_a_leading_byte_order_mark_is_not_part_of_the_first_name(tmp_path, missing):
    # Excel's "CSV UTF-8" starts the file with one
    text = CSV.replace("3.0,2.0,0.2,0.4,1.1", "3.0,,0.2,0.4,1.1") if missing else CSV
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    data, dropped = load_csv(str(path), "y", "x", ["z1", "z2"], controls=["w"])
    clean, clean_dropped = load_csv(_write(tmp_path, text), "y", "x", ["z1", "z2"], controls=["w"])
    assert (data.n, dropped) == (clean.n, clean_dropped) == ((4, 1) if missing else (5, 0))
    for got, want in ((data.y, clean.y), (data.x, clean.x), (data.Z, clean.Z), (data.controls, clean.controls)):
        assert np.array_equal(got, want)
    usecols, header_lines = data_module._read_header(str(path), ["y", "x", "z1", "z2", "w"])
    assert (data_module._loadtxt_table(str(path), usecols, header_lines) is None) == missing
    args = ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "x", "--instruments", "z1,z2"]
    res = CliRunner().invoke(main, args + ["--emit", "json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["n"] == data.n


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


@pytest.mark.parametrize(
    "column, text",
    [
        ("y", "y,x,z1\n1.0,0.5,0.1\n1_5,1.5,0.3\n"),
        ("z1", "y,x,z1\n1.0,0.5,0.1\n2.0,1.5,\u0661\n"),
        ("x", "y,x,z1\n1.0,0.5,0.1\n2.0,\uff11.5,0.3\n"),
    ],
    ids=["digit separator", "arabic-indic digit", "fullwidth digit"],
)
def test_python_only_number_syntax_is_a_parse_error(tmp_path, column, text):
    # float() takes these; the CSV grammar is ASCII decimal without separators
    with pytest.raises(ParseError) as err:
        load_csv(_write(tmp_path, text), "y", "x", ["z1"])
    assert str(err.value).startswith(f"row 3, column '{column}': cannot parse")


# Referenced in another order than the header's, with one unreferenced column.
PARITY_HEADER = "note,z,y,w,x"
PARITY_NAMES = ["y", "x", "z", "w"]
# name, file text, whether the C parser reads it (else the row path does)
PARITY_FILES = [
    ("lf", PARITY_HEADER + "\na,1,2,3,4\nb,5,6,7,8\n", True),
    ("crlf", PARITY_HEADER + "\r\na,1,2,3,4\r\nb,5,6,7,8\r\n", True),
    ("no final newline", PARITY_HEADER + "\na,1,2,3,4\nb,5,6,7,8", True),
    ("padded", PARITY_HEADER + "\n a , 1 ,\t2, 3 ,4 \nb,  5,6  ,7,8\n", True),
    ("number forms", PARITY_HEADER + "\na,+.5,-1.,1E+2,-0\nb,1e-400,2.5e-3,-7,0012\n", True),
    ("quoted numbers", PARITY_HEADER + '\na,"1",2,"3",4\nb,5,"6",7," 8 "\n', True),
    ("quoted comma", PARITY_HEADER + '\n"a,b",1,2,3,4\n"c,d,e",5,6,7,8\n', True),
    ("quoted newline", PARITY_HEADER + '\n"a\nb",1,2,3,4\nc,5,6,7,8\n', True),
    ("header spans lines", '"no\nte",z,y,w,x\na,1,2,3,4\nb,5,6,7,8\n', True),
    ("non-ascii text", PARITY_HEADER + "\nhéllo ١,1,2,3,4\nü,5,6,7,8\n", True),
    ("long rows", PARITY_HEADER + "\na,1,2,3,4,9,9\nb,5,6,7,8\n", True),
    ("one row", PARITY_HEADER + "\na,1,2,3,4\n", True),
    ("hash text", PARITY_HEADER + "\n#a,1,2,3,4\nb,5,6,7,8\n", True),
    ("hash cell", PARITY_HEADER + "\na,1,2,3,4\nb,#5,6,7,8\n", False),
    ("hash after a number", PARITY_HEADER + "\na,1,2,3,4 #c\nb,5,6,7,8\n", False),
    ("blank lines", PARITY_HEADER + "\n\na,1,2,3,4\n\n   \nb,5,6,7,8\n\n", False),
    ("all-blank row", PARITY_HEADER + "\na,1,2,3,4\n, , ,,\nb,5,6,7,8\n", False),
    ("short rows", PARITY_HEADER + "\na,1,2,3,4\nb,5,6\nc,9,10,11,12\n", False),
    (
        "missing tokens",
        PARITY_HEADER + "\na,NA,2,3,4\nb,5,n/a,7,8\nc,9,10,.,12\nd,1,2,3,4\n",
        False,
    ),
    ("blank referenced cell", PARITY_HEADER + "\na,1,,3,4\nb,5,6,7,8\n", False),
    ("nan", PARITY_HEADER + "\na,1,2,nan,4\nb,5,6,7,8\n", False),
    ("inf", PARITY_HEADER + "\na,1,2,3,4\nb,5,6,-inf,8\n", False),
    ("1e400", PARITY_HEADER + "\na,1,2,3,4\nb,5,6,7,1e400\n", False),
    ("digit separator", PARITY_HEADER + "\na,1_0,2,3,4\n", False),
    ("non-ascii digit", PARITY_HEADER + "\na,1,٢,3,4\n", False),
    ("all rows dropped", PARITY_HEADER + "\na,NA,2,3,4\n", False),
    ("header only", PARITY_HEADER + "\n", False),
]


def _outcome(read):
    """(table, dropped) of a read, or the type and message it raised."""
    try:
        table, dropped = read()
    except Exception as exc:
        return None, (type(exc), str(exc))
    return (table, dropped), None


@pytest.mark.parametrize(
    "text, fast", [f[1:] for f in PARITY_FILES], ids=[f[0] for f in PARITY_FILES]
)
def test_load_csv_matches_the_row_path(tmp_path, text, fast):
    path = str(tmp_path / "parity.csv")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)

    def public():
        data, dropped = load_csv(path, "y", "x", ["z"], controls=["w"])
        return np.column_stack([data.y, data.x, data.Z, data.controls]), dropped

    def row_path():
        usecols, _ = data_module._read_header(path, PARITY_NAMES)
        return data_module._row_table(path, PARITY_NAMES, usecols)

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got, got_error = _outcome(public)
    assert not seen  # numpy's warning on a file without data rows stays inside
    want, want_error = _outcome(row_path)
    assert got_error == want_error
    if want is not None:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
        assert got[1] == want[1]
    usecols, header_lines = data_module._read_header(path, PARITY_NAMES)
    assert (data_module._loadtxt_table(path, usecols, header_lines) is not None) == fast


# Values whose shortest text is easy to get wrong: signed zero, the smallest
# subnormal, a subnormal, an integer-valued float past 2**53, a huge negative.
EDGE_FLOATS = [-0.0, 5e-324, 1e-310, 1.2e17, -1e300]
# A header name that csv.writer must quote.
QUOTED_NAME = 'z "one", 1'


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    table=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.just(4)),
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
    )
)
@example(table=np.array([EDGE_FLOATS[:4], EDGE_FLOATS[1:]]))
@example(table=np.random.default_rng(7).standard_normal((2 * data_module._WRITE_ROWS + 3, 4)))
def test_write_csv_then_load_csv_is_exact(tmp_path_factory, table):
    path = str(tmp_path_factory.mktemp("roundtrip") / "data.csv")
    data = Dataset(
        y=table[:, 0],
        x=table[:, 1],
        Z=table[:, 2:3],
        z_names=[QUOTED_NAME],
        controls=table[:, 3:],
        control_names=["w"],
    )
    write_csv(data, path)

    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["y", "x", QUOTED_NAME, "w"])
    writer.writerows(table.tolist())
    with open(path, "rb") as handle:
        assert handle.read() == reference.getvalue().encode()

    back, dropped = load_csv(path, "y", "x", [QUOTED_NAME], controls=["w"])
    assert dropped == 0
    loaded = np.column_stack([back.y, back.x, back.Z, back.controls])
    assert np.array_equal(loaded.view(np.uint64), table.view(np.uint64))


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


@pytest.mark.parametrize("sigma, row", [("1, 0; 0", 2), ("1; 0, 1", 1), ("1, 0;", 2)])
def test_a_ragged_sigma_z_is_a_parse_error(tmp_path, sigma, row):
    path = _write(tmp_path, f"beta = 1\npi = 1, 1\nsigma_z = {sigma}\n", "ragged.txt")
    with pytest.raises(ParseError, match=f"ragged.txt: model key 'sigma_z': row {row} has"):
        load_model(path)


@pytest.mark.parametrize("vector", ["0.9,,0.7", "0.9, 0.7,", ",0.9"])
@pytest.mark.parametrize("key", ["pi", "gamma", "sigma_z"])
def test_a_blank_vector_entry_is_a_parse_error(tmp_path, key, vector):
    values = {"pi": "0.9, 0.6, 0.7", "gamma": "0, 0.4, 0", "sigma_z": "1, 0, 0; 0, 1, 0; 0, 0, 1"}
    values[key] = f"1, 0, 0; {vector}; 0, 0, 1" if key == "sigma_z" else vector
    path = _write(tmp_path, "beta = 1\n" + "".join(f"{k} = {v}\n" for k, v in values.items()),
                  "blank.txt")
    with pytest.raises(ParseError, match=f"blank.txt: model key '{key}': blank entry"):
        load_model(path)


def _seeded_dataset(k=2, seed=149, n=400):
    rng = np.random.default_rng(seed)
    return simulate(SimulationConfig(model=random_model(rng, k), n=n, seed=seed))


def test_run_report_shape_and_consistency():
    data = _seeded_dataset()
    report = run(data)
    assert len(report["specs"]) == 4
    assert set(report["fas"]) == {"excl", "exo", "general"}
    # interval re-derivable from the per-spec records
    for mode in Mode:
        section = report["fas"][mode.value]
        # one sweep viewed per mode equals the mode estimated on its own
        alone = fas_estimate(data, mode=mode)
        assert section["interval"] == (None if alone.interval is None else list(alone.interval))
        assert section["selected"] == [
            spec.spec_id for spec, keep in zip(alone.table.specs, alone.selected) if keep
        ]
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
    # the spec rows are a row source, which faskit's writer serializes and
    # plain json.dumps does not: the report reads back as the one that holds
    # the rows as a list
    report = run(_seeded_dataset(k=3), pairwise=True)
    text = "".join(indented_chunks(report))
    assert json.loads(text) == {**report, "specs": list(report["specs"])}
    assert text == json.dumps({**report, "specs": list(report["specs"])}, indent=2)


def test_the_reports_build_no_spec_object(monkeypatch):
    # the spec rows go from the sweep's id array to the text and JSON
    # writers as columns; a JustIdSpec is only the library's one-spec view
    built = []
    post_init = JustIdSpec.__post_init__
    monkeypatch.setattr(
        JustIdSpec, "__post_init__", lambda spec: (built.append(spec.spec_id), post_init(spec))
    )
    model = random_model(np.random.default_rng(157), 6)
    report = run(simulate(SimulationConfig(model=model, n=400, seed=157)))
    oracle = oracle_report(model, frontier_grid=5)
    for each in (report, oracle):
        "".join(indented_chunks(each))
    render_estimate_text(report)
    render_oracle_text(oracle)
    assert built == []
    assert len(report["specs"]) == 6 * 2**5 == len(oracle["modes"]["general"]["specs"])
    JustIdSpec(6, 7)
    assert built == [7]


def test_text_report_carries_the_same_numbers():
    report = run(_seeded_dataset())
    text = render_estimate_text(report)
    assert "%.4g" % report["tsls"]["beta_2sls"] in text
    for row in report["specs"]:
        assert "%.4g" % row["beta_hat"] in text
    lo, hi = report["fas"]["general"]["interval"]
    assert f"[{'%.4g' % lo}, {'%.4g' % hi}]" in text


def test_oracle_report_modes(monkeypatch):
    report = oracle_report(example1_model(), frontier_grid=11)
    section = report["modes"]["excl"]
    assert section["interval"] == [0.0, 3.0]
    assert len(section["frontier"]) == 11
    # the text report prints no delta, so it forms none
    calls, deltas = [], Frontier.deltas
    monkeypatch.setattr(Frontier, "deltas", lambda self, *a: (calls.append(a), deltas(self, *a))[1])
    text = render_oracle_text(report)
    assert "excl" in text and "frontier" in text.lower()
    assert calls == []


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
    same = run(data.with_arrays(data.y, data.x, data.Z))
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


def _cli_reports(tmp_path, data, extra=()):
    """The JSON and text reports of estimate --pairwise on a dataset, after
    checking that both runs exit 0."""
    path = str(tmp_path / "data.csv")
    write_csv(data, path)
    args = _estimate_args(path, ["--pairwise", *extra], instruments=",".join(data.z_names))
    runner = CliRunner()
    as_json = runner.invoke(main, args + ["--emit", "json"])
    as_text = runner.invoke(main, args)
    assert as_json.exit_code == 0, as_json.output
    assert as_text.exit_code == 0, as_text.output
    return json.loads(as_json.output), as_text.output


@pytest.mark.parametrize("extra", [(), ("--no-intercept",)])
def test_cli_exact_structural_fit_reports_a_zero_j(tmp_path, extra):
    rng = np.random.default_rng(151)
    Z = rng.standard_normal((50, 2))
    x = Z @ np.array([1.0, 0.5]) + rng.standard_normal(50)
    data = Dataset(y=2.0 * x, x=x, Z=Z, z_names=("Z1", "Z2"))
    report, text = _cli_reports(tmp_path, data, extra)
    assert report["tsls"]["beta_2sls"] == 2.0
    assert report["tsls"]["j_stat"] == 0.0
    assert report["tsls"]["j_pvalue"] == 1.0
    assert "J=0 (p=1, dof=1)" in text


def test_cli_records_a_rank_deficient_2sls_and_keeps_the_fas(tmp_path):
    # Z3 repeats Z1: 2SLS over all instruments and some pairwise fits have
    # no full-rank instrument block, while most specs still estimate
    rng = np.random.default_rng(157)
    z1, z2 = rng.standard_normal((2, 300))
    x = z1 + 0.8 * z2 + rng.standard_normal(300)
    data = Dataset(
        y=x + rng.standard_normal(300), x=x,
        Z=np.column_stack([z1, z2, z1]), z_names=("Z1", "Z2", "Z3"),
    )
    report, text = _cli_reports(tmp_path, data)
    assert report["tsls"] == {"failure": "rank-deficient"}
    assert report["fas"]["general"]["interval"] is not None
    assert "degenerate" in {row["status"] for row in report["specs"]}
    failed = [row for row in report["pairwise"] if "failure" in row]
    assert len(failed) == 4
    assert {row["failure"] for row in failed} == {"rank-deficient"}
    assert set(failed[0]) == {"pair", "variant", "labels", "failure"}
    assert "2SLS (all instruments): not computed (rank-deficient)" in text
    (line,) = [line for line in text.splitlines() if line.startswith("{Z1, Z3}")]
    assert line.split()[2:] == [".", ".", ".", ".", ".", "not", "computed", "(rank-deficient)"]


def test_cli_records_a_weak_2sls_and_an_empty_fas(tmp_path):
    # x orthogonal to every instrument: no spec and no 2SLS fit identifies
    rng = np.random.default_rng(163)
    x = rng.standard_normal(120)
    raw = rng.standard_normal((120, 2))
    basis = np.column_stack([np.ones(120), x])
    Z = raw - basis @ np.linalg.lstsq(basis, raw, rcond=None)[0]
    data = Dataset(y=rng.standard_normal(120), x=x, Z=Z, z_names=("Z1", "Z2"))
    report, text = _cli_reports(tmp_path, data)
    assert report["tsls"] == {"failure": "weak-identification"}
    assert all(section["interval"] is None for section in report["fas"].values())
    assert [row["failure"] for row in report["pairwise"]] == ["weak-identification"]
    assert "2SLS (all instruments): not computed (weak-identification)" in text
    assert "FAS: (empty: no relevant specification)" in text


def test_cli_reports_a_spec_without_residual_degrees_of_freedom(tmp_path):
    # n=4 with an intercept and three instruments: each Z_l|rest spec's first
    # stage has 4 coefficients on 4 rows
    path = _write(tmp_path, "y,x,a,b,c\n1,1,1,0,2\n2,3,0,1,1\n4,2,2,2,0\n3,5,1,3,3\n")
    args = ["estimate", "--data", path, "--outcome", "y", "--treatment", "x",
            "--instruments", "a,b,c", "--cutoff", "3"]
    res = CliRunner().invoke(main, args + ["--emit", "json"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    failed = [row for row in report["specs"] if row["status"] == "insufficient-observations"]
    assert [row["label"] for row in failed] == ["Z1|2,3", "Z2|1,3", "Z3|1,2"]
    assert all(row["beta_hat"] is None and row["f_stat"] == 0.0 for row in failed)
    assert report["fas"]["excl"]["interval"] is None
    text = CliRunner().invoke(main, args).output
    assert "FAS_excl: (empty: no relevant specification)" in text
    assert "Z1|2,3  .        .       .        .        0        insufficient-observations" in text


def test_cli_records_a_sample_too_small_for_any_spec(tmp_path):
    # 3 rows, an intercept and one control: n <= 1 + 2 absorbed leaves no
    # spec a residual degree of freedom, and every fit is a recorded failure,
    # the 2SLS fits too: too few rows takes precedence over their rank
    path = _write(tmp_path, "".join(CSV.splitlines(keepends=True)[:4]))
    args = ["estimate", "--data", path, "--outcome", "y", "--treatment", "x",
            "--instruments", "z1,z2", "--controls", "w", "--pairwise"]
    res = CliRunner().invoke(main, args + ["--emit", "json"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["n"] == 3 and len(report["specs"]) == 4
    for row in report["specs"]:
        assert row["status"] == "insufficient-observations"
        assert row["beta_hat"] is None and row["f_stat"] == 0.0
    assert [section["interval"] for section in report["fas"].values()] == [None] * 3
    assert report["tsls"] == {"failure": "insufficient-observations"}
    assert [row.get("failure") for row in report["pairwise"]] == ["insufficient-observations"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    assert "2SLS (all instruments): not computed (insufficient-observations)" in res.output
    for name in ("FAS_excl", "FAS_exo", "FAS"):
        assert f"{name}: (empty: no relevant specification)" in res.output
    assert res.output.count("insufficient-observations") == 4 + 2  # the specs, 2SLS and the pair


def test_cli_pairwise_partialled_rows_count_their_control_instruments(tmp_path):
    # the same 4 rows: a partialled pair (a|c, b|c) fits 2 instruments after
    # the intercept and its control instrument, so n = 4 <= 2 + 1 + 1
    path = _write(tmp_path, "y,x,a,b,c\n1,1,1,0,2\n2,3,0,1,1\n4,2,2,2,0\n3,5,1,3,3\n")
    args = ["estimate", "--data", path, "--outcome", "y", "--treatment", "x",
            "--instruments", "a,b,c", "--pairwise", "--emit", "json"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["pairwise"]
    partialled = [row for row in rows if row["variant"] == "partialled"]
    assert [row["labels"] for row in partialled] == [
        ["Z1|3", "Z2|3"], ["Z1|2", "Z3|2"], ["Z2|1", "Z3|1"],
    ]
    assert [row.get("failure") for row in partialled] == ["insufficient-observations"] * 3
    assert all("failure" not in row for row in rows if row["variant"] == "raw")


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


def test_cli_oracle_reports_an_empty_fas(tmp_path):
    path = _write(tmp_path, "beta = 1.0\npi = 0, 0\n", "zero.model")
    res = CliRunner().invoke(main, ["oracle", "--model", path, "--emit", "json"])
    assert res.exit_code == 0, res.output
    modes = json.loads(res.output)["modes"]
    assert list(modes) == ["excl", "exo", "general"]
    for section in modes.values():
        assert section["interval"] is None
        assert section["frontier"] == []
        assert not any(spec["relevant"] for spec in section["specs"])
    res = CliRunner().invoke(main, ["oracle", "--model", path, "--mode", "excl"])
    assert res.exit_code == 0, res.output
    assert "FAS_excl: (empty: no relevant specification)\n" in res.output
    assert "frontier" not in res.output
    # the library calls still refuse a frontier with no relevant spec
    model, _ = load_model(path)
    with pytest.raises(ZeroFirstStageError):
        fas_frontier(population_fas(model, Mode.EXCL))


@pytest.mark.parametrize(
    "field, lines",
    [("beta", "beta = nan\npi = 1, 1\n"),
     ("pi", "beta = 1\npi = 1, inf\n"),
     ("var_u", "beta = 1\npi = 1, 1\nvar_u = nan\n")],
    ids=["beta", "pi", "var_u"],
)
def test_cli_non_finite_model_values_are_errors(tmp_path, field, lines):
    path = _write(tmp_path, lines, "bad.model")
    for args in (["oracle"], ["simulate", "--n", "200", "--seed", "1"]):
        res = CliRunner().invoke(main, [*args, "--model", path])
        assert res.exit_code == 1, (args, res.output)
        assert isinstance(res.exception, ValueError)
        assert str(res.exception) == f"{field} must be finite"


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


def test_cli_simulate_rejects_a_negative_seed_before_any_draw(tmp_path, monkeypatch):
    from faskit import cli

    model_path = _write(tmp_path, MODEL_FILE, "model.txt")
    draws = []
    monkeypatch.setattr(cli, "simulate", draws.append)
    res = CliRunner().invoke(
        main, ["simulate", "--model", model_path, "--n", "300", "--seed", "-1"]
    )
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert draws == []


def test_cli_simulate_refuses_an_unwritable_out_before_the_first_draw(tmp_path, monkeypatch, capsys):
    from faskit import cli

    model_path = _write(tmp_path, MODEL_FILE, "model.txt")
    draws = []
    monkeypatch.setattr(cli, "simulate", lambda config: (draws.append(config), simulate(config))[1])
    missing = tmp_path / "missing" / "draw.csv"
    for out, reason in ((missing, f"no directory {missing.parent}"), (tmp_path, "it is a directory")):
        monkeypatch.setattr(
            sys, "argv",
            ["faskit", "simulate", "--model", model_path, "--n", "300", "--seed", "9",
             "--reps", "3", "--out", str(out)],
        )
        with pytest.raises(SystemExit) as exit_info:
            entry()
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write the CSV to {out}: {reason}\n"
        assert captured.out == ""
    assert draws == []


def test_simulate_report_refuses_fewer_than_one_replication_before_any_work(
    tmp_path, monkeypatch
):
    from faskit import cli

    model, _ = load_model(_write(tmp_path, MODEL_FILE, "model.txt"))
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *args: calls.append("draw"))
    monkeypatch.setattr(cli, "population_fas_by_mode", lambda *args: calls.append("population"))
    out = tmp_path / "draw.csv"
    for reps in (0, -2):
        with pytest.raises(ValueError, match=f"^replications must be at least 1, got {reps}$"):
            cli.simulate_report(model, 300, 9, replications=reps, csv_path=str(out))
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("law", ["gaussian", "scaled-chi-square"])
@pytest.mark.parametrize("mode", ["all", "excl"])
def test_cli_simulate_reps_equal_a_per_draw_reference(tmp_path, law, mode):
    # the draws span two chunks; the reference sweeps each draw on its own
    from faskit import cli
    from faskit.dgp import ErrorLaw, derive_seed
    from faskit.fas import fas_by_mode

    model_path = _write(tmp_path, MODEL_FILE, "model.txt")
    model, _ = load_model(model_path)
    n = 300
    per_chunk = cli._CHUNK_ELEMENTS // (n * (model.k_z + 2))
    reps = per_chunk + 2
    res = CliRunner().invoke(
        main,
        ["simulate", "--model", model_path, "--n", str(n), "--seed", "9", "--reps", str(reps),
         "--law", law, "--mode", mode, "--emit", "json"],
    )
    assert res.exit_code == 0 and per_chunk > 1
    modes = list(Mode) if mode == "all" else [Mode(mode)]
    intervals = {each.value: [] for each in modes}
    for rep in range(reps):
        draw = simulate(SimulationConfig(model, n, derive_seed(9, rep), ErrorLaw(law)))
        for each, result in fas_by_mode(draw, modes).items():
            intervals[each.value].append(result.interval)
    summary = {}
    for name, found in intervals.items():
        lo, hi = (np.array([each[end] for each in found if each is not None]) for end in (0, 1))
        summary[name] = {
            "n_nonempty": len(lo),
            "lo_mean": float(lo.mean()), "lo_sd": float(lo.std(ddof=1)),
            "hi_mean": float(hi.mean()), "hi_sd": float(hi.std(ddof=1)),
        }
    expected = json.loads(res.output)
    assert (expected["replications"], list(expected["replication_summary"])) == (reps, list(summary))
    expected["replication_summary"] = summary
    assert res.output == json.dumps(expected, indent=2) + "\n"


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


def test_cli_oracle_refuses_a_one_point_grid(tmp_path, monkeypatch, capsys):
    path = _write(tmp_path, "beta = 1.0\npi = 1.0, 1.0\n", "two.model")
    monkeypatch.setattr(sys, "argv", ["faskit", "oracle", "--model", path, "--grid", "1"])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert err == "error: frontier grid needs at least 2 points, got 1\n"
    assert out == ""


def test_cli_pairwise_refuses_one_instrument_before_reading_the_data(tmp_path, monkeypatch, capsys):
    # the data path does not exist: the instrument count is checked first
    missing = str(tmp_path / "missing.csv")
    monkeypatch.setattr(sys, "argv", ["faskit", *_estimate_args(missing, ["--pairwise"], "Z1")])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == 1
    out, err = capsys.readouterr()
    assert err == "error: pairwise report needs at least two instruments\n"
    assert out == ""


@pytest.mark.parametrize("intercept", [True, False])
def test_an_estimate_partialled_in_place_keeps_its_intercept_and_controls(tmp_path, intercept):
    # the CLI partials the table it loaded in place; the report still reads
    # the intercept flag and the control names from the loaded dataset, and
    # its numbers are those of a run that partials a copy
    data = _seeded_dataset(k=3)
    rng = np.random.default_rng(151)
    w = rng.standard_normal(data.n)
    data = Dataset(
        y=data.y + w, x=data.x - 0.5 * w, Z=data.Z + w[:, None], z_names=data.z_names,
        controls=w[:, None], control_names=("w",),
    )
    path = str(tmp_path / "controlled.csv")
    write_csv(data, path)
    extra = ["--controls", "w", "--pairwise", "--emit", "json"] + ([] if intercept else ["--no-intercept"])
    res = CliRunner().invoke(main, _estimate_args(path, extra, instruments="Z1,Z2,Z3"))
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["intercept"] is intercept
    assert report["controls"] == ["w"]
    loaded, _ = load_csv(path, "y", "x", ["Z1", "Z2", "Z3"], ["w"], intercept=intercept)
    same = run(loaded, pairwise=True)
    assert report["tsls"]["beta_2sls"] == pytest.approx(same["tsls"]["beta_2sls"], rel=1e-12)
    assert report["tsls"]["j_stat"] == pytest.approx(same["tsls"]["j_stat"], rel=1e-12)
    got = [row["beta_hat"] for row in report["specs"]]
    assert got == pytest.approx([row["beta_hat"] for row in same["specs"]], rel=1e-12)
