import concurrent.futures
import json
import multiprocessing
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsample import cli, datasets, linalg, oracle, sampling
from volsample.cli import main
from volsample.errors import DimensionMismatch, ParseError, VolsampleError

DEGENERATE_CSV = "x1,x2,y\n1,1,1\n1,1,0\n1,0,0\n"


@pytest.fixture
def degenerate_csv(tmp_path):
    path = tmp_path / "degenerate.csv"
    path.write_text(DEGENERATE_CSV)
    return str(path)


class TestCsvParsing:
    def test_header_detected(self, degenerate_csv):
        ds = datasets.parse_dataset(degenerate_csv, "csv")
        np.testing.assert_array_equal(ds.problem.X,
                                      [[1, 1], [1, 1], [1, 0]])
        np.testing.assert_array_equal(ds.problem.y, [1, 0, 0])
        assert ds.feature_count == 2 and ds.row_count == 3

    def test_headerless(self):
        ds = datasets.parse_csv_text("1,2,3\n4,5,6\n")
        assert ds.row_count == 2
        np.testing.assert_array_equal(ds.problem.y, [3, 6])

    def test_empty_file(self):
        with pytest.raises(ParseError):
            datasets.parse_csv_text("")

    def test_bad_token_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            datasets.parse_csv_text("1,2\n3,4\nfive,6\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_reports_line(self, token):
        with pytest.raises(ParseError, match="line 3: non-finite"):
            datasets.parse_csv_text(f"x,y\n1,2\n{token},6\n")

    def test_ragged_rows(self):
        with pytest.raises(DimensionMismatch):
            datasets.parse_csv_text("1,2,3\n4,5\n")

    # blank lines count: errors name the physical line of the file
    def test_bad_token_after_blank_line(self):
        with pytest.raises(ParseError, match="line 3:"):
            datasets.parse_csv_text("1,2\n\n3,x\n")

    def test_non_finite_after_blank_lines(self):
        with pytest.raises(ParseError, match="line 4: non-finite"):
            datasets.parse_csv_text("1,2\n\n\n3,nan\n")

    def test_ragged_row_after_header_and_blank_line(self):
        with pytest.raises(DimensionMismatch, match="line 4:"):
            datasets.parse_csv_text("a,b\n\n1,2\n3,4,5\n")

    # inputs that numpy's bulk parser and Python's float() treat differently;
    # a list is the expected array, a string the expected ParseError message
    @pytest.mark.parametrize("text,want", [
        ("1_0,2\n3,4\n", [[10, 2], [3, 4]]),
        ("١٢,2\n3,4\n", [[12, 2], [3, 4]]),
        ("1,2\n  \t \n3,4\n", [[1, 2], [3, 4]]),
        ("x,y\r\n1,2\r\n\r\n3,4\r\n", [[1, 2], [3, 4]]),
        ("1,2\n#1,3\n", "line 2: could not convert string to float: '#1'"),
        ('1,2\n"1",3\n', "line 2: could not convert string to float: '\"1\"'"),
        ("1,2\x0c3,4\nx,5\n", "line 3: could not convert string to float: 'x'"),
        ("1,2\u20283,4\nx,5\n", "line 3: could not convert string to float: 'x'"),
        ("y\n1\n2\n", "line 2: need at least one feature column and a response column"),
    ])
    def test_bulk_parser_edge_cases(self, text, want):
        if isinstance(want, str):
            with pytest.raises(ParseError) as err:
                datasets.parse_csv_text(text)
            assert str(err.value) == want
        else:
            arr = np.asarray(want, dtype=np.float64)
            ds = datasets.parse_csv_text(text)
            np.testing.assert_array_equal(ds.problem.X, arr[:, :-1])
            np.testing.assert_array_equal(ds.problem.y, arr[:, -1])

    def test_round_trip_is_bit_exact(self):
        values = np.random.default_rng(11).standard_normal((2000, 6))
        values[:, 0] *= 1e-300
        values[:, 1] *= 1e300
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in values)
        ds = datasets.parse_csv_text(text)
        got = np.column_stack([ds.problem.X, ds.problem.y])
        assert np.array_equal(got.view(np.uint64), values.view(np.uint64))
        # the line loop is the reference the bulk parse must match
        loop = datasets._parse_csv_lines(datasets._numbered(text.splitlines()))
        assert np.array_equal(loop.view(np.uint64), values.view(np.uint64))

    @pytest.fixture
    def line_loop_calls(self, monkeypatch):
        seen = Counter()
        loop = datasets._parse_csv_lines

        def counted(lines):
            seen["calls"] += 1
            return loop(lines)
        monkeypatch.setattr(datasets, "_parse_csv_lines", counted)
        return seen

    @pytest.mark.parametrize("text", ["1,2,3\n4,5,6\n", "a,b,y\n\n1,2,3\n4,5,6\n"])
    def test_clean_csv_skips_line_loop(self, line_loop_calls, text):
        assert datasets.parse_csv_text(text).row_count == 2
        assert line_loop_calls["calls"] == 0

    def test_bad_token_reaches_line_loop(self, line_loop_calls):
        with pytest.raises(ParseError, match="line 3:"):
            datasets.parse_csv_text("a,y\n1,2\nx,3\n")
        assert line_loop_calls["calls"] == 1


# pytest records warnings instead of printing them, so a warning fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n  \n\t\n"])
def test_header_only_csv_is_quiet_json_error(tmp_path, capfd, text):
    path = tmp_path / "header.csv"
    path.write_text(text)
    rc = main(["sample", "--input", str(path), "--size", "1"])
    out, err = capfd.readouterr()
    assert rc == 2 and err == ""
    assert json.loads(out)["error"] == {"code": "parse_error", "message": "no data rows"}


class TestLibsvmParsing:
    def test_sparse_line_densified(self):
        ds = datasets.parse_libsvm_text("1.5 1:2.0 3:4.0\n")
        np.testing.assert_array_equal(ds.problem.X, [[2.0, 0.0, 4.0]])
        np.testing.assert_array_equal(ds.problem.y, [1.5])
        assert ds.feature_count == 3

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError, match="1-based"):
            datasets.parse_libsvm_text("1.0 0:2.0\n")

    def test_malformed_pair(self):
        with pytest.raises(ParseError, match="line 2"):
            datasets.parse_libsvm_text("1.0 1:2.0\n2.0 oops\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            datasets.parse_libsvm_text("\n\n")

    def test_malformed_pair_after_blank_line(self):
        with pytest.raises(ParseError, match="line 3:"):
            datasets.parse_libsvm_text("1 1:2\n\n1 1:x\n")

    @pytest.mark.parametrize("line", ["1.0 1:inf", "nan 1:2.0", "1.0 2:-inf 1:1"])
    def test_non_finite_value_reports_line(self, line):
        with pytest.raises(ParseError, match="line 2: non-finite"):
            datasets.parse_libsvm_text(f"1.0 1:2.0\n{line}\n")


@pytest.mark.parametrize("fmt,text", [("csv", "1,1,1\n1,nan,1\n1,0,0\n"),
                                      ("libsvm", "1 1:1 2:1\n1 1:inf\n0 1:1\n")])
def test_non_finite_input_is_json_parse_error(tmp_path, capsys, fmt, text):
    path = tmp_path / f"data.{fmt}"
    path.write_text(text)
    rc = main(["sample", "--input", str(path), "--format", fmt, "--size", "2"])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "parse_error" and err["message"].startswith("line 2:")


@pytest.mark.parametrize("fmt,data", [("csv", b"a,b\n1,\xff\n"),
                                      ("libsvm", b"1 1:\xff\n")], ids=["csv", "libsvm"])
def test_undecodable_input_is_json_parse_error(tmp_path, capsys, fmt, data):
    path = tmp_path / f"data.{fmt}"
    path.write_bytes(data)
    rc = main(["sample", "--input", str(path), "--format", fmt, "--size", "1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "parse_error"


# number characters, separators, words and every line break that
# str.splitlines honours
FUZZ_TOKENS = [*"0123456789,:.eE+-_", "nan", "inf", " ", "\t",
               "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]


@st.composite
def fuzzed_texts(draw, libsvm: bool) -> str:
    """A valid small file of the format with up to four tokens put in or over it."""
    rows = draw(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=3),
                         min_size=1, max_size=4))
    if libsvm:
        lines = [f"{r[0]} " + " ".join(f"{j}:{v}" for j, v in enumerate(r[1:], 1))
                 for r in rows]
    else:
        lines = [",".join(map(str, r)) for r in rows]
    text = list("\n".join(lines))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        text[pos:pos + draw(st.integers(0, 1))] = [draw(st.sampled_from(FUZZ_TOKENS))]
    return "".join(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("libsvm", [False, True], ids=["csv", "libsvm"])
@settings(max_examples=300)
@given(data=st.data())
def test_parser_fuzz_gives_dataset_or_error(libsvm, data):
    text = data.draw(st.one_of(
        st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40).map("".join),
        fuzzed_texts(libsvm)))
    parse = datasets.parse_libsvm_text if libsvm else datasets.parse_csv_text
    try:
        ds = parse(text)
    except VolsampleError:
        return
    assert isinstance(ds, datasets.Dataset)


# (argv, environment): each once escaped as a traceback or a NaN report
BAD_VALUES = [
    ("sample --algorithm leverage --seed -1", {}),
    ("sample --algorithm oracle --seed -1", {}),
    ("regress --seed -1", {}),
    ("verify --suite identities --seed -1", {}),
    ("sample --algorithm leverage --lambda -1", {}),
    ("sample --algorithm oracle --lambda -1", {}),
    ("regress --lambda-grid 1,x", {}),
    ("bench --sizes 100,x", {}),
    ("bench --sizes 100,200 --d 0", {}),
    ("bench --sizes 100", {}),  # a log-log slope needs two distinct sizes
    ("bench --sizes 20,20", {}),
    ("sample", {"VOLSAMPLE_SEED": "abc"}),
    ("sample --lambda nan", {}),
    ("regress --algorithm leverage --lambda nan", {}),
    ("regress --algorithm leverage --size 0", {}),
    ("regress --algorithm leverage --lambda 0.5 --size 0", {}),
    ("regress --algorithm oracle --lambda 0.5 --size 0", {}),
]


@pytest.mark.parametrize("argv,env", BAD_VALUES,
                         ids=[" ".join([*(f"{k}={v}" for k, v in env.items()), argv])
                              for argv, env in BAD_VALUES])
def test_bad_value_is_invalid_config(degenerate_csv, capfd, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = argv.split()
    if argv[0] in ("sample", "regress"):
        # ahead of the case's own flags, so that a repeated --size overrides
        argv[1:1] = ["--input", degenerate_csv, "--size", "2"]
    rc = main(argv)
    out, err = capfd.readouterr()
    assert rc == 2 and "Traceback" not in err
    assert json.loads(out)["error"]["code"] == "invalid_config"


def test_huge_libsvm_index_is_json_error(tmp_path, capsys):
    # the dense 2 x 1e13 matrix (146 TiB) is larger than the 128 TiB user
    # address space of x86-64 Linux, so its allocation is refused before
    # any memory is touched
    path = tmp_path / "huge.svm"
    path.write_text("1 1:1\n2 10000000000000:1\n")
    rc = main(["sample", "--input", str(path), "--format", "libsvm", "--size", "1"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "too_large"


def test_wide_libsvm_gram_is_json_error(tmp_path, capsys):
    # 1e6 features: the 2 x 1e6 design fits, its 7.3 TiB Gram matrix does
    # not, and the allocation is refused before any memory is touched
    path = tmp_path / "wide.svm"
    path.write_text("1 1:1\n2 1000000:1\n")
    rc = main(["sample", "--input", str(path), "--format", "libsvm", "--size", "1",
               "--lambda", "0.5"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "too_large"


def test_collapsed_weights_are_json_error(tmp_path, capsys, monkeypatch):
    # every leverage 1: every weight 0, so the rejection phase gives up
    monkeypatch.setattr(linalg, "quad_forms", lambda rows, Z: np.ones(len(rows)))
    path = tmp_path / "data.csv"
    np.savetxt(path, np.random.default_rng(1).standard_normal((40, 4)), delimiter=",")
    rc = main(["sample", "--input", str(path), "--size", "3", "--algorithm", "fastregvol"])
    assert rc == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "all_weights_zero"


def _load_report(path):
    with open(path) as fh:
        return json.load(fh)


def _strip_timings(report):
    report = dict(report)
    report.pop("timings_ms", None)
    return report


class TestSampleCommand:
    def test_full_size_prints_all_indices(self, degenerate_csv, capsys, tmp_path):
        rc = main(["sample", "--input", degenerate_csv, "--size", "3",
                   "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0 1 2"

    def test_zero_probability_pair_never_printed(self, degenerate_csv, capsys):
        for seed in range(200):
            main(["sample", "--input", degenerate_csv, "--size", "2",
                  "--seed", str(seed)])
            assert capsys.readouterr().out.strip() != "0 1"

    def test_reports_identical_for_identical_inputs(self, degenerate_csv,
                                                    tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["sample", "--input", degenerate_csv, "--size", "2",
              "--seed", "9", "--json", p1])
        out1 = capsys.readouterr().out
        main(["sample", "--input", degenerate_csv, "--size", "2",
              "--seed", "9", "--json", p2])
        out2 = capsys.readouterr().out
        assert out1 == out2
        assert _strip_timings(_load_report(p1)) == _strip_timings(_load_report(p2))

    def test_oracle_algorithm(self, degenerate_csv, capsys):
        rc = main(["sample", "--input", degenerate_csv, "--size", "2",
                   "--algorithm", "oracle", "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() in ("0 2", "1 2")

    def test_invalid_size_is_json_error(self, degenerate_csv, capsys):
        rc = main(["sample", "--input", degenerate_csv, "--size", "1",
                   "--seed", "0"])
        assert rc != 0
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["code"] == "invalid_config"

    def test_missing_file_is_json_error(self, capsys):
        rc = main(["sample", "--input", "/nonexistent.csv", "--size", "2"])
        assert rc != 0
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "parse_error"

    def test_libsvm_input_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "data.svm"
        path.write_text("1.0 1:1.0 2:1.0\n0.0 1:1.0 2:1.0\n0.0 1:1.0\n")
        rc = main(["sample", "--input", str(path), "--format", "libsvm",
                   "--size", "2", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out in ("0 2", "1 2")  # duplicated-row pair is unreachable

    def test_env_seed_default(self, degenerate_csv, capsys, monkeypatch):
        monkeypatch.setenv("VOLSAMPLE_SEED", "4")
        main(["sample", "--input", degenerate_csv, "--size", "2"])
        first = capsys.readouterr().out
        main(["sample", "--input", degenerate_csv, "--size", "2", "--seed", "4"])
        assert capsys.readouterr().out == first

    def test_dlambda_warning_emitted(self, degenerate_csv, capsys):
        rc = main(["sample", "--input", degenerate_csv, "--size", "1",
                   "--lambda", "0.01", "--seed", "0"])
        assert rc == 0
        assert "d_lambda" in capsys.readouterr().err


class TestRegressCommand:
    def test_noiseless_problem_zero_loss(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 2))
        y = X @ np.array([2.0, -1.0])
        lines = [",".join(repr(float(v)) for v in row) + f",{float(y[i])!r}"
                 for i, row in enumerate(X)]
        path = tmp_path / "exact.csv"
        path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "r.json")
        rc = main(["regress", "--input", str(path), "--size", "4",
                   "--replicates", "5", "--seed", "2", "--json", out])
        assert rc == 0
        rep = _load_report(out)
        assert rep["results"]["regvol"]["0.0"]["mean_total_loss"] == \
            pytest.approx(0.0, abs=1e-16)

    def test_degenerate_mean_loss_near_one(self, degenerate_csv, tmp_path):
        out = str(tmp_path / "r.json")
        rc = main(["regress", "--input", degenerate_csv, "--size", "2",
                   "--replicates", "400", "--seed", "7", "--json", out])
        assert rc == 0
        rep = _load_report(out)
        entry = rep["results"]["regvol"]["0.0"]
        # exact expectation is 1 (never 3/2): every replicate has loss 1
        assert entry["mean_total_loss"] == pytest.approx(1.0, abs=1e-12)

    def test_volume_beats_leverage_on_block_design(self, tmp_path):
        # stacked-identity rows with noisy responses: joint sampling covers
        # all coordinates at s=d, the i.i.d. baseline usually does not
        rng = np.random.default_rng(4)
        X = np.tile(np.eye(4), (8, 1))
        w = np.ones(4)
        y = X @ w + rng.standard_normal(32)
        lines = [",".join(repr(float(v)) for v in X[i]) + f",{float(y[i])!r}"
                 for i in range(32)]
        path = tmp_path / "blocks.csv"
        path.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "cmp.json")
        rc = main(["regress", "--input", str(path), "--size", "4",
                   "--lambda", "0.25", "--algorithm", "regvol,leverage",
                   "--replicates", "200", "--seed", "3", "--json", out])
        assert rc == 0
        res = _load_report(out)["results"]
        assert res["regvol"]["0.25"]["mean_total_loss"] < \
            res["leverage"]["0.25"]["mean_total_loss"]

    def test_average_flag_and_lambda_grid(self, degenerate_csv, tmp_path):
        out = str(tmp_path / "r.json")
        rc = main(["regress", "--input", degenerate_csv, "--size", "2",
                   "--replicates", "8", "--seed", "1", "--average",
                   "--lambda-grid", "0.1,1.0", "--json", out])
        assert rc == 0
        rep = _load_report(out)
        assert set(rep["results"]["regvol"]) == {"0.1", "1.0"}
        for entry in rep["results"]["regvol"].values():
            assert "averaged_total_loss" in entry

    def test_oracle_law_built_once_per_lambda(self, degenerate_csv, monkeypatch):
        calls = Counter()
        exact = oracle.exact_distribution

        def counted(X, s, lam=0.0):
            calls[lam] += 1
            return exact(X, s, lam)

        monkeypatch.setattr(oracle, "exact_distribution", counted)
        rc = main(["regress", "--input", degenerate_csv, "--size", "2",
                   "--algorithm", "oracle", "--replicates", "4",
                   "--lambda-grid", "0.0,0.5"])
        assert rc == 0
        assert calls == {0.0: 1, 0.5: 1}

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_replicates_below_one_rejected(self, degenerate_csv, capsys, count):
        rc = main(["regress", "--input", degenerate_csv, "--size", "2",
                   "--replicates", count])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid_config"


    @pytest.mark.parametrize("names,bad", [("regvol,bogus", "bogus"), ("regvol,", "")])
    def test_unknown_algorithm_rejected_before_any_draw(self, degenerate_csv, capsys,
                                                        monkeypatch, names, bad):
        calls = Counter()
        draw = sampling.reg_vol_sample

        def counted(*args, **kwargs):
            calls["reg_vol_sample"] += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(sampling, "reg_vol_sample", counted)
        rc = main(["regress", "--input", degenerate_csv, "--size", "2",
                   "--algorithm", names, "--replicates", "3"])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"code": "invalid_config", "message": f"unknown algorithm {bad!r}"}
        assert calls == {}


def _gaussian_csv(path, n, seed):
    """An n x 2 Gaussian design with a noisy response, as a headerless CSV."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    np.savetxt(path, np.column_stack([X, X.sum(axis=1) + rng.standard_normal(n)]),
               delimiter=",")
    return str(path)


class TestRegressWorkers:
    """``regress`` draws in worker processes from ``PARALLEL_MIN_ROW_DRAWS`` up,
    with the same report, and the same first error, as in-process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Job counts of the worker pools ``regress`` starts."""
        started = []
        pool = oracle.worker_pool
        monkeypatch.setattr(oracle, "worker_pool",
                            lambda jobs: started.append(len(jobs)) or pool(jobs))
        return started

    def _run(self, argv, capfd, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(oracle, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}.json"
        rc = main([*argv, "--json", str(out)])
        stdout, stderr = capfd.readouterr()
        assert multiprocessing.active_children() == []
        return rc, stdout, stderr, _strip_timings(_load_report(out))

    def test_report_independent_of_cpu_count(self, tmp_path, capfd, monkeypatch, pools):
        monkeypatch.setattr(cli, "PARALLEL_MIN_ROW_DRAWS", 16)
        argv = ["regress", "--input", _gaussian_csv(tmp_path / "g.csv", 12, 5),
                "--size", "3", "--algorithm", "regvol,fastregvol,leverage,oracle",
                "--lambda-grid", "0,0.5", "--replicates", "6", "--average", "--seed", "4"]
        one = self._run(argv, capfd, tmp_path, monkeypatch, 1)
        assert pools == []
        two = self._run(argv, capfd, tmp_path, monkeypatch, 2)
        assert pools == [3 * 2 * 6]  # every non-oracle draw is one job
        assert one[0] == 0
        assert one == two

    def test_first_error_keeps_serial_precedence(self, tmp_path, capfd, monkeypatch,
                                                 pools):
        # the leverage replicate's solve fails before the regvol draws' size
        # check is reached; collecting every draw first would report the latter
        monkeypatch.setattr(cli, "PARALLEL_MIN_ROW_DRAWS", 1)
        argv = ["regress", "--input", _gaussian_csv(tmp_path / "g.csv", 8000, 6),
                "--size", "1", "--lambda", "0", "--algorithm", "leverage,regvol",
                "--replicates", "2"]
        one = self._run(argv, capfd, tmp_path, monkeypatch, 1)
        two = self._run(argv, capfd, tmp_path, monkeypatch, 2)
        assert pools == [4]
        assert one[0] == 2
        assert one[3]["error"] == {"code": "rank_deficient_subset",
                                   "message": "subset of 1 rows is rank deficient at lam=0.0"}
        assert one == two

    def test_worker_error_reaches_report(self, tmp_path, capfd, monkeypatch, pools):
        monkeypatch.setattr(cli, "PARALLEL_MIN_ROW_DRAWS", 1)
        calls = Counter()
        draw = sampling.reg_vol_sample

        def counted(*args, **kwargs):  # counts in this process only
            calls["reg_vol_sample"] += 1
            return draw(*args, **kwargs)

        monkeypatch.setattr(sampling, "reg_vol_sample", counted)
        argv = ["regress", "--input", _gaussian_csv(tmp_path / "g.csv", 64, 7),
                "--size", "1", "--lambda", "0", "--algorithm", "regvol",
                "--replicates", "2"]
        rc, _, _, report = self._run(argv, capfd, tmp_path, monkeypatch, 2)
        assert rc == 2 and pools == [2] and calls == {}
        assert report["error"]["code"] == "invalid_config"
        assert "needs d <= s <= n" in report["error"]["message"]

    def test_small_or_leverage_runs_start_no_worker(self, degenerate_csv, tmp_path,
                                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        blocks = np.tile(np.eye(4), (8, 1))
        path = tmp_path / "blocks.csv"
        np.savetxt(path, np.column_stack([blocks, blocks.sum(axis=1)]), delimiter=",")
        assert 32 * 200 < cli.PARALLEL_MIN_ROW_DRAWS  # rows times volume draws
        for argv in (
            ["--input", degenerate_csv, "--size", "2", "--replicates", "400"],
            ["--input", str(path), "--size", "4", "--lambda", "0.25",
             "--algorithm", "regvol,leverage", "--replicates", "200"],
            # leverage draws do not count towards the switch
            ["--input", _gaussian_csv(tmp_path / "g.csv", cli.PARALLEL_MIN_ROW_DRAWS, 8),
             "--size", "4", "--algorithm", "leverage", "--replicates", "2"],
        ):
            assert main(["regress", *argv, "--seed", "3"]) == 0


class TestBenchCommand:
    def test_small_grid(self, tmp_path):
        out = str(tmp_path / "b.json")
        rc = main(["bench", "--algorithm", "regvol,fastregvol",
                   "--sizes", "200,400", "--d", "4", "--s", "4",
                   "--reps", "2", "--seed", "0", "--json", out])
        assert rc == 0
        rep = _load_report(out)
        assert "loglog_slope" in rep["results"]["fastregvol"]
        assert set(rep["results"]["ratio_regvol_over_fastregvol"]) == {"200", "400"}

    def test_reps_below_one_rejected(self, capsys):
        rc = main(["bench", "--algorithm", "regvol", "--sizes", "20,40",
                   "--d", "4", "--s", "4", "--reps", "0"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid_config"

    def test_s_larger_than_n_rejected(self, capsys):
        rc = main(["bench", "--algorithm", "regvol", "--sizes", "20,40",
                   "--d", "4", "--s", "30"])
        assert rc != 0
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "invalid_config"


class TestVerifyCommand:
    def test_identities_suite_green(self, tmp_path):
        out = str(tmp_path / "v.json")
        rc = main(["verify", "--suite", "identities", "--seed", "7",
                   "--json", out])
        assert rc == 0
        rep = _load_report(out)
        assert rep["results"]["failures"] == 0

    def test_identities_law_built_once_per_size(self, monkeypatch):
        calls = Counter()
        exact = oracle.exact_distribution

        def counted(X, s, lam=0.0):
            calls[X.tobytes(), s, lam] += 1
            return exact(X, s, lam)

        monkeypatch.setattr(oracle, "exact_distribution", counted)
        assert main(["verify", "--suite", "identities", "--seed", "7"]) == 0
        assert calls and max(calls.values()) == 1
