import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import iid_chain
from depbernstein import bounds, checks, cli, models
from depbernstein.cli import main
from depbernstein.mixing import RATE_LAGS, MarkovChain, certified_geometric_rate, fit_geometric_rate
from depbernstein.models import ModelSpec, bernstein_inputs_for


def src_env():
    """The environment of a fresh process that imports the checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]]}))
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "P": [[0.75, 0.25], [0.25, 0.75]],
        "D": [[1.0, 0.0], [0.0, -0.5]],
        "tau_map": [1.0, -1.0],
    }))
    return str(path)


class TestCantorCommand:
    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "cantor", "--A", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "depbernstein/1"
        assert set(payload) >= {"A", "delta", "ell", "n", "d", "K"}
        assert payload["A"] == 100
        assert payload["K"][0] == 1 and payload["K"][-1] == 100
        assert len(payload["K"]) == 94

    def test_level_blocks(self, capsys):
        code, out = run_cli(capsys, "cantor", "--A", "100", "--level", "1")
        payload = json.loads(out)
        assert code == 0 and len(payload["blocks"]) == 2

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "cantor", "--A", "10", "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["set", "index"]
        assert len(rows) == 11  # header + the 10 kept indices (fallback regime)

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "f45f122803e588e501e69e8bea1f0d777e808ff93c4b172a4602ece789175a3e"),
        ("csv", "b11aba24f0cf85e20175a150fb13293ed4da4a4fde51d2b881dbb94fa8563d24"),
    ])
    def test_level_output_is_pinned_and_built_once(self, capsys, monkeypatch, fmt, digest):
        from depbernstein import cantor

        calls = []
        original = cantor.level_blocks
        monkeypatch.setattr(cantor, "level_blocks",
                            lambda *a: calls.append(a) or original(*a))
        code, out = run_cli(capsys, "cantor", "--A", "1000", "--level", "2",
                            "--format", fmt)
        assert code == 0 and len(calls) == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "ca54ea7ed6e68eb3fe7dcf6a13981b87e94c527aab4dfa9e6d5a7384daae8e15"),
        ("csv", "dad77a08fbe4e92d0baf5754dceae2896fe6021bd56118fad776e626ff477c23"),
    ])
    def test_large_output_is_pinned(self, capsys, tmp_path, fmt, digest):
        # taken when K and the blocks were tuples of Python ints
        path = tmp_path / f"cantor.{fmt}"
        code, out = run_cli(capsys, "cantor", "--A", "100000", "--level", "3",
                            "--format", fmt, "--out", str(path))
        assert code == 0 and out == ""
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_csv_is_written_from_the_arrays(self, tmp_path):
        # K and the blocks as int64 arrays, 1.2 MB, and one slice of rows as
        # text peak at 2.9 MB; 2 |K| row tuples and the whole text at 27 MB
        import tracemalloc

        path = tmp_path / "cantor.csv"
        argv = ["cantor", "--A", "100000", "--level", "3", "--format", "csv",
                "--out", str(path)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    def test_invalid_A(self, capsys):
        code, _ = run_cli(capsys, "cantor", "--A", "1")
        assert code == 3

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 5.16 GiB"), "error: Unable to allocate 5.16 GiB\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_A_too_large_for_memory_is_exit_3(self, capsys, monkeypatch, exc, line):
        # numpy's allocation failure is a MemoryError; a bare one names its type
        from depbernstein import cantor

        def fail(A):
            raise exc

        monkeypatch.setattr(cantor, "cantor_set", fail)
        assert main(["cantor", "--A", "1000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == line

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cantor.json"
        code, out = run_cli(capsys, "cantor", "--A", "50", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["A"] == 50


class TestBoundCommand:
    ARGS = ("--n", "4", "--d", "1", "--M", "1", "--v", "1", "--c", "100")

    def test_tail(self, capsys):
        code, out = run_cli(capsys, "bound", "--kind", "tail", *self.ARGS,
                            "--x", "40")
        payload = json.loads(out)
        assert code == 0
        assert payload["bound"] == pytest.approx(0.6677, abs=1e-3)
        assert payload["log_bound"] == pytest.approx(math.log(payload["bound"]), rel=1e-12)
        assert payload["config"]["kind"] == "tail"

    def test_laplace(self, capsys):
        code, out = run_cli(capsys, "bound", "--kind", "laplace", *self.ARGS,
                            "--t", "0.05")
        payload = json.loads(out)
        assert code == 0
        assert payload["log_laplace"] == pytest.approx(2.850125, abs=1e-6)

    def test_expectation(self, capsys):
        code, out = run_cli(capsys, "bound", "--kind", "expectation",
                            "--n", "4", "--d", "2", "--M", "1", "--v", "1",
                            "--c", "100")
        assert code == 0 and json.loads(out)["bound"] > 0

    @pytest.mark.parametrize("argv, digest", [
        # the tail bound's underflow row: a bound of 0.0 beside its finite log
        (("--kind", "tail", "--n", "1024", "--d", "4", "--M", "1", "--v", "0.5",
          "--c", "0.69", "--x", "3.5e6"),
         "0f448200b889290e28dde8421866f9968426c1de9e875554a348b5fe1257a238"),
        # one column: the expectation bound at d = 1 is 0.0
        (("--kind", "expectation", "--n", "4", "--d", "1", "--M", "1", "--v", "1",
          "--c", "100"),
         "fde034d86d70689b46a91420d2ad721b55482047758480a239f0997782c6c1f1"),
    ], ids=["tail-underflow", "expectation-d1"])
    def test_csv_is_pinned(self, capsys, argv, digest):
        code, out = run_cli(capsys, "bound", *argv, "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind, flag, value", [
        ("tail", "--x", "nan"), ("tail", "--x", "inf"), ("laplace", "--t", "nan")])
    def test_non_finite_argument_is_exit_3(self, capsys, kind, flag, value):
        code = main(["bound", "--kind", kind, *self.ARGS, flag, value])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("kind, column", [("tail", "x"), ("laplace", "t")])
    def test_batch_non_finite_argument_is_exit_3(self, capsys, tmp_path, kind, column):
        batch = tmp_path / "rows.csv"
        batch.write_text(f"n,d,M,v,c,{column}\n4,1,1,1,100,0.01\n4,1,1,1,100,nan\n")
        code = main(["bound", "--kind", kind, "--batch", str(batch)])
        assert code == 3
        assert "at row 1" in capsys.readouterr().err

    def test_domain_error_is_exit_3(self, capsys):
        code, _ = run_cli(capsys, "bound", "--kind", "laplace", *self.ARGS,
                          "--t", "10.0")
        assert code == 3

    @pytest.mark.parametrize("kind, dropped", [
        ("tail", "--x"), ("laplace", "--t"), ("tail", "--n"), ("laplace", "--n"),
        ("expectation", "--n"), ("expectation", "--c"),
    ])
    def test_missing_argument_is_exit_3(self, capsys, kind, dropped):
        given = dict(zip(self.ARGS[::2], self.ARGS[1::2]),
                     **{"--x": "40", "--t": "0.05"})
        argv = [a for flag, value in given.items() if flag != dropped
                for a in (flag, value)]
        code = main(["bound", "--kind", kind, *argv])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and dropped in err

    def test_batch_without_t_is_exit_3(self, capsys, tmp_path):
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c\n4,1,1,1,100\n")
        code = main(["bound", "--kind", "laplace", "--batch", str(batch)])
        assert code == 3
        assert "--t" in capsys.readouterr().err

    def test_batch_without_an_input_column_names_it(self, capsys, tmp_path):
        # a missing column was a bare KeyError: "error: 'c'"
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,x\n4,1,1,1,40\n")
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: batch {batch} is missing the columns c\n"

    def test_empty_batch_is_exit_3(self, capsys, tmp_path):
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x\n")
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        assert code == 3
        assert "empty batch" in capsys.readouterr().err

    def test_batch_csv(self, capsys, tmp_path):
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x\n4,1,1,1,100,40\n8,2,1,1,100,40\n"
                         "1024,4,1,0.5,0.69,3.5e6\n")
        out_path = tmp_path / "bounds.csv"
        code, _ = run_cli(capsys, "bound", "--kind", "tail",
                          "--batch", str(batch), "--out", str(out_path))
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 3
        assert float(rows[0]["bound"]) == pytest.approx(0.6677, abs=1e-3)
        assert {"bound", "log_bound", "t_star"} <= set(rows[0])
        # the bound underflows to 0 there; its log stays finite
        assert float(rows[2]["bound"]) == 0.0
        assert float(rows[2]["log_bound"]) == pytest.approx(-750.43, abs=0.01)

    @pytest.mark.parametrize("kind", ["tail", "laplace", "expectation"])
    def test_batch_row_matches_single_call(self, capsys, tmp_path, kind):
        grid = [(16, 1, 1.0, 1.0, 100.0, 40.0, 0.01), (1024, 4, 1.0, 0.5, 0.69, 3.5e6, 1e-6),
                (2 ** 20, 8, 0.3, 2.0, 0.05, 6e4, 1e-9), (2 ** 40, 64, 9.5, 0.07, 18.0, 1e12, 1e-15),
                (2 ** 70, 2, 1.0, 1.0, 1.0, 1e12, 1e-25)]  # an n past int64
        names = ("n", "d", "M", "v", "c", "x", "t")
        batch = tmp_path / "rows.csv"
        batch.write_text(_rows_csv(names, grid))
        code, out = run_cli(capsys, "bound", "--kind", kind, "--batch", str(batch))
        assert code == 0
        got = list(csv.DictReader(out.splitlines()))
        assert len(got) == len(grid)
        for row, values in zip(got, grid):
            argv = [a for k, v in zip(names, values) for a in (f"--{k}", repr(v))]
            code, single = run_cli(capsys, "bound", "--kind", kind, *argv)
            payload = json.loads(single)
            assert code == 0 and set(payload) - {"config", "schema"} <= set(row)
            for key in set(payload) - {"config", "schema"}:
                assert float(row[key]) == payload[key], (key, row)
            assert "C" not in payload["config"]

    def test_batch_short_row_names_its_row_and_column(self, capsys, tmp_path):
        # csv fills the missing cells with None: a TypeError traceback, exit 1
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x\n4,1,1,1,100,40\n8,2,1\n")
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: batch {batch} has no cell in column 'v' at row 1\n"

    @pytest.mark.parametrize("cell, column, want", [("abc", "n", "an integer"),
                                                     ("2.5", "d", "an integer"),
                                                     ("", "M", "a number"),
                                                     ("one", "x", "a number")])
    def test_batch_non_numeric_cell_names_its_row_and_column(self, capsys, tmp_path,
                                                             cell, column, want):
        # int('abc') named only the literal
        values = dict(zip("n,d,M,v,c,x".split(","), "8,2,1,1,100,40".split(",")))
        values[column] = cell
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x\n4,1,1,1,100,40\n" + ",".join(values.values()) + "\n")
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (f"error: batch {batch} has {cell!r}, not {want}, in column"
                                f" {column!r} at row 1\n")

    def test_batch_integer_past_the_float_range_names_its_row_and_column(self, capsys,
                                                                         tmp_path):
        # int() took the 401-digit cell, and its float conversion raised an
        # OverflowError traceback, exit 1
        big = "1" + "0" * 400
        batch = tmp_path / "rows.csv"
        batch.write_text(f"n,d,M,v,c,x\n4,1,1,1,100,40\n{big},2,1,1,100,40\n")
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (f"error: batch {batch} has {big!r}, past the float range,"
                                " in column 'n' at row 1\n")

    @pytest.mark.parametrize("flag", ["--n", "--d"])
    def test_integer_flag_past_the_float_range_names_it(self, capsys, flag):
        big = "1" + "0" * 400
        argv = ["--n", "10", "--d", "2", "--M", "1", "--v", "1", "--c", "1", "--x", "5"]
        argv[argv.index(flag) + 1] = big
        code = main(["bound", "--kind", "tail", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {flag} is past the float range, got {big}\n"

    def test_batch_domain_error_names_its_row(self, capsys, tmp_path):
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x\n4,1,1,1,100,40\n8,2,1,-1,100,40\n")
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        err = capsys.readouterr().err
        assert code == 3
        assert "need v >= 0 finite, got -1.0 at row 1" in err

    @pytest.mark.parametrize("text, message", [
        # a dict reader files the extra cell under no column: a ['9'] cell, exit 0
        ("n,d,M,v,c,x\n4,1,1,1,100,40,9\n", "has 7 cells at row 0, but its header has 6"),
        # and fills a missing pass-through cell with None: an empty cell, exit 0
        ("n,d,M,v,c,x,label\n4,1,1,1,100,40,a\n4,1,1,1,100,40\n",
         "has 6 cells at row 1, but its header has 7"),
        # and keeps the last of two n columns: 8,1,1,... exit 0
        ("n,d,M,v,c,x,n\n4,1,1,1,100,40,8\n", "names the column 'n' twice"),
        # a pass-through column named twice is refused the same way
        ("label,n,d,M,v,c,x,label\na,4,1,1,1,100,40,b\n", "names the column 'label' twice"),
        # a column named twice is found before a missing one (no d here)
        ("n,M,v,c,x,n\n4,1,1,100,40,8\n", "names the column 'n' twice"),
    ])
    def test_batch_row_off_its_header_or_column_named_twice_is_exit_3(
            self, capsys, tmp_path, text, message):
        batch = tmp_path / "rows.csv"
        batch.write_text(text)
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: batch {batch} {message}\n"

    @pytest.mark.parametrize("kind", ["tail", "laplace", "expectation"])
    def test_batch_bytes_match_the_dict_reader(self, tmp_path, kind):
        # quoted pass-through cells, cells a cast would respell, blank lines
        # and CRLF line ends: the same bytes as the csv.DictReader reference
        batch = tmp_path / "rows.csv"
        batch.write_bytes(b'label,x,n,d,M,v,c,t\r\n'
                          b'"a, ""b""",40,04,1,1,1,1e2,0.01\r\n\r\n'
                          b'plain,3.5e6,1024,4,1.0,0.5,0.69,1e-6\r\n'
                          b'"",6e4,1180591620717411303424,8,0.3,2,.05,1e-25\r\n\r\n')
        out = tmp_path / "out.csv"
        assert main(["bound", "--kind", kind, "--batch", str(batch), "--out", str(out)]) == 0
        assert out.read_bytes() == _dict_reader_batch(batch, kind).encode()

    def test_batch_bytes_match_the_dict_reader_on_2000_rows(self, tmp_path):
        # rows joined as they are, between rows whose pass-through cell
        # csv.writer quotes: a comma, a doubled quote, a newline and a bare CR
        labels = [b"plain", b'"a, b"', b'"say ""hi"""', b'"two\nlines"', b'"bare\rCR"', b""]
        lines = [b"label,n,d,M,v,c,x"] + [
            labels[i % len(labels)] + b",%d,2,1,0.5,0.7,%d" % (2 ** (4 + i % 30), 10 + i)
            for i in range(2000)]
        batch = tmp_path / "rows.csv"
        batch.write_bytes(b"\r\n".join(lines) + b"\r\n")
        out = tmp_path / "out.csv"
        assert main(["bound", "--kind", "tail", "--batch", str(batch), "--out", str(out)]) == 0
        assert out.read_bytes() == _dict_reader_batch(batch, "tail").encode()
        assert out.read_bytes().count(b'"say ""hi"""') == 333

    def test_batch_cell_past_the_csv_field_limit_is_exit_3(self, capsys, tmp_path):
        # csv.reader refuses a field longer than 131,072 characters
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x,note\n4,1,1,1,100,40,a\n4,1,1,1,100,40," + "a" * 200_000)
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith(f"error: batch {batch} is not CSV at line 3: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_batch_bytes_match_the_csv_reference_on_seeded_files(self, tmp_path, seed):
        # pass-through columns anywhere in the header, CRLF or LF line ends,
        # blank lines and a missing final newline; half the files hold quoted
        # cells (a comma, a doubled quote, a line break), the others none
        rng = np.random.default_rng(seed)
        quoted = seed % 2 == 0
        header = ["n", "d", "M", "v", "c", "x"] + [f"p{j}" for j in range(rng.integers(1, 4))]
        header = [header[j] for j in rng.permutation(len(header))]
        cells = {"n": lambda: str(2 ** int(rng.integers(4, 40))), "d": lambda: str(rng.integers(1, 9)),
                 "M": lambda: repr(rng.uniform(0.1, 10.0)), "v": lambda: repr(rng.uniform(0.05, 5.0)),
                 "c": lambda: repr(rng.uniform(0.05, 20.0)), "x": lambda: repr(rng.uniform(1.0, 1e3))}
        plain = ["", "a", "label 7", "-", "1e3", " x "]
        odd = ['"a, b"', '"say ""hi"""', '"two\nlines"', '","', '""""']
        lines = [",".join(header)]
        for _ in range(int(rng.integers(1, 60))):
            lines.append(",".join(
                cells[k]() if k in cells else
                odd[rng.integers(len(odd))] if quoted and rng.random() < 0.3 else
                plain[rng.integers(len(plain))] for k in header))
            if rng.random() < 0.2:
                lines.append("")
        end = "\r\n" if rng.random() < 0.5 else "\n"
        text = end.join(lines) + (end if rng.random() < 0.5 else "")
        assert ('"' in text) == quoted
        batch = tmp_path / "rows.csv"
        batch.write_bytes(text.encode())
        out = tmp_path / "out.csv"
        assert main(["bound", "--kind", "tail", "--batch", str(batch), "--out", str(out)]) == 0
        assert out.read_bytes() == _csv_reference_batch(batch, "tail").encode()

    def test_batch_bad_cell_in_the_last_of_2000_rows_names_it(self, capsys, tmp_path):
        batch = tmp_path / "rows.csv"
        batch.write_text("n,d,M,v,c,x\n" + "4,1,1,1,100,40\n" * 1999 + "4,1,1,1,100,forty\n")
        code = main(["bound", "--kind", "tail", "--batch", str(batch)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (f"error: batch {batch} has 'forty', not a number, in column"
                                f" 'x' at row 1999\n")


def _dict_reader_batch(path, kind) -> str:
    """The output of `bound --batch` as csv.DictReader and csv.writer made
    it: the reference for a well-formed batch."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    given = dict.fromkeys(cli._BOUND_TYPES)
    given.update({k: np.fromiter((cast(row[k]) for row in rows), float, len(rows))
                  for k, cast in cli._BOUND_TYPES.items() if k in rows[0]})
    res = cli._bound_values(kind, given)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(rows[0]) + sorted(res))
    w.writerows(list(row.values()) + [res[k][i].item() for k in sorted(res)]
                for i, row in enumerate(rows))
    return buf.getvalue()


def _csv_reference_batch(path, kind) -> str:
    """The output of `bound --batch` as csv.reader and csv.writer make it,
    row by row: the reference for a well-formed batch."""
    with open(path) as fh:
        header, *rows = csv.reader(fh)
    rows = [row for row in rows if row]
    given = dict.fromkeys(cli._BOUND_TYPES)
    given.update({k: np.array([float(cast(row[header.index(k)])) for row in rows])
                  for k, cast in cli._BOUND_TYPES.items() if k in header})
    res = cli._bound_values(kind, given)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header + sorted(res))
    for i, row in enumerate(rows):
        w.writerow(row + [repr(res[k][i].item()) for k in sorted(res)])
    return buf.getvalue()


def _rows_csv(names, rows) -> str:
    return "\n".join([",".join(names)] + [",".join(map(repr, r)) for r in rows]) + "\n"


@pytest.mark.parametrize("argv, flag, text", [
    (["bound", "--kind", "tail"], "--batch", 'n,d,M,v,c,x\n4,1,1,1,100,40\n8,2,1,1,100,40\n'),
    (["bound", "--kind", "tail"], "--batch", 'n,d,M,v,c,x,note\n4,1,1,1,100,40,"a, b"\n'),
    (["simulate", "--model", "contraction", "--n", "8", "--trials", "120", "--seed", "9",
      "--x-grid", "0.5:8:4"], "--config",
     '{"P": [[0.75, 0.25], [0.25, 0.75]], "D": [[1.0, 0.0], [0.0, -0.5]], "tau_map": [1.0, -1.0]}'),
    (["mixing", "--fit-c"], "--chain", '{"P": [[0.75, 0.25], [0.25, 0.75]]}'),
], ids=["batch", "quoted-batch", "config", "chain"])
def test_input_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, argv, flag, text):
    # a UTF-8 byte-order mark once read into the first column's name ("missing
    # the columns n") and into the JSON text, which json.load rejects
    path, outs = tmp_path / "input", []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text.encode())
        code, out = run_cli(capsys, *argv, flag, str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, flag, data, kind", [
    (["bound", "--kind", "tail"], "--batch",
     "n,d,M,v,c,x,note\n4,1,1,1,100,40,caf\xe9\n".encode("latin-1"), "UTF-8"),
    (["mixing"], "--chain", '{"P": [[0.75, 0.25], [0.25, 0.75]], "note": "caf\xe9"}'
     .encode("latin-1"), "UTF-8"),
    (["simulate", "--model", "contraction", "--n", "8", "--trials", "120", "--seed", "9",
      "--x-grid", "0.5:8:4"], "--config", b'{"P": [[0.75, 0.25], [0.25, 0.75]], "D": [[1.0',
     "JSON"),
    (["mixing"], "--chain", b'{"P": [[0.75, 0.25], [0.25, 0.7', "JSON"),
], ids=["latin-1-batch", "latin-1-chain", "truncated-config", "truncated-chain"])
def test_unreadable_input_names_its_flag_and_path(capsys, tmp_path, argv, flag, data, kind):
    # the decoder's or json's message alone named neither the file nor its flag
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main([*argv, flag, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {flag} {path} is not {kind}: ")


@pytest.mark.parametrize("argv, flag", [
    (["mixing"], "--chain"),
    (["simulate", "--model", "contraction", "--n", "8", "--trials", "120", "--seed", "9",
      "--x-grid", "0.5:8:4"], "--config"),
], ids=["chain", "config"])
def test_deeply_nested_input_names_its_flag_and_path(capsys, tmp_path, argv, flag):
    # json.load's RecursionError once escaped as a traceback and exit 1
    path = tmp_path / "input"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([*argv, flag, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {flag} {path} is not JSON: ")


class TestUsageErrors:
    """A usage error argparse rejects is an invalid input (3); 2 stays a
    failed verify check."""

    @pytest.mark.parametrize("argv", [
        ["bound", "--n", "4", "--d", "1", "--M", "1", "--v", "1", "--c", "100"],
        ["bound", "--kind", "theorem1", "--n", "4", "--d", "1", "--M", "1", "--v", "1",
         "--c", "100", "--x", "1"],
        ["simulate", "--model", "nope", "--config", "m.json", "--n", "8",
         "--trials", "120", "--seed", "1", "--x-grid", "1:2:2"],
        ["verify", "nosuch"],
    ], ids=["bound_without_kind", "bound_theorem1", "simulate_unknown_model",
            "verify_unknown_suite"])
    def test_usage_error_is_exit_3(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_help_is_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--help"])
        assert exc.value.code == 0 and "--kind" in capsys.readouterr().out

    def test_parser_built_once(self, capsys):
        # two calls share one parser, and it still rejects a bad call with 3
        cli._parser.cache_clear()
        assert run_cli(capsys, "cantor", "--A", "10")[0] == 0
        assert run_cli(capsys, "cantor", "--A", "10", "--format", "csv")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["cantor", "--A", "ten"])
        assert exc.value.code == 3 and "error:" in capsys.readouterr().err
        assert cli._parser.cache_info().misses == 1

    def test_command_is_looked_up_at_call_time(self, capsys, monkeypatch):
        run_cli(capsys, "cantor", "--A", "10")  # the parser is built
        monkeypatch.setattr(cli, "cmd_cantor", lambda args: 7)
        assert run_cli(capsys, "cantor", "--A", "10")[0] == 7

    def test_failed_verify_is_still_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "monotonic", itertools.count().__next__)
        code, out = run_cli(capsys, "verify", "bounds", "--budget", "0")
        assert code == 2 and json.loads(out)["ok"] is False


class TestMixingCommand:
    def test_csv_profile(self, capsys, chain_file):
        code, out = run_cli(capsys, "mixing", "--chain", chain_file,
                            "--beta-k", "1..5")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["k", "beta_k", "envelope"]
        for i, row in enumerate(rows[1:], start=1):
            assert int(row[0]) == i
            assert float(row[1]) == pytest.approx(0.5 ** (i + 1), abs=1e-12)

    def test_fit_c_json(self, capsys, chain_file):
        code, out = run_cli(capsys, "mixing", "--chain", chain_file,
                            "--beta-k", "1..50", "--fit-c", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["c"] == pytest.approx(51.0 / 49.0 * np.log(2.0), rel=1e-12)
        # fitted envelope dominates every listed coefficient
        for entry in payload["beta"]:
            if entry["k"] >= 2:
                assert entry["beta_k"] <= entry["envelope"] * (1 + 1e-12)

    def test_fit_c_json_is_pinned(self, capsys, chain_file, monkeypatch):
        # the chain path is part of the output, so it is given relative
        monkeypatch.chdir(Path(chain_file).parent)
        code, out = run_cli(capsys, "mixing", "--chain", "chain.json",
                            "--beta-k", "1..50", "--fit-c", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6560138a64dcd28b4e03408e8d4bfdf156829b90a077bbbf6194c5a9775415d1")

    @pytest.mark.parametrize("fit_c, digest", [
        # no --fit-c: the envelope column is empty
        ((), "fcdc9349e49054e765515049b6b954a1b09eb9f7bb418207a58b765143b8a04e"),
        (("--fit-c",), "a8a5c43e4bf9618b0616075962319bc7392031f92e50671fac51ce600f9c2540"),
    ], ids=["envelope-empty", "fit-c"])
    def test_csv_is_pinned(self, capsys, chain_file, fit_c, digest):
        code, out = run_cli(capsys, "mixing", "--chain", chain_file, *fit_c, "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_certified_c_is_the_rate_of_the_bound(self, capsys, chain_file):
        # the profile shows lags 1..20, but c_certified walks the bound's lags
        # 1..50, and the window estimate c is not the bound's rate
        code, out = run_cli(capsys, "mixing", "--chain", chain_file,
                            "--beta-k", "1..20", "--fit-c", "--format", "json")
        spec = ModelSpec(kind="iid_baseline", d=1, D=np.eye(1),
                         chain=MarkovChain([[0.75, 0.25], [0.25, 0.75]]))
        payload = json.loads(out)
        assert code == 0
        assert payload["c_certified"] == bernstein_inputs_for(spec, 64).c
        assert payload["c_certified"] == certified_geometric_rate(spec.chain)
        assert payload["c_certified"] < payload["c"]

    def test_iid_window_is_null_and_certified_c_finite(self, capsys, tmp_path):
        # every beta_k of this chain is exactly 0, so the window has no least
        # rate; d̄ is 0 too, and only its rounding margin bounds c
        path = tmp_path / "iid.json"
        path.write_text(json.dumps({"P": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out = run_cli(capsys, "mixing", "--chain", str(path), "--fit-c", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["c"] is None
        assert 30.0 < payload["c_certified"] < 40.0
        assert all(entry["envelope"] is None for entry in payload["beta"])

    def test_chain_without_certified_rate_prints_null(self, capsys, tmp_path):
        # d̄(1) = d̄(2) = 1, so d̄ certifies no rate, yet every beta_k < 1: the
        # window estimate and the beta profile are still printed
        path = tmp_path / "primitive.json"
        path.write_text(json.dumps({"P": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]]}))
        code, out = run_cli(capsys, "mixing", "--chain", str(path), "--fit-c", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["c_certified"] is None and payload["c"] > 0.0
        assert all(entry["envelope"] is not None for entry in payload["beta"])

    def test_no_fit_c_prints_no_rate(self, capsys, chain_file):
        code, out = run_cli(capsys, "mixing", "--chain", chain_file, "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["c"] is None and payload["c_certified"] is None

    def test_iid_chain_has_one_pi_and_one_c(self, capsys, tmp_path):
        # in code, from a config and through the CLI, one P gives one pi and one c
        path = tmp_path / "iid.json"
        path.write_text(json.dumps({"P": np.tile([0.1] * 10, (10, 1)).tolist()}))
        in_code = iid_chain([0.1] * 10)
        from_config = MarkovChain.from_config(json.loads(path.read_text()))
        assert np.array_equal(in_code.pi.view(np.uint64), from_config.pi.view(np.uint64))
        code, out = run_cli(capsys, "mixing", "--chain", str(path), "--fit-c", "--format", "json")
        assert code == 0
        c = fit_geometric_rate(in_code, RATE_LAGS)
        assert json.loads(out)["c"] == c == fit_geometric_rate(from_config, RATE_LAGS)

    @pytest.mark.parametrize("beta_k", ["5", "1..x", "3..1", "1..2..3", ""])
    def test_malformed_beta_k_names_the_flag(self, capsys, chain_file, beta_k):
        # these were an unpacking error, an int() error, and for a reversed
        # range an empty profile with exit 0
        code = main(["mixing", "--chain", chain_file, "--beta-k", beta_k])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == (f"error: --beta-k must be lo..hi with 1 <= lo <= hi,"
                       f" got {beta_k!r}\n")

    def test_lag_zero_is_exit_3(self, capsys, chain_file):
        code, out = run_cli(capsys, "mixing", "--chain", chain_file, "--beta-k", "0..3")
        assert code == 3 and out == ""

    def test_missing_file_is_exit_3(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "mixing", "--chain", str(tmp_path / "nope.json"))
        assert code == 3

    def test_non_object_chain_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text("[1, 2]")
        code = main(["mixing", "--chain", str(path)])
        assert code == 3
        assert "JSON object" in capsys.readouterr().err

    def test_chain_without_P_names_it(self, capsys, tmp_path):
        # a missing P was a bare KeyError: "error: 'P'"
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"Q": [[0.75, 0.25], [0.25, 0.75]]}))
        code = main(["mixing", "--chain", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "chain or model config" in err and "without 'P'" in err

    def test_bad_matrix_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"P": [[1.0, 0.5], [0.5, 0.5]]}))
        code, _ = run_cli(capsys, "mixing", "--chain", str(path))
        assert code == 3


class TestSimulateCommand:
    BASE = ("--n", "8", "--trials", "120", "--seed", "9",
            "--x-grid", "0.5:8:4")

    def test_json_report(self, capsys, model_file):
        code, out = run_cli(capsys, "simulate", "--model", "contraction",
                            "--config", model_file, *self.BASE)
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == "depbernstein/1"
        assert payload["trials"] == 120 and payload["n"] == 8
        assert len(payload["tail_grid"]) == 4
        assert len(payload["lambda_max_samples"]) == 120

    def test_csv_report(self, capsys, model_file):
        code, out = run_cli(capsys, "simulate", "--model", "contraction",
                            "--config", model_file, *self.BASE,
                            "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert code == 0
        assert rows[0] == ["x", "p_hat", "ci_low", "ci_high", "certified_bound",
                           "log_bound"]
        assert len(rows) == 5

    def test_byte_identical_reruns(self, capsys, model_file):
        _, first = run_cli(capsys, "simulate", "--model", "contraction",
                           "--config", model_file, *self.BASE)
        _, second = run_cli(capsys, "simulate", "--model", "contraction",
                            "--config", model_file, *self.BASE)
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys, model_file):
        _, one = run_cli(capsys, "simulate", "--model", "contraction",
                         "--config", model_file, *self.BASE, "--workers", "1")
        _, two = run_cli(capsys, "simulate", "--model", "contraction",
                         "--config", model_file, *self.BASE, "--workers", "2")
        assert one == two

    def test_negative_seed_is_exit_3(self, capsys, model_file):
        code = main(["simulate", "--model", "contraction", "--config", model_file,
                     "--n", "8", "--trials", "120", "--seed", "-1", "--x-grid", "0.5:8:4"])
        assert code == 3
        assert "non-negative integer" in capsys.readouterr().err

    def test_negative_seed_is_exit_3_before_the_inputs_and_the_streams(self, capsys,
                                                                       model_file, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("reached past the sampler's checks")

        monkeypatch.setattr(models, "bernstein_inputs_for", forbidden)
        monkeypatch.setattr(models, "_stream", forbidden)
        code = main(["simulate", "--model", "contraction", "--config", model_file,
                     "--n", "8", "--trials", "120", "--seed", "-1", "--x-grid", "0.5:8:4"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "--seed" in err

    def test_csv_with_a_grid_below_0_is_pinned(self, capsys, model_file):
        # x = -1 is a row of the bound d = 2 and its log, log 2
        code, out = run_cli(capsys, "simulate", "--model", "contraction", "--config", model_file,
                            "--n", "8", "--trials", "120", "--seed", "9", "--x-grid=-1:3:3",
                            "--format", "csv")
        assert code == 0 and out.splitlines()[1].endswith(",2.0,0.6931471805599453")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7b432c765974044fe32199f8548806fe2acbf1ad422d5bacca8e570d1af005d7")

    @pytest.mark.parametrize("grid", ["1:2", "1:2:0", "1:2:-1", "a:2:3", "1:2:3.5", "1:2:3:4"])
    def test_malformed_x_grid_names_the_flag(self, capsys, model_file, grid):
        code = main(["simulate", "--model", "contraction", "--config", model_file,
                     "--n", "8", "--trials", "120", "--seed", "9", "--x-grid", grid])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == f"error: --x-grid must be a:b:steps with steps >= 1, got {grid!r}\n"

    @pytest.mark.parametrize("model, config", [
        ("contraction", {"D": [[1.0, 0.0], [0.0, -0.5]], "tau_map": [1.0, -1.0]}),
        ("blockcov", {"d": 2, "value_map": [1.0, -1.0]}),
        ("iid", {"D": [[1.0, 0.0], [0.0, -0.5]]}),
    ], ids=["contraction", "blockcov", "iid"])
    def test_smallest_n_with_grid_points_at_or_below_0(self, capsys, tmp_path, model, config):
        # n = 2 is the smallest n the bound accepts; at x <= 0 the bound is d
        # (here 2) and its log log d
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]], **config}))
        code, out = run_cli(capsys, "simulate", "--model", model, "--config", str(path),
                            "--n", "2", "--trials", "120", "--seed", "9", "--x-grid=-1:1:3",
                            "--format", "csv")
        rows = list(csv.DictReader(out.splitlines()))
        assert code == 0 and [float(r["x"]) for r in rows] == [-1.0, 0.0, 1.0]
        for r in rows[:2]:
            assert float(r["certified_bound"]) == 2.0
            assert float(r["log_bound"]) == math.log(2.0)

    def test_grid_below_0_is_written_with_equals(self, capsys, model_file):
        # with a space, argparse reads -1:3:3 as an option, not as the value
        argv = ["simulate", "--model", "contraction", "--config", model_file,
                "--n", "8", "--trials", "120", "--seed", "9"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--x-grid", "-1:3:3"])
        captured = capsys.readouterr()
        assert exc.value.code == 3 and captured.out == ""
        assert "argument --x-grid: expected one argument" in captured.err
        code, out = run_cli(capsys, *argv, "--x-grid=-1:3:3")
        assert code == 0
        assert [x for x, *_ in json.loads(out)["tail_grid"]] == [-1.0, 1.0, 3.0]

    @pytest.mark.parametrize("grid", ["1:inf:3", "nan:2:3", "inf:inf:1", "1e308:-1e308:3"])
    def test_non_finite_x_grid_names_the_flag(self, capsys, model_file, grid):
        # np.linspace warned on these ends before the points were checked
        code = main(["simulate", "--model", "contraction", "--config", model_file,
                     "--n", "8", "--trials", "120", "--seed", "9", "--x-grid", grid])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == f"error: --x-grid must have finite a, b and b - a, got {grid!r}\n"

    def test_rejected_n_is_exit_3_before_sampling(self, capsys, model_file, monkeypatch):
        # the inputs are built first, so n = 1 exits before any trial runs
        def forbidden(*args, **kwargs):
            raise AssertionError("Monte Carlo before the inputs")

        monkeypatch.setattr(models, "_partial_sum_eigs", forbidden)
        code = main(["simulate", "--model", "contraction", "--config", model_file,
                     "--n", "1", "--trials", "2000000", "--seed", "1", "--x-grid", "1:2:2"])
        assert code == 3
        assert capsys.readouterr().err == "error: need n >= 2, got 1\n"

    @pytest.mark.parametrize("n", ["100000000000", "1" + "0" * 400], ids=["1e11", "1e400"])
    def test_n_too_large_for_one_chunk_names_the_flag(self, capsys, tmp_path, monkeypatch, n):
        # numpy's "Unable to allocate 373. GiB for an array with shape
        # (1, 50000000000)" and "Maximum allowed dimension exceeded" named no flag
        read = []
        monkeypatch.setattr(models, "_stream", lambda *args: read.append(args))
        path = tmp_path / "iid.json"
        path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]],
                                    "D": [[1.0, 0.3], [0.3, -0.5]]}))
        code = main(["simulate", "--model", "iid", "--config", str(path), "--n", n,
                     "--trials", "300", "--seed", "4294967296", "--x-grid", "1:16:4"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and read == []
        assert captured.err.startswith(f"error: --n {n} is too large for one sampling chunk")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("trials", ["1000000000000", "1" + "0" * 400],
                             ids=["1e12", "1e400"])
    def test_trials_too_large_for_memory_names_the_flag(self, capsys, model_file,
                                                        monkeypatch, trials):
        # 10^12 trials passed the checks and built about 3e9 chunk tuples,
        # then exited with "error: MemoryError", which named no flag
        read = []
        monkeypatch.setattr(models, "_stream", lambda *args: read.append(args))
        monkeypatch.setattr(models, "bernstein_inputs_for", lambda *args: read.append(args))
        code = main(["simulate", "--model", "contraction", "--config", model_file, "--n", "64",
                     "--trials", trials, "--seed", "1", "--x-grid", "1:16:4"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and read == []
        assert captured.err.startswith(f"error: --trials {trials} is too large")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_non_positive_workers_is_exit_3(self, capsys, model_file, workers):
        code = main(["simulate", "--model", "contraction", "--config", model_file,
                     *self.BASE, "--workers", workers])
        assert code == 3
        assert "workers" in capsys.readouterr().err

    def test_missing_config_key_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]]}))
        code, _ = run_cli(capsys, "simulate", "--model", "contraction",
                          "--config", str(path), *self.BASE)
        assert code == 3

    @pytest.mark.parametrize("model, config, named", [
        ("blockcov", {"P": [[0.75, 0.25], [0.25, 0.75]], "value_map": [1.0, -1.0]},
         "a --model blockcov config is missing 'd'"),
        ("contraction", {"D": [[1.0, 0.0], [0.0, -0.5]], "tau_map": [1.0, -1.0]},
         "a chain or model config is a JSON object with the transition matrix 'P', "
         "got an object without 'P'"),
        ("iid", {"P": [[0.75, 0.25], [0.25, 0.75]]}, "a --model iid config is missing 'D'"),
    ])
    def test_missing_config_key_is_named(self, capsys, tmp_path, model, config, named):
        # each was a bare KeyError: "error: 'd'", "error: 'P'", "error: 'D'"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--model", model, "--config", str(path), *self.BASE])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {named}\n"

    @pytest.mark.parametrize("model, key, value, named", [
        ("contraction", "P", [[math.nan, 1.0], [0.25, 0.75]], "P rows must be finite"),
        ("contraction", "D", [[1.0, 0.0], [0.0, math.nan]], "entries must be finite"),
        ("contraction", "tau_map", [math.nan, -1.0], "finite |tau|"),
        ("blockcov", "value_map", [1.0, math.nan], "value_map must be finite"),
    ])
    def test_nan_in_config_is_exit_3(self, capsys, tmp_path, model, key, value, named):
        config = {"P": [[0.75, 0.25], [0.25, 0.75]], "D": [[1.0, 0.0], [0.0, -0.5]],
                  "tau_map": [1.0, -1.0], "d": 2, "value_map": [1.0, -1.0], key: value}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(config))  # writes the NaN literal
        code = main(["simulate", "--model", model, "--config", str(path), *self.BASE])
        assert code == 3
        assert named in capsys.readouterr().err

    def test_unread_config_keys_are_exit_3(self, capsys, tmp_path):
        # an iid model reads P and D: the others ran silently and exited 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]],
                                    "D": [[1.0, 0.0], [0.0, -0.5]], "tau_map": [1.0, -1.0],
                                    "value_map": [1.0, -1.0], "bogus": 1}))
        code = main(["simulate", "--model", "iid", "--config", str(path), *self.BASE])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == ("error: a --model iid config does not read 'tau_map',"
                                " 'value_map', 'bogus'\n")

    @pytest.mark.parametrize("d", [[2], 2.5, 2.7, True], ids=["list", "2.5", "2.7", "bool"])
    def test_non_integer_d_is_exit_3(self, capsys, tmp_path, d):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]], "d": d,
                                    "value_map": [1.0, -1.0]}))
        code = main(["simulate", "--model", "blockcov", "--config", str(path), *self.BASE])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "d must be an integer" in captured.err

    @pytest.mark.parametrize("model", ["contraction", "blockcov", "iid"])
    def test_non_object_config_is_exit_3(self, capsys, tmp_path, model):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        code = main(["simulate", "--model", model, "--config", str(path), *self.BASE])
        assert code == 3
        assert "JSON object" in capsys.readouterr().err

    def test_stacked_D_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]],
                                    "D": [np.eye(2).tolist()] * 2, "tau_map": [1.0, -1.0]}))
        code = main(["simulate", "--model", "contraction", "--config", str(path), *self.BASE])
        assert code == 3
        assert "shape (2, 2, 2)" in capsys.readouterr().err


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["cantor", "bounds", "coupling", "dominance"])
    def test_suites_pass(self, capsys, suite):
        code, out = run_cli(capsys, "verify", suite, "--budget", "20")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True and payload["failures"] == []
        assert payload["checked"]
        assert all(isinstance(v, int) for v in payload["checked"].values())

    def test_cantor_counts_every_A(self, capsys):
        code, out = run_cli(capsys, "verify", "cantor", "--budget", "120")
        checked = json.loads(out)["checked"]
        assert code == 0 and checked["disjoint_cover"] == 4999
        assert checked["gap_floor"] == 23_401  # every gap level of every A

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "-1", "-0.5"])
    def test_budget_that_is_not_a_budget_is_exit_3(self, capsys, budget):
        # NaN never stopped a suite, and NaN and inf were printed as JSON's
        # invalid NaN and Infinity; -1 failed as a spent budget (exit 2)
        code = main(["verify", "bounds", f"--budget={budget}"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: --budget must be finite and >= 0")

    @pytest.mark.parametrize("suite", sorted(checks.SUITES))
    def test_spent_budget_stops_every_suite(self, capsys, monkeypatch, suite):
        # a clock that moves on each read: a zero budget is spent by the first case
        monkeypatch.setattr(checks, "monotonic", itertools.count().__next__)
        code, out = run_cli(capsys, "verify", suite, "--budget", "0")
        payload = json.loads(out)
        assert code == 2 and payload["ok"] is False and payload["checked"] == {}
        assert payload["failures"] == [{"invariant": "budget", "case": 0}]

    def test_dominance_counts_each_model(self, capsys):
        # every bound on the shipped grids is >= 1, so no tail point is compared
        code, out = run_cli(capsys, "verify", "dominance")
        assert code == 0
        assert json.loads(out)["checked"] == {
            **{f"tail_dominance.{m}": 0 for m in ("iid", "contraction", "blockcov")},
            **{f"expectation_dominance.{m}": 1 for m in ("iid", "contraction", "blockcov")}}

    def test_dominance_flags_a_zero_expectation_ceiling(self, capsys, monkeypatch):
        # every shipped model has d >= 2 and a positive mean lambda_max
        monkeypatch.setattr(bounds, "expectation_bound", lambda inputs: 0.0)
        code, out = run_cli(capsys, "verify", "dominance")
        failures = json.loads(out)["failures"]
        assert code == 2
        assert [f["invariant"] for f in failures] == [
            f"expectation_dominance.{m}" for m in ("iid", "contraction", "blockcov")]
        for f in failures:
            assert f["invariant"] == f"expectation_dominance.{f['model']}"
            assert f["bound"] == 0.0 and f["mean"] > 3.0 * f["stderr"] > 0.0

    def test_dominance_tail_failure_carries_its_interval(self, capsys, monkeypatch):
        # a certified log bound far below every sampled tail: each grid point
        # is compared, and each with p_hat > 0 fails
        monkeypatch.setattr(bounds, "log_tail_bound_certified",
                            lambda x, inputs: (np.full(np.shape(x), -50.0), None))
        code, out = run_cli(capsys, "verify", "dominance")
        payload = json.loads(out)
        tail = [f for f in payload["failures"] if f["invariant"].startswith("tail_dominance.")]
        assert code == 2 and tail
        assert all(payload["checked"][f"tail_dominance.{m}"] == 8
                   for m in ("iid", "contraction", "blockcov"))
        for f in tail:
            assert f["lo"] <= f["p_hat"] <= f["hi"]
            assert f["p_hat"] > f["bound"] == math.exp(-50.0)

    def test_scipy_stats_not_imported(self, tmp_path, chain_file):
        # one fresh process: no command loads any scipy module, simulate and
        # verify dominance (the Clopper-Pearson intervals) included
        env = src_env()
        out = str(tmp_path / "out")
        config = tmp_path / "contraction.json"
        config.write_text(json.dumps({"P": [[0.75, 0.25], [0.25, 0.75]], "D": [[1.0, 0.0], [0.0, -0.5]],
                                      "tau_map": [1.0, -1.0]}))
        steps = {
            "bound": ["bound", "--kind", "tail", "--n", "64", "--d", "2", "--M", "1",
                      "--v", "1", "--c", "1", "--x", "30"],
            "cantor": ["cantor", "--A", "1000"],
            "mixing": ["mixing", "--chain", chain_file, "--fit-c"],
            "simulate": ["simulate", "--model", "contraction", "--config", str(config),
                         "--n", "64", "--trials", "300", "--seed", "1", "--x-grid", "1:16:4"],
            **{f"verify {s}": ["verify", s]
               for s in ("inequalities", "cantor", "bounds", "coupling", "dominance")},
        }
        code = ("import json, sys\n"
                "def scipy_loaded():\n"
                "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                "from depbernstein.cli import main\n"
                "loaded = {'import': scipy_loaded()}\n"
                f"for name, argv in {steps!r}.items():\n"
                f"    assert main(argv + ['--out', {out!r}]) == 0, name\n"
                "    loaded[name] = scipy_loaded()\n"
                "print(json.dumps(loaded))\n")
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"import": [], **{name: [] for name in steps}}

    def test_numpy_random_not_imported(self, tmp_path, chain_file):
        # one fresh process: the commands that never sample leave numpy.random
        # unloaded (its first import takes milliseconds and megabytes of RSS)
        env = src_env()
        check = [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"]
        if subprocess.run(check, env=env, capture_output=True, text=True,
                          timeout=60).stdout.strip() != "False":
            pytest.skip("import numpy loads numpy.random here (numpy before 2)")
        out = str(tmp_path / "out")
        steps = {
            "bound": ["bound", "--kind", "tail", "--n", "64", "--d", "2", "--M", "1",
                      "--v", "1", "--c", "1", "--x", "30"],
            "cantor": ["cantor", "--A", "1000"],
            "mixing": ["mixing", "--chain", chain_file, "--fit-c"],
            "verify cantor": ["verify", "cantor"],
        }
        code = ("import json, sys\n"
                "from depbernstein.cli import main\n"
                "loaded = {'import': 'numpy.random' in sys.modules}\n"
                f"for name, argv in {steps!r}.items():\n"
                f"    assert main(argv + ['--out', {out!r}]) == 0, name\n"
                "    loaded[name] = 'numpy.random' in sys.modules\n"
                "print(json.dumps(loaded))\n")
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"import": False, **{name: False for name in steps}}

    def test_exact_laws_not_imported(self):
        # the exact side is the tests' reference: no command compiles or runs it
        code = "import sys, depbernstein.cli; print('depbernstein.exact' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                             text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_inequality_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "inequalities", "--budget", "30")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_inequality_suite_output_is_pinned(self, capsys):
        # every case runs at the default budget, so the bytes are fixed
        code, out = run_cli(capsys, "verify", "inequalities")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a4bbe69cb1dc81525ac750f3b08f5f977f1a3c498fd517a0f62d42accb52d8ee")

    def test_cantor_suite_output_is_pinned(self, capsys):
        # taken from the construction that built every A's blocking on its own
        code, out = run_cli(capsys, "verify", "cantor")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1e4b3dec4e0d4d14e05428dc2f15f63db51dbddff0edacb3d4e5b80b0b595fc1")
