import json
import os
import re
import subprocess
import sys

import pytest

from blockbp import evaluate
from blockbp.bp import fit_result_from_json, fixed_k_fit
from blockbp.cli import main


def run(argv):
    return main(argv)


@pytest.fixture
def generated(tmp_path):
    out = tmp_path / "g.txt"
    code = run([
        "generate", "--n", "80", "--k", "2", "--pin", "0.2", "--pout", "0.02",
        "--seed", "1", "--output", str(out),
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_writes_edges_and_labels(self, generated):
        assert generated.exists()
        labels = generated.with_suffix(".txt.labels")
        assert labels.exists()
        assert len(labels.read_text().strip().split("\n")) == 80

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            run(["generate", "--n", "100", "--k", "4", "--pin", "0.05",
                 "--pout", "0.0025", "--seed", "7", "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.labels").read_bytes() == (tmp_path / "b.txt.labels").read_bytes()


class TestFit:
    def test_smoke_records_selected_k(self, generated, tmp_path):
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", str(generated), "--k-max", "4",
                    "--seed", "0", "--method", "f2ab", "--output", str(out)])
        assert code == 0
        fit = fit_result_from_json(out.read_text())
        assert fit.selected_k >= 1
        assert not os.path.exists(str(out) + ".tmp")

    def test_deterministic_output(self, generated, tmp_path):
        outs = []
        for name in ("f1.json", "f2.json"):
            out = tmp_path / name
            run(["fit", "--input", str(generated), "--k-max", "3",
                 "--seed", "5", "--method", "f2ab", "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mask_fraction_writes_record(self, generated, tmp_path):
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", str(generated), "--k-max", "2", "--seed", "0",
                    "--method", "f2ab", "--output", str(out), "--mask-fraction", "0.01"])
        assert code == 0
        masked = tmp_path / "fit.json.masked"
        assert masked.exists()
        lines = masked.read_text().strip().split("\n")
        assert len(lines) == 33  # ceil(0.01 * 80*81/2)
        for line in lines:
            i, j, bit = line.split()
            assert bit in ("0", "1")

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-sweeps", "-3"), ("--max-sweeps", "0"), ("--max-outer", "0"),
         ("--tol-msg", "-0.1"), ("--tol-pi", "nan")],
    )
    def test_out_of_range_stopping_value_exits_one(
        self, generated, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", str(generated), "--k-max", "4", "--seed", "0",
                    "--output", str(out), "--mask-fraction", "0.01", flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag[2:].replace('-', '_')} must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.labels"]

    @pytest.mark.parametrize("fraction", ["-0.2", "1.5"])
    def test_mask_fraction_outside_unit_interval_exits_one(
        self, generated, tmp_path, capsys, fraction
    ):
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", str(generated), "--k-max", "2", "--seed", "0",
                    "--output", str(out), "--mask-fraction", fraction])
        assert code == 1
        assert "fraction must lie in (0, 1)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.labels"]

    def test_missing_input_exits_two(self, tmp_path):
        code = run(["fit", "--input", str(tmp_path / "nope.txt"),
                    "--output", str(tmp_path / "o.json")])
        assert code == 2

    def test_sweep_methods_accepted_for_fit(self, generated, tmp_path):
        out = tmp_path / "fit_icl.json"
        code = run(["fit", "--input", str(generated), "--k-max", "3",
                    "--seed", "0", "--method", "icl", "--output", str(out)])
        assert code == 0
        fit = fit_result_from_json(out.read_text())
        assert fit.method == "icl"

    @pytest.mark.parametrize("method", ["f2ab", "fic-bp", "icl", "cicl"])
    def test_k_max_below_one_exits_one(self, generated, tmp_path, capsys, method):
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", str(generated), "--k-max", "0", "--seed", "0",
                    "--method", method, "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: cluster count must be >= 1, got 0\n"
        assert not out.exists()


class TestSweep:
    def test_table_rows_and_best_mark(self, generated, tmp_path):
        out = tmp_path / "table.csv"
        code = run(["sweep", "--input", str(generated), "--method", "cicl",
                    "--sweep", "1:4", "--seed", "0", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,ffic_lb,fic,icl,cicl,entropy,selected"
        assert len(lines) == 5
        stars = [ln for ln in lines[1:] if ln.endswith(",*")]
        assert len(stars) == 1

    @pytest.mark.parametrize("method", ["icl", "cicl"])
    def test_fit_selects_the_starred_k(self, generated, tmp_path, method):
        # at seed 2 ffic_lb peaks at K=3 and fic at K=4, so the fit must
        # read the same criterion column as the table
        table, out = tmp_path / "table.csv", tmp_path / "fit.json"
        code = run(["sweep", "--input", str(generated), "--method", method,
                    "--sweep", "1:4", "--seed", "2", "--output", str(table)])
        assert code == 0
        code = run(["fit", "--input", str(generated), "--k-max", "4",
                    "--seed", "2", "--method", method, "--output", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in table.read_text().strip().split("\n")[1:]]
        starred = [int(row[0]) for row in rows if row[-1] == "*"]
        assert starred == [fit_result_from_json(out.read_text()).selected_k]

    def test_caps_reach_every_fit(self, generated, tmp_path, monkeypatch):
        traces = []

        def recording_fit(graph, k, seed, opts=None):
            fit = fixed_k_fit(graph, k, seed, opts)
            traces.append(fit.trace)
            return fit

        monkeypatch.setattr(evaluate.bp, "fixed_k_fit", recording_fit)
        out = tmp_path / "table.csv"
        code = run(["sweep", "--input", str(generated), "--sweep", "2:4", "--tol-msg", "0",
                    "--max-sweeps", "2", "--max-outer", "1", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 4
        assert [[entry["sweeps"] for entry in trace] for trace in traces] == [[2]] * 3

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-sweeps", "-3"), ("--max-sweeps", "0"), ("--max-outer", "0"),
         ("--max-outer", "-1"), ("--tol-msg", "-0.1"), ("--tol-pi", "nan")],
    )
    def test_out_of_range_stopping_value_exits_one(
        self, generated, tmp_path, capsys, flag, value
    ):
        code = run(["sweep", "--input", str(generated), "--sweep", "1:2",
                    "--output", str(tmp_path / "table.csv"), flag, value])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {flag[2:].replace('-', '_')} must be")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.labels"]

    def test_bad_range_exits_two(self, generated, tmp_path):
        code = run(["sweep", "--input", str(generated), "--sweep", "4:1",
                    "--output", str(tmp_path / "t.csv")])
        assert code == 2


class TestEval:
    def test_pipeline(self, generated, tmp_path):
        fit_path = tmp_path / "fit.json"
        run(["fit", "--input", str(generated), "--k-max", "2", "--seed", "0",
             "--method", "f2ab", "--output", str(fit_path), "--mask-fraction", "0.02"])
        report_path = tmp_path / "report.json"
        code = run(["eval", "--fit", str(fit_path), "--masked", str(fit_path) + ".masked",
                    "--labels", str(generated) + ".labels", "--output", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["npll"] <= 0
        assert report["n_masked"] == 65  # ceil(0.02 * 80*81/2)
        # the planted two-block structure is strong; a misaligned node-id
        # mapping would push this to ~0
        assert report["ari"] > 0.8


    @pytest.mark.parametrize(
        "masked, labels, message",
        [
            ("0 1 1\n-1 3 1\n", None, "line 2: negative node id"),
            ("0 1 2\n", None, "line 1: observed bit must be 0 or 1"),
            ("0 1 1\n3 80 0\n", None, r"masked pair \(3, 80\) outside the fit's nodes 0..79"),
            ("0 1 1\n", "0 0\n1 -1\n", "line 2: node ids and cluster indices"),
            ("0 1 1\n", "0 0\n1 1\n", "labels file covers nodes 0..1"),
            ("0 1 1\n1 0 0\n", None, r"line 2: pair \(0, 1\) listed twice"),
            ("0 1 1\n", "0 0\n1 1\n1 0\n", "line 3: second label for node 1"),
        ],
    )
    def test_bad_input_exits_one(self, generated, tmp_path, capsys, masked, labels, message):
        fit_path = tmp_path / "fit.json"
        run(["fit", "--input", str(generated), "--k-max", "2", "--seed", "0",
             "--method", "f2ab", "--output", str(fit_path)])
        masked_path = tmp_path / "bad.masked"
        masked_path.write_text(masked)
        argv = ["eval", "--fit", str(fit_path), "--masked", str(masked_path),
                "--output", str(tmp_path / "report.json")]
        if labels is not None:
            labels_path = tmp_path / "bad.labels"
            labels_path.write_text(labels)
            argv += ["--labels", str(labels_path)]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(message, err), err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "field, edit, message",
        [
            pytest.param("node_marginals", lambda v: v[:10],
                         r"node_marginals must be an array of shape \(80, \d+\)",
                         id="marginals-10-rows"),
            pytest.param("node_marginals", lambda v: None,
                         "node_marginals must be an array of shape", id="marginals-null"),
            pytest.param("map_assignment", lambda v: v[:2],
                         r"map_assignment must be an array of shape \(80,\)", id="map-2-rows"),
            pytest.param("map_assignment", lambda v: [-1] + v[1:],
                         r"map_assignment entries must lie in 0\.\.", id="map-negative"),
            pytest.param("gamma", lambda v: v + [0.0], "gamma must be an array of shape",
                         id="gamma-long"),
            pytest.param("pi", lambda v: v[:1], "pi must be an array of shape", id="pi-short"),
            pytest.param("n", lambda v: None, "n must be an integer, got None", id="n-null"),
            pytest.param("node_ids", lambda v: 5, "node_ids must be null or a list of 80 strings",
                         id="node-ids-int"),
            pytest.param("node_ids", lambda v: [None] * len(v), "node_ids must be null or a list",
                         id="node-ids-nulls"),
            pytest.param("criteria", lambda v: {}, "criteria: .*missing 8 required",
                         id="criteria-empty"),
            pytest.param("criteria", lambda v: None, "criteria: .*must be a mapping",
                         id="criteria-null"),
            # edit None deletes the field
            pytest.param("trace", None, "trace missing", id="trace-deleted"),
            pytest.param("method", None, "method missing", id="method-deleted"),
            pytest.param("selected_k", None, "selected_k missing", id="selected-k-deleted"),
            pytest.param("gamma", None, "gamma missing", id="gamma-deleted"),
        ],
    )
    def test_malformed_fit_exits_one(self, generated, tmp_path, capsys, field, edit, message):
        # a fit.json edited or cut by hand loads with an error line, not a traceback
        fit_path = tmp_path / "fit.json"
        run(["fit", "--input", str(generated), "--k-max", "4", "--seed", "0",
             "--method", "f2ab", "--output", str(fit_path), "--mask-fraction", "0.05"])
        payload = json.loads(fit_path.read_text())
        if edit is None:
            del payload[field]
        else:
            payload[field] = edit(payload[field])
        fit_path.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["eval", "--fit", str(fit_path), "--masked", str(fit_path) + ".masked",
                "--labels", str(generated) + ".labels", "--output", str(tmp_path / "report.json")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fit.json: ")
        assert re.search(message, err), err
        assert not (tmp_path / "report.json").exists()


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert run(["generate", "--n", "5", "--bogus", "1"]) == 2

    def test_missing_required(self):
        assert run(["fit"]) == 2


class TestAtomicWrite:
    GENERATE = ["generate", "--n", "20", "--k", "2", "--pin", "0.3", "--pout", "0.05",
                "--seed", "1", "--output"]

    def test_stale_tmp_directory_does_not_block_output(self, tmp_path):
        out = tmp_path / "g.txt"
        (tmp_path / "g.txt.tmp").mkdir()
        assert run(self.GENERATE + [str(out)]) == 0
        assert out.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "g.txt.labels", "g.txt.tmp"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "taken").mkdir()
        assert run(self.GENERATE + [str(tmp_path / "taken")]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


class TestStartup:
    def test_commands_do_not_load_scipy_special(self, tmp_path):
        # no fit reads scipy.special, and none needs scipy.sparse.linalg,
        # whose import costs resident memory; a masked f2ab fit and a cicl
        # sweep run in the subprocess before the modules are checked
        import blockbp

        src = os.path.dirname(os.path.dirname(blockbp.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "\n".join([
            "import os, sys",
            "from blockbp import cli",
            "os.chdir(sys.argv[1])",
            "for argv in (",
            "    'generate --n 60 --k 2 --pin 0.3 --pout 0.03 --seed 1 --output g.txt',",
            "    'fit --input g.txt --k-max 4 --seed 1 --mask-fraction 0.05 --output fit.json',",
            "    'sweep --input g.txt --method cicl --sweep 1:3 --seed 1 --output table.csv',",
            "):",
            "    if cli.main(argv.split()):",
            "        sys.exit(f'failed: {argv}')",
            "loaded = [m for m in ('scipy.special', 'scipy.sparse.linalg') if m in sys.modules]",
            "sys.exit(', '.join(loaded) or None)",
        ])
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
