import argparse
import csv
import hashlib
import json
import math
import re
import warnings

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbarrier import approx, cli, ingest, mc
from magicbarrier.cli import build_parser, main

from conftest import make_tensor_csv, synthetic_study_tensor
from oracles import ks_per_slice


@pytest.fixture
def tensor_file(tmp_path):
    path = tmp_path / "tensor.csv"
    path.write_text(synthetic_study_tensor(seed=123, users=40, items=5), encoding="utf-8")
    return path


@pytest.fixture
def pairs_file(tmp_path, tensor_file):
    path = tmp_path / "pairs.json"
    assert main(["ingest", str(tensor_file), "--out", str(path)]) == 0
    return path


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestIngest:
    def test_summary_fields(self, pairs_file):
        doc = read_json(pairs_file)
        summary = doc["summary"]
        assert summary["pair_count"] == 200
        assert 0 < summary["nonvanishing_count"] <= 200
        assert summary["ks"]["rejected"] == 0
        assert summary["exponential_rate"] > 0
        for fraction in summary["per_item_nonzero_fraction"].values():
            assert 0.0 <= fraction <= 1.0
        assert doc["config"]["scale_max"] == 5
        assert doc["tool"]["name"] == "magicbarrier"

    def test_parse_error_exit_code_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user,item,trial,rating\nu1,i1,1,7\n", encoding="utf-8")
        assert main(["ingest", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_all_constant_tensor_warns_but_succeeds(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text(
            make_tensor_csv({("u1", "i1"): [3, 3, 3, 3, 3]}), encoding="utf-8"
        )
        out = tmp_path / "pairs.json"
        assert main(["ingest", str(path), "--out", str(out)]) == 0
        assert "constant" in capsys.readouterr().err
        doc = read_json(out)
        assert doc["summary"]["nonvanishing_count"] == 0
        assert doc["summary"]["exponential_rate"] is None

    def test_missing_file(self, capsys):
        assert main(["ingest", "/nonexistent/tensor.csv"]) == 2

    def test_one_group_by_per_ingest(self, tmp_path, tensor_file, monkeypatch):
        # the fit and the KS pass share one sort of the tensor by pair
        calls = []
        group = ingest.RatingTensor._ratings_by_pair

        def counted(tensor):
            calls.append(tensor)
            return group(tensor)

        monkeypatch.setattr(ingest.RatingTensor, "_ratings_by_pair", counted)
        assert main(["ingest", str(tensor_file), "--out", str(tmp_path / "p.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "records, pairs",
        [
            ("", []),
            (
                "u1,i1,1,3\nu1,i1,2,3\nu2,i1,1,4\n",
                [
                    {"item": "i1", "mean": 3.0, "user": "u1", "variance": 0.0},
                    {"item": "i1", "mean": 4.0, "user": "u2", "variance": 0.0},
                ],
            ),
        ],
        ids=["empty", "all-constant"],
    )
    def test_pairs_of_a_tensor_without_variance(self, tmp_path, records, pairs):
        path = tmp_path / "tensor.csv"
        path.write_text("user,item,trial,rating\n" + records, encoding="utf-8")
        out = tmp_path / "pairs.json"
        assert main(["ingest", str(path), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert doc["pairs"] == pairs
        assert doc["summary"]["ks"]["tested"] == 0
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_fast_path_ingest_matches_the_per_line_parser(self, tmp_path, monkeypatch):
        # shuffled records of slices of 1 to 5 ratings, so that pairs straddle
        # the block parser's chunk boundaries and the KS pass sees blocks of
        # several lengths
        rng = np.random.default_rng(29)
        header, *records = synthetic_study_tensor(seed=7, users=800, items=5).splitlines()
        kept = [records[k] for k in rng.permutation(len(records)) if rng.random() < 0.8]
        text = "\n".join([header, *kept]) + "\n"
        assert len(text) > 2 * ingest._FAST_CHUNK
        path = tmp_path / "tensor.csv"
        path.write_text(text, encoding="utf-8")

        def ingest_bytes(name):
            out = tmp_path / name
            assert main(["ingest", str(path), "--alpha", "0.5", "--out", str(out)]) == 0
            return out.read_bytes()

        blocks = ingest._parse_blocks
        parsed = []

        def spied(source, scale):
            parsed.append(blocks(source, scale))
            return parsed[-1]

        monkeypatch.setattr(ingest, "_parse_blocks", spied)
        fast = ingest_bytes("fast.json")
        assert len(parsed) == 1 and parsed[0] is not None
        monkeypatch.setattr(ingest, "_parse_blocks", lambda source, scale: None)
        assert ingest_bytes("lines.json") == fast

        doc = json.loads(fast)
        tensor = parsed[0]
        tested = rejected = 0
        for ratings, pair in zip(tensor.pair_slices(), doc["pairs"]):
            if pair["variance"] > 0.0:
                _, p = ks_per_slice(ratings, pair["mean"], math.sqrt(pair["variance"]))
                tested += 1
                rejected += p < 0.5
        assert {len(s) for s in tensor.pair_slices()} == {1, 2, 3, 4, 5}
        assert 0 < rejected < tested
        assert doc["summary"]["ks"] == {"alpha": 0.5, "tested": tested, "rejected": rejected}


class TestEstimate:
    def test_barrier_output(self, tmp_path, pairs_file):
        out = tmp_path / "barrier.json"
        assert main(["estimate", str(pairs_file), "--out", str(out)]) == 0
        doc = read_json(out)
        assert 0.4 < doc["mean"] < 1.2
        assert doc["variance"] > 0
        assert doc["config"]["metric"] == "rmse"

    def test_degenerate_exit_code(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(
            json.dumps({"pairs": [{"user": "u", "item": "i", "mean": 3, "variance": 0}]}),
            encoding="utf-8",
        )
        assert main(["estimate", str(pairs)]) == 3

    def test_out_in_missing_directory_is_data_error(
        self, tmp_path, pairs_file, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("estimated before the output path was checked")

        monkeypatch.setattr(approx, "magic_barrier_rmse", refuse)
        out = tmp_path / "missing" / "barrier.json"
        assert main(["estimate", str(pairs_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(out) in err
        assert not out.parent.exists()

    def test_out_is_directory_is_data_error(self, tmp_path, pairs_file, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("estimated before the output path was checked")

        monkeypatch.setattr(approx, "magic_barrier_rmse", refuse)
        assert main(["estimate", str(pairs_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: cannot write {tmp_path}: it is a directory\n"

    def test_failed_write_is_data_error(self, tmp_path, pairs_file, capsys, monkeypatch):
        out = tmp_path / "barrier.json"
        estimate = approx.magic_barrier_rmse

        def then_block_the_path(*args, **kwargs):
            out.mkdir()
            return estimate(*args, **kwargs)

        monkeypatch.setattr(approx, "magic_barrier_rmse", then_block_the_path)
        assert main(["estimate", str(pairs_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {out}: ") and "Traceback" not in err

    def test_small_n_warning(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(
            json.dumps(
                {
                    "pairs": [
                        {"user": f"u{i}", "item": "i", "mean": 3, "variance": 0.5}
                        for i in range(10)
                    ]
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "b.json"
        assert main(["estimate", str(pairs), "--out", str(out)]) == 0
        assert "10 pairs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            5,
            ["pairs"],
            {
                "scale": {"min_category": 1, "max_category": 5},
                "pairs": [{"user": "u", "item": "i", "mean": 3, "variance": 0.5}],
            },
        ],
        ids=["number", "list", "scale-field-missing"],
    )
    def test_malformed_json_is_data_error(self, tmp_path, capsys, doc):
        pairs = tmp_path / "odd.json"
        pairs.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["estimate", str(pairs)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "odd.json" in err

    def test_duplicate_pair_is_data_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        entries = [
            {"user": user, "item": "i", "mean": 3, "variance": 0.5}
            for user in ("u1", "u2", "u1")
        ]
        pairs.write_text(json.dumps({"pairs": entries}), encoding="utf-8")
        assert main(["estimate", str(pairs)]) == 2
        err = capsys.readouterr().err
        assert "pairs.json" in err and "duplicate pair ('u1', 'i')" in err


class TestSimulate:
    def test_agrees_with_estimate(self, tmp_path, pairs_file):
        barrier = tmp_path / "barrier.json"
        sample = tmp_path / "sample.json"
        assert main(["estimate", str(pairs_file), "--out", str(barrier)]) == 0
        assert main(
            ["simulate", str(pairs_file), "--tau", "20000", "--seed", "5", "--out", str(sample)]
        ) == 0
        est = read_json(barrier)
        sim = read_json(sample)
        se = math.sqrt(est["variance"] / 20000)
        # allow the first-order truncation shift (variance / 2 mean, the
        # second-order series term) on top of MC noise
        assert abs(sim["mean"] - est["mean"]) < 3 * se + est["variance"] / (
            2 * est["mean"]
        )
        mass = np.sum(
            np.asarray(sim["histogram"]["heights"])
            * np.diff(np.asarray(sim["histogram"]["edges"]))
        )
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path, pairs_file):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["simulate", str(pairs_file), "--tau", "2000", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_values_dump(self, tmp_path, pairs_file):
        sample = tmp_path / "sample.json"
        raw = tmp_path / "values.f64"
        assert main(
            [
                "simulate", str(pairs_file),
                "--tau", "500", "--seed", "1",
                "--out", str(sample), "--values-out", str(raw),
            ]
        ) == 0
        values = np.fromfile(raw, dtype="<f8")
        doc = read_json(sample)
        assert values.size == 500
        assert values.mean() == pytest.approx(doc["mean"], rel=1e-12)
        assert doc["values_path"] == str(raw)

    def test_values_out_in_missing_directory_is_data_error(
        self, tmp_path, pairs_file, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the output path was checked")

        monkeypatch.setattr(mc, "simulate_metric", refuse)
        raw = tmp_path / "missing" / "values.f64"
        assert main(["simulate", str(pairs_file), "--tau", "10", "--values-out", str(raw)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(raw) in err
        assert not raw.parent.exists()

    def test_values_out_is_directory_is_data_error(
        self, tmp_path, pairs_file, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the output path was checked")

        monkeypatch.setattr(mc, "simulate_metric", refuse)
        assert main(
            ["simulate", str(pairs_file), "--tau", "10", "--values-out", str(tmp_path)]
        ) == 2
        err = capsys.readouterr().err
        assert err == f"data error: cannot write {tmp_path}: it is a directory\n"

    def test_failed_values_write_is_data_error(
        self, tmp_path, pairs_file, capsys, monkeypatch
    ):
        raw = tmp_path / "values.f64"
        simulate = mc.simulate_metric

        def then_block_the_path(*args, **kwargs):
            raw.mkdir()
            return simulate(*args, **kwargs)

        monkeypatch.setattr(mc, "simulate_metric", then_block_the_path)
        assert main(
            ["simulate", str(pairs_file), "--tau", "10", "--values-out", str(raw)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {raw}: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags", [[], ["--metric", "mae", "--clip", "--workers", "2"]], ids=["rmse", "mae-clip"]
    )
    def test_means_as_predictors_match_the_optimal_system(
        self, tmp_path, pairs_file, flags
    ):
        doc = read_json(pairs_file)
        means = tmp_path / "means.csv"
        means.write_text(
            "user,item,prediction\n"
            + "".join(
                f"{p['user']},{p['item']},{p['mean']!r}\n"
                for p in doc["pairs"]
                if p["variance"] > 0
            ),
            encoding="utf-8",
        )
        outputs = []
        for predictors in ([], ["--predictors", str(means)]):
            out = tmp_path / "sample.json"
            assert main(
                ["simulate", str(pairs_file), "--tau", "3000", "--seed", "4",
                 *flags, *predictors, "--out", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        optimal, from_file = outputs
        assert from_file != optimal
        assert from_file.replace(json.dumps(str(means)).encode(), b'"optimal"') == optimal

    def test_explicit_predictors(self, tmp_path, pairs_file):
        doc = read_json(pairs_file)
        usable = [p for p in doc["pairs"] if p["variance"] > 0]
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "user,item,prediction\n"
            + "".join(f"{p['user']},{p['item']},{p['mean'] + 0.5}\n" for p in usable),
            encoding="utf-8",
        )
        out = tmp_path / "sample.json"
        assert main(
            [
                "simulate", str(pairs_file),
                "--predictors", str(pred),
                "--tau", "5000", "--seed", "2", "--out", str(out),
            ]
        ) == 0
        biased = read_json(out)
        barrier = tmp_path / "barrier.json"
        assert main(["estimate", str(pairs_file), "--out", str(barrier)]) == 0
        assert biased["mean"] > read_json(barrier)["mean"]

    def test_missing_prediction_is_data_error(self, tmp_path, pairs_file, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("user,item,prediction\nu0,i0,3.0\n", encoding="utf-8")
        assert main(
            ["simulate", str(pairs_file), "--predictors", str(pred), "--tau", "10"]
        ) == 2

    def test_quoted_ids_in_predictions(self, tmp_path, pairs_file):
        doc = read_json(pairs_file)
        usable = [p for p in doc["pairs"] if p["variance"] > 0]
        outputs = []
        for name, quote in (("plain", ""), ("quoted", '"')):
            pred = tmp_path / f"{name}.csv"
            pred.write_text(
                '"user","item","prediction"\n'
                + "".join(
                    f"{quote}{p['user']}{quote},{quote}{p['item']}{quote},{p['mean']}\n"
                    for p in usable
                ),
                encoding="utf-8",
            )
            out = tmp_path / f"{name}.json"
            assert main(
                ["simulate", str(pairs_file), "--predictors", str(pred),
                 "--tau", "300", "--seed", "2", "--out", str(out)]
            ) == 0
            outputs.append(read_json(out))
        assert outputs[0]["mean"] == outputs[1]["mean"]
        assert outputs[0]["histogram"] == outputs[1]["histogram"]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("user,item\n", "line 1: expected header"),
            ("user,item,prediction\nu0,i0\n", "line 2: expected 3 fields"),
            ("user,item,prediction\n\nu0,i0,x\n", "line 3: prediction must be a number"),
            ('user,item,prediction\nu0,i0,3\n"u0",i0,4\n', "line 3: duplicate pair"),
            (
                "user,item,prediction\nu0,i0,3\n"
                + "u" * (csv.field_size_limit() + 1)
                + ",i0,4\n",
                "line 3: field larger than field limit",
            ),
            ("", "line 1: missing header row"),
            ('user,item,prediction\n"u0\nx",i0,3\nu1,i0,y\n', "line 4: prediction must be"),
            ("user,item,prediction\nu0,i0,3\nu1,i0,nan\n", "line 3: prediction must be finite"),
            ("user,item,prediction\nu0,i0,inf\n", "line 2: prediction must be finite"),
            ("user,item,prediction\nu0,i0,-Infinity\n", "line 2: prediction must be finite"),
            ('user,item,prediction\nu0,i0,3\n"u1,i0,4\n', "line 3: quoted field not closed"),
        ],
        ids=["header", "fields", "number", "duplicate", "overlong-id", "empty",
             "two-line-id", "nan", "inf", "minus-infinity", "unterminated-quote"],
    )
    def test_predictions_errors_name_the_line(
        self, tmp_path, pairs_file, capsys, body, message
    ):
        pred = tmp_path / "pred.csv"
        pred.write_text(body, encoding="utf-8")
        assert main(
            ["simulate", str(pairs_file), "--predictors", str(pred), "--tau", "10"]
        ) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--workers", "-3"],
            ["--seed", "-1"],
            ["--seed", str(2**64)],
            ["--tau", "0"],
            ["ingest", "--alpha", "7"],
            ["ingest", "--alpha", "nan"],
            ["transfer", "--rate", "0"],
            ["transfer", "--rate", "nan"],
            ["transfer", "--bounds", "1,0"],
            ["transfer", "--bounds=-2,-1"],
            ["transfer", "--competitor-mean", "nan"],
            ["rankcurves", "--noise-scale", "nan"],
            ["rankcurves", "--deltas", "inf"],
            ["sensitivity", "--axis", "variance", "--grid", "0.5", "--fixed", "inf"],
            ["sensitivity", "--axis", "n", "--grid", "inf", "--fixed", "0.5"],
        ],
        ids=[
            "workers-0", "workers-neg", "seed-neg", "seed-2^64", "tau-0",
            "ingest-alpha-7", "ingest-alpha-nan", "transfer-rate-0", "transfer-rate-nan",
            "transfer-bounds-reversed", "transfer-bounds-massless",
            "transfer-competitor-nan", "rankcurves-noise-nan", "rankcurves-delta-inf",
            "sensitivity-fixed-inf", "sensitivity-grid-inf",
        ],
    )
    def test_mc_flags_out_of_range_are_usage_errors(
        self, tmp_path, pairs_file, tensor_file, capsys, flags
    ):
        constant = tmp_path / "constant.csv"
        constant.write_text(make_tensor_csv({("u", "i"): [3] * 5}), encoding="utf-8")
        variances = tmp_path / "variances.csv"
        variances.write_text("variance\n0.5\n", encoding="utf-8")
        commands = {
            # an all-constant tensor runs no KS test, so alpha is checked up front
            "ingest": [["ingest", str(tensor_file)], ["ingest", str(constant)]],
            "transfer": [["transfer", "--count", "10"]],
            "rankcurves": [["rankcurves", "--variances", str(variances),
                            "--deltas", "0.1", "--offsets", "0.0"]],
            "sensitivity": [["sensitivity"]],
        }
        if flags[0] in commands:
            argvs = commands[flags[0]]
            flags = flags[1:]
        else:
            argvs = [
                ["simulate", str(pairs_file), "--tau", "10"],
                ["rank", str(pairs_file), "--predictors", "x.csv", "--tau", "10"],
            ]
            if flags[0] == "--seed":
                # transfer draws its variances from a seed with the same bounds
                argvs.append(["transfer", "--count", "10"])
        for argv in argvs:
            assert main([*argv, *flags]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and "Traceback" not in err

    def test_clip_flag_changes_draws(self, tmp_path, pairs_file):
        free = tmp_path / "free.json"
        clipped = tmp_path / "clipped.json"
        base = ["simulate", str(pairs_file), "--tau", "4000", "--seed", "6"]
        assert main(base + ["--out", str(free)]) == 0
        assert main(base + ["--clip", "--out", str(clipped)]) == 0
        assert read_json(clipped)["config"]["clip"] is True
        assert read_json(clipped)["mean"] != read_json(free)["mean"]

    def test_bins_belongs_to_simulate_only(self, tmp_path, pairs_file, capsys):
        out = tmp_path / "sample.json"
        assert main(
            ["simulate", str(pairs_file), "--tau", "100", "--bins", "7", "--out", str(out)]
        ) == 0
        assert read_json(out)["config"]["bins"] == 7
        assert len(read_json(out)["histogram"]["heights"]) == 7
        # rank emits orderings, not a histogram, so it has no --bins to ignore
        assert main(
            ["rank", str(pairs_file), "--predictors", "x.csv", "--tau", "100", "--bins", "7"]
        ) == 1
        assert "usage error" in capsys.readouterr().err


class TestCompare:
    def test_estimate_vs_simulation_report(self, tmp_path, pairs_file):
        barrier = tmp_path / "barrier.json"
        sample = tmp_path / "sample.json"
        report = tmp_path / "report.json"
        assert main(["estimate", str(pairs_file), "--out", str(barrier)]) == 0
        assert main(
            ["simulate", str(pairs_file), "--tau", "20000", "--seed", "3", "--out", str(sample)]
        ) == 0
        assert main(["compare", str(barrier), str(sample), "--out", str(report)]) == 0
        doc = read_json(report)
        assert 0.3 < doc["interference_probability"] < 0.7
        assert doc["verdict"] == "differentiated analysis needed"
        assert doc["jsd"] is not None and doc["jsd"] < 0.10

    def test_plain_gaussian_pair(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"mean": 0.70, "variance": 0.0009}), encoding="utf-8")
        b.write_text(json.dumps({"mean": 0.76, "variance": 0.0016}), encoding="utf-8")
        report = tmp_path / "r.json"
        assert main(["compare", str(a), str(b), "--out", str(report)]) == 0
        doc = read_json(report)
        assert doc["interference_probability"] == pytest.approx(0.11507, abs=1e-5)
        assert doc["jsd"] is None

    @pytest.mark.parametrize(
        "hist",
        [{"heights": [5.0, 5.0]}, {"edges": [0.6, 0.7, 0.8]},
         {"edges": [0.6, math.nan, 0.8], "heights": [5.0, 5.0]}],
        ids=["no-edges", "no-heights", "nan-edge"],
    )
    def test_malformed_histogram_is_data_error(self, tmp_path, capsys, hist):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"mean": 0.7, "variance": 0.001}), encoding="utf-8")
        b = tmp_path / "b.json"
        b.write_text(
            json.dumps({"mean": 0.7, "variance": 0.001, "histogram": hist}),
            encoding="utf-8",
        )
        assert main(["compare", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "b.json" in err

    def test_identical_inputs(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"mean": 0.7, "variance": 0.001}), encoding="utf-8")
        report = tmp_path / "r.json"
        assert main(["compare", str(a), str(a), "--out", str(report)]) == 0
        doc = read_json(report)
        assert doc["interference_probability"] == 0.5
        assert doc["verdict"] == "differentiated analysis needed"


class TestSensitivity:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            [
                "sensitivity", "--axis", "n",
                "--grid", "50,100,200", "--fixed", "3.84",
                "--format", "csv", "--out", str(out),
            ]
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        header_rows = [l for l in lines if l.startswith("#")]
        assert any("command=sensitivity" in l for l in header_rows)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("axis_value,")
        assert len(data) == 4

    def test_json_output_matches_formula(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(
            [
                "sensitivity", "--axis", "variance",
                "--grid", "0.5,1.0", "--fixed", "200", "--out", str(out),
            ]
        ) == 0
        rows = read_json(out)["rows"]
        assert rows[0]["variance"] == pytest.approx(0.5 / 400)
        assert rows[1]["variance"] == pytest.approx(1.0 / 400)

    def test_bad_grid_is_usage_error(self, capsys):
        assert main(
            ["sensitivity", "--axis", "n", "--grid", "abc", "--fixed", "1.0"]
        ) == 1

    @pytest.mark.parametrize(
        "argv",
        [["--axis", "n", "--grid", "4e6,1e308", "--fixed", "0.5"],
         ["--axis", "variance", "--grid", "0.5", "--fixed", "1.7976931348623157e308"]],
        ids=["grid", "fixed"],
    )
    def test_huge_pair_count_answers(self, tmp_path, capsys, argv):
        out = tmp_path / "sweep.json"
        assert main(["sensitivity", *argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = read_json(out)["rows"]
        assert rows[-1]["mean"] == math.sqrt(0.5)
        assert 0.0 <= rows[-1]["variance"] < 1e-300


class TestRankCurves:
    def test_delta_zero_row(self, tmp_path):
        variances = tmp_path / "variances.csv"
        variances.write_text("variance\n" + "0.5\n" * 30, encoding="utf-8")
        out = tmp_path / "curves.json"
        assert main(
            [
                "rankcurves", "--variances", str(variances),
                "--deltas", "0.0,0.1", "--offsets", "0.0,0.5,1.0",
                "--out", str(out),
            ]
        ) == 0
        rows = read_json(out)["rows"]
        zero_delta = [r for r in rows if r["delta"] == 0.0]
        assert len(zero_delta) == 3
        assert all(r["error_probability"] == 0.5 for r in zero_delta)
        curve = [r["error_probability"] for r in rows if r["delta"] == 0.1]
        assert all(a > b for a, b in zip(curve, curve[1:]))

    def test_no_seed_flag(self, tmp_path, capsys):
        # the curves are closed-form and draw nothing, so no seed is echoed
        variances = tmp_path / "variances.csv"
        variances.write_text("variance\n0.5\n0.7\n", encoding="utf-8")
        out = tmp_path / "curves.json"
        argv = ["rankcurves", "--variances", str(variances),
                "--deltas", "0.1", "--offsets", "0.0"]
        assert main([*argv, "--out", str(out)]) == 0
        assert "seed" not in read_json(out)["config"]
        assert main([*argv, "--seed", "99"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path, pairs_file):
        assert main(["rankcurves", "--deltas", "0.1", "--offsets", "0.0"]) == 1
        variances = tmp_path / "v.csv"
        variances.write_text("variance\n0.5\n", encoding="utf-8")
        assert main(
            [
                "rankcurves", "--variances", str(variances), "--pairs", str(pairs_file),
                "--deltas", "0.1", "--offsets", "0.0",
            ]
        ) == 1


class TestRank:
    def test_two_systems(self, tmp_path, pairs_file):
        doc = read_json(pairs_file)
        usable = [p for p in doc["pairs"] if p["variance"] > 0]
        optimal = tmp_path / "optimal.csv"
        optimal.write_text(
            "user,item,prediction\n"
            + "".join(f"{p['user']},{p['item']},{p['mean']}\n" for p in usable),
            encoding="utf-8",
        )
        shifted = tmp_path / "shifted.csv"
        shifted.write_text(
            "user,item,prediction\n"
            + "".join(f"{p['user']},{p['item']},{p['mean'] + 1.0}\n" for p in usable),
            encoding="utf-8",
        )
        out = tmp_path / "rank.json"
        assert main(
            [
                "rank", str(pairs_file),
                "--predictors", str(optimal), str(shifted),
                "--tau", "4000", "--seed", "11", "--out", str(out),
            ]
        ) == 0
        orderings = read_json(out)["orderings"]
        assert sum(orderings.values()) == pytest.approx(1.0, abs=1e-12)
        assert orderings.get("optimal>shifted", 0) > 0.99

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_prediction_is_data_error(self, tmp_path, pairs_file, capsys, bad):
        doc = read_json(pairs_file)
        usable = [p for p in doc["pairs"] if p["variance"] > 0]
        good = tmp_path / "good.csv"
        good.write_text(
            "user,item,prediction\n"
            + "".join(f"{p['user']},{p['item']},{p['mean']}\n" for p in usable),
            encoding="utf-8",
        )
        broken = tmp_path / "broken.csv"
        broken.write_text(
            "user,item,prediction\n"
            + "".join(
                f"{p['user']},{p['item']},{bad if k == 3 else p['mean']}\n"
                for k, p in enumerate(usable)
            ),
            encoding="utf-8",
        )
        assert main(
            ["rank", str(pairs_file), "--predictors", str(good), str(broken), "--tau", "100"]
        ) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {broken}: line 5: prediction must be finite\n"

    def test_duplicate_labels_refused(self, tmp_path, pairs_file, capsys):
        doc = read_json(pairs_file)
        usable = [p for p in doc["pairs"] if p["variance"] > 0]
        paths = []
        for folder, shift in (("a", 0.0), ("b", 0.1)):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "sys.csv"
            path.write_text(
                "user,item,prediction\n"
                + "".join(f"{p['user']},{p['item']},{p['mean'] + shift}\n" for p in usable),
                encoding="utf-8",
            )
            paths.append(str(path))
        assert main(["rank", str(pairs_file), "--predictors", *paths, "--tau", "100"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "'sys'" in err


class TestCsvInputs:
    """The tensor, predictions and variance files share one record reader."""

    LONG = "u" * 140_000  # over csv.field_size_limit()

    @pytest.mark.parametrize("kind", ["tensor", "predictions", "variances"])
    def test_overlong_field_is_data_error_with_line(
        self, tmp_path, pairs_file, capsys, kind
    ):
        path = tmp_path / f"{kind}.csv"
        header, record, argv = {
            "tensor": ("user,item,trial,rating", f"{self.LONG},i,1,3", ["ingest", str(path)]),
            "predictions": (
                "user,item,prediction", f"{self.LONG},i0,4",
                ["simulate", str(pairs_file), "--predictors", str(path), "--tau", "10"],
            ),
            "variances": (
                "variance", self.LONG,
                ["rankcurves", "--variances", str(path), "--deltas", "0.1", "--offsets", "0"],
            ),
        }[kind]
        path.write_text(f"{header}\n{record}\n", encoding="utf-8")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err
        assert "line 2: field larger than field limit" in err


# rows of one key set, each column all str or all finite float, with
# non-ASCII text, subnormals, signed zeros and extreme magnitudes
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _rows(draw):
    names = draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from([_TEXT, _FLOAT])) for _ in names]
    count = draw(st.integers(1, 6))
    return [{name: draw(kind) for name, kind in zip(names, kinds)} for _ in range(count)]


class TestJsonWriter:
    """The column-wise row writer reproduces json.dumps(indent=2, sort_keys=True);
    every other value goes through json.dumps itself."""

    @staticmethod
    def reference(value):
        # a top-level value of the emitted document sits one level deep
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")

    @staticmethod
    def columns(rows):
        return {name: [row[name] for row in rows] for name in rows[0]}

    @given(rows=_rows())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_json_dumps(self, rows):
        assert cli._columns_json(self.columns(rows)) == self.reference(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [{}],
            [{"a": 1.0}, {"b": 1.0}],
            [{"a": 1.0}, {"a": "x"}],
            [{"a": math.nan}],
            [{"a": math.inf}],
            [{"a": 1}],
            [{"a": True}],
            [{"a": None}],
            [{"a": [1.0]}],
            [{1: 1.0}],
        ],
        ids=["empty", "empty-row", "keys-differ", "mixed-column", "nan", "inf",
             "int", "bool", "null", "nested", "int-key"],
    )
    def test_other_values_take_json_dumps(self, rows):
        assert cli._json_value(rows) == self.reference(rows)

    @pytest.mark.parametrize(
        "column",
        [[1.0, "x"], [math.nan], [1.0, math.inf], [1], [True], [None], [[1.0]]],
        ids=["mixed", "nan", "inf", "int", "bool", "null", "nested"],
    )
    def test_other_columns_refused(self, column):
        assert cli._columns_json({"a": ["x"] * len(column), "b": column}) is None

    def test_percent_in_keys_and_values(self):
        rows = [{"%s": "%d", "a%%": 1.5}, {"%s": "%", "a%%": -0.0}]
        assert cli._columns_json(self.columns(rows)) == self.reference(rows)


class TestGoldenDigests:
    """SHA-256 of outputs at a fixed small input and seed.

    A change of these digests is a change of output bits: make it on purpose,
    update the digest and record why. The tool version is blanked so that a
    release alone does not move them. The digests hold for the numpy and
    scipy versions the suite is pinned against (numpy 2.4, scipy 1.17).
    """

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths keep the echoed config fixed
        pairs = [
            {
                "user": f"u{k}",
                "item": f"i{k % 3}",
                "mean": 1.5 + 0.125 * k,
                "variance": 0.0625 * (k % 7) + 0.25 * (k % 2),
            }
            for k in range(23)
        ]
        scale = {"min_category": 1, "max_category": 5, "num_trials": 5}
        Path("pairs.json").write_text(
            json.dumps({"scale": scale, "pairs": pairs}), encoding="utf-8"
        )
        # 15 slices of 1 to 12 ratings, written trial-major so that records of
        # different pairs interleave; slice 3 is constant
        lengths = [1 + (5 * k) % 12 for k in range(15)]
        lines = ["user,item,trial,rating"]
        for t in range(12):
            lines.extend(
                f"u{k % 5},i{k // 5},{(5 * t) % 12 + 1},"
                f"{4 if k == 3 else 1 + (7 * k + 3 * t * t + t) % 5}"
                for k in range(15)
                if t < lengths[k]
            )
        Path("tensor.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        for name, shift in (("best", 0.0), ("near", 0.0625), ("far", -0.25)):
            Path(f"{name}.csv").write_text(
                "user,item,prediction\n"
                + "".join(f"{p['user']},{p['item']},{p['mean'] + shift}\n" for p in pairs),
                encoding="utf-8",
            )

    @staticmethod
    def digest(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        doc["tool"]["version"] = "*"
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["simulate", "pairs.json", "--tau", "3000", "--seed", "17"],
                "4ff82957b866326154a7d7ebbcdfb87390f5d5e3c21daa167a570467045cf43e",
            ),
            (
                ["simulate", "pairs.json", "--tau", "3000", "--seed", "17",
                 "--metric", "mae", "--predictors", "near.csv", "--clip",
                 "--workers", "2"],
                "e62bf062b2ec8e16b0d54e507115f95d2a8f223e97ffadb00d0b5ef206dd5020",
            ),
            (
                ["simulate", "pairs.json", "--predictors", "far.csv", "--tau", "3000",
                 "--seed", "17"],
                "e9982b24dffc4be4864531aa27847740c838a8f135fad2bc9ab4600ce4fdda6c",
            ),
            (
                ["rank", "pairs.json", "--predictors", "best.csv", "near.csv",
                 "far.csv", "--tau", "3000", "--seed", "5", "--workers", "2"],
                "a705f7d0bbe2fddd2aa9b4c6396a4324bb8c977d71939c98f8637d954af2d1d7",
            ),
            (
                ["estimate", "pairs.json"],
                "747ee64f38723a0bcbaf1787d9849214b2003514a0ab74eb4a1061688350e4d4",
            ),
            (
                ["estimate", "pairs.json", "--metric", "mae"],
                "85122d8f7c02c27bff77b39622009916e07d524e58ff8d6e3b6456b2c58023e5",
            ),
            (
                ["transfer", "--count", "5000", "--seed", "3", "--bounds", "0.16,3.84"],
                "a3e041875c1a25b6181b11ebef1116e053a375a2a3cf9df58f8b174e404f1bab",
            ),
            (
                ["sensitivity", "--axis", "n", "--grid", "1,7,50,333", "--fixed", "0.7"],
                "f326220429dd38c119321c68d56da67335c3ca6ec0279a2fe1f7fe6f72c7cacf",
            ),
            (
                ["rankcurves", "--pairs", "pairs.json", "--deltas", "0.0,0.05,0.1",
                 "--offsets", "0.0,0.25,0.5"],
                "7fa84a971d85aa0383a9f52e5cc47a5fea54ec3f31a82ee0c930fd89e6d95f10",
            ),
            (
                ["ingest", "tensor.csv", "--trials", "12"],
                "5375eb8bb4c7680205d15e870b8186a7d60d7fd872a5d70b4023c468cfd0216e",
            ),
        ],
        ids=[
            "simulate", "simulate-mae-clip", "simulate-far", "rank", "estimate-rmse", "estimate-mae",
            "transfer", "sensitivity", "rankcurves", "ingest",
        ],
    )
    def test_output_digest(self, inputs, argv, expected):
        assert main([*argv, "--out", "out.json"]) == 0
        assert self.digest("out.json") == expected

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["sensitivity", "--axis", "n", "--grid", "1,7,50,333", "--fixed", "0.7"],
                "0ace1dde7e4b05455554c1ef3b6a2345a8e9876f653613fefc7c98e23a22ed86",
            ),
            (
                ["rankcurves", "--pairs", "pairs.json", "--deltas", "0.0,0.05,0.1",
                 "--offsets", "0.0,0.25,0.5"],
                "b1e1eba7e48d5eb69ea555cd9926dfabf43a97981acffc2fa78f8f85293965e7",
            ),
        ],
        ids=["sensitivity", "rankcurves"],
    )
    def test_csv_digest(self, inputs, argv, expected):
        assert main([*argv, "--format", "csv", "--out", "out.csv"]) == 0
        text = Path("out.csv").read_text(encoding="utf-8")
        text, blanked = re.subn(
            r"\A# tool=magicbarrier version=.*$", "# tool=magicbarrier version=*",
            text, flags=re.M,
        )
        assert blanked == 1
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected

    def test_compare_digest(self, inputs):
        assert main(["estimate", "pairs.json", "--out", "barrier.json"]) == 0
        assert main(["simulate", "pairs.json", "--tau", "3000", "--seed", "17",
                     "--out", "mc.json"]) == 0
        assert main(["compare", "barrier.json", "mc.json", "--out", "out.json"]) == 0
        expected = "1b3335eeef20c24389fe98d1f877cd9a0ea12a7eae2c4e5b2fdd85f6a630cc6c"
        assert self.digest("out.json") == expected


class TestTransfer:
    def test_small_scale_run(self, tmp_path):
        out = tmp_path / "transfer.json"
        assert main(
            ["transfer", "--count", "200000", "--seed", "3", "--out", str(out)]
        ) == 0
        doc = read_json(out)
        assert 0.66 < doc["barrier"]["mean"] < 0.70
        assert doc["analytic_barrier_mean"] == pytest.approx(math.sqrt(1 / 2.11))
        assert doc["verdict"] == "improvable"
        assert doc["simplified"]["gap"] > doc["simplified"]["threshold"]

    def test_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(
                ["transfer", "--count", "50000", "--seed", "4", "--out", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truncation_bounds(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(
            [
                "transfer", "--count", "50000", "--seed", "4",
                "--bounds", "0.16,3.84", "--out", str(out),
            ]
        ) == 0
        doc = read_json(out)
        # truncating away the mass below 0.16 raises the mean variance
        assert doc["sampled_variance_mean"] > 1 / 2.11

    @pytest.mark.parametrize(
        "bounds, low, high",
        [(None, 0.0, math.inf), ("2,3", 2.0, 3.0), ("-2,0.3", 0.0, 0.3),
         ("2,inf", 2.0, math.inf)],
        ids=["unbounded", "2-3", "negative-low", "open-high"],
    )
    def test_analytic_fields_follow_bounds(self, tmp_path, bounds, low, high):
        out = tmp_path / "t.json"
        argv = ["transfer", "--count", "5000", "--seed", "3", "--out", str(out)]
        assert main(argv + ([] if bounds is None else [f"--bounds={bounds}"])) == 0
        doc = read_json(out)
        mean = doc["analytic_variance_mean"]
        assert low < mean < high
        assert doc["analytic_barrier_mean"] == math.sqrt(mean)
        assert mean == pytest.approx(doc["sampled_variance_mean"], rel=0.05)
        if bounds is None:
            assert mean == 1.0 / 2.11

    @pytest.mark.parametrize("bounds", ["340,350", "50,60"], ids=["340-350", "50-60"])
    def test_far_window_succeeds(self, tmp_path, capsys, bounds):
        out = tmp_path / "t.json"
        assert main(
            ["transfer", "--count", "10", "--bounds", bounds, "--out", str(out)]
        ) == 0
        assert capsys.readouterr().err == ""
        low, high = map(float, bounds.split(","))
        doc = read_json(out)
        assert low <= doc["sampled_variance_mean"] <= high
        assert low < doc["analytic_variance_mean"] < high

    @pytest.mark.parametrize("rate", ["1e-310", "1e-300"])
    def test_tiny_rate_is_usage_error(self, tmp_path, capsys, rate):
        # 1e-310 overflows the draws themselves, 1e-300 their squares
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["transfer", "--count", "10", "--rate", rate,
                 "--out", str(tmp_path / "t.json")]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"--rate {float(rate)!r}" in err
        assert not (tmp_path / "t.json").exists()

    def test_tiny_rate_in_narrow_window_succeeds(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["transfer", "--count", "10", "--rate", "1e-310", "--bounds", "0,1",
                 "--out", str(out)]
            ) == 0
        assert capsys.readouterr().err == ""
        assert 0.0 < read_json(out)["sampled_variance_mean"] < 1.0


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    # every option string of every subcommand, and the defaults a minimal
    # command line resolves to: the wiring of shared flags must not add,
    # drop or change one
    OPTIONS = {
        "ingest": (
            ["x.csv"],
            "--alpha --out --scale-max --scale-min --trials tensor",
            {"tensor": "x.csv", "alpha": 0.05, "out": None,
             "scale_min": 1, "scale_max": 5, "trials": 5},
        ),
        "estimate": (
            ["p.json"],
            "--metric --out pairs",
            {"pairs": "p.json", "metric": "rmse", "out": None},
        ),
        "simulate": (
            ["p.json"],
            "--bins --clip --metric --out --predictors --seed --tau --values-out "
            "--workers pairs",
            {"pairs": "p.json", "predictors": None, "metric": "rmse", "tau": 100_000,
             "seed": 0, "workers": 1, "bins": None, "clip": False,
             "values_out": None, "out": None},
        ),
        "compare": (
            ["a.json", "b.json"],
            "--out barrier rmse",
            {"barrier": "a.json", "rmse": "b.json", "out": None},
        ),
        "sensitivity": (
            ["--axis", "n", "--grid", "1", "--fixed", "1"],
            "--axis --fixed --format --grid --out --scale-max --scale-min --trials",
            {"axis": "n", "grid": "1", "fixed": 1.0, "scale_min": 1, "scale_max": 5,
             "trials": 5, "format": "json", "out": None},
        ),
        "rankcurves": (
            ["--deltas", "0", "--offsets", "0"],
            "--deltas --format --noise-scale --offsets --out --pairs --variances",
            {"variances": None, "pairs": None, "deltas": "0", "offsets": "0",
             "noise_scale": 1.0, "format": "json", "out": None},
        ),
        "rank": (
            ["p.json", "--predictors", "a.csv"],
            "--metric --out --predictors --seed --tau --workers pairs",
            {"pairs": "p.json", "predictors": ["a.csv"], "metric": "rmse",
             "tau": 100_000, "seed": 0, "workers": 1, "out": None},
        ),
        "transfer": (
            [],
            "--bounds --competitor-mean --count --out --rate --seed",
            {"rate": 2.11, "count": 2_800_000, "bounds": None, "seed": 0,
             "competitor_mean": 0.8567, "out": None},
        ),
    }

    def test_option_strings_pinned(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OPTIONS)
        for command, (argv, options, defaults) in self.OPTIONS.items():
            found = {
                s
                for action in sub.choices[command]._actions
                for s in action.option_strings or [action.dest]
            }
            assert found == {"-h", "--help", *options.split()}, command
            resolved = vars(parser.parse_args([command, *argv]))
            assert resolved.pop("command") == command
            assert callable(resolved.pop("func"))
            assert resolved == defaults, command

    def test_missing_required_flag(self):
        assert main(["sensitivity", "--grid", "1,2"]) == 1
