import argparse
import csv
import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicbarrier import approx, cli, ingest, mc
from magicbarrier.cli import build_parser, main
from magicbarrier.core import PairTable

from conftest import make_tensor_csv, synthetic_tensor
from oracles import argsort_ordering_frequencies, ks_per_slice


@pytest.fixture
def tensor_file(tmp_path):
    path = tmp_path / "tensor.csv"
    path.write_text(synthetic_tensor(seed=123, users=40, items=5), encoding="utf-8")
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
        group = ingest.RatingTensor.__dict__["_grouped"].func

        def counted(tensor):
            calls.append(tensor)
            return group(tensor)

        grouped = functools.cached_property(counted)
        grouped.__set_name__(ingest.RatingTensor, "_grouped")
        monkeypatch.setattr(ingest.RatingTensor, "_grouped", grouped)
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
        header, *records = synthetic_tensor(seed=7, users=800, items=5).splitlines()
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

    @pytest.mark.parametrize(
        "variances, first",
        [
            ([1e308, 1.0], 0),  # the square alone overflows
            ([1.0, 1e154], 1),  # the square is finite, twice it is not
            ([0.5, 8e153, 8e153], 2),  # each doubled square is finite, their sum is not
        ],
        ids=["square", "doubled", "sum"],
    )
    def test_overflowing_squared_variances_are_data_errors(
        self, tmp_path, capsys, variances, first
    ):
        pairs = tmp_path / "pairs.json"
        entries = [
            {"user": "u", "item": f"i{k}", "mean": 3, "variance": v}
            for k, v in enumerate(variances)
        ]
        pairs.write_text(json.dumps({"pairs": entries}), encoding="utf-8")
        predictions = tmp_path / "p.csv"
        predictions.write_text(
            "user,item,prediction\n" + "".join(f"u,i{k},3\n" for k in range(len(variances))),
            encoding="utf-8",
        )
        for argv in (
            ["estimate", str(pairs)],
            ["estimate", str(pairs), "--metric", "mae"],
            ["simulate", str(pairs), "--tau", "100"],
            ["rank", str(pairs), "--predictors", str(predictions), "--tau", "100"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 2
            err = capsys.readouterr().err
            assert "RuntimeWarning" not in err
            assert err == (
                f"data error: {pairs}: pair ('u', 'i{first}') has so large a variance "
                f"({variances[first]:g}) that the sum of squared variances, doubled in the "
                "RMSE closed form, overflows float64\n"
            )

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
        "text, message",
        [
            (json.dumps(5), "expected a JSON object"),
            (json.dumps(["pairs"]), "expected a JSON object"),
            (
                json.dumps({
                    "scale": {"min_category": 1, "max_category": 5},
                    "pairs": [{"user": "u", "item": "i", "mean": 3, "variance": 0.5}],
                }),
                "data error",
            ),
            ("{", "invalid JSON"),
            (json.dumps({"scale": None}), "missing 'pairs' key"),
        ],
        ids=["number", "list", "scale-field-missing", "invalid", "pairs-missing"],
    )
    def test_malformed_json_is_data_error(self, tmp_path, capsys, text, message):
        pairs = tmp_path / "odd.json"
        pairs.write_text(text, encoding="utf-8")
        assert main(["estimate", str(pairs)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "odd.json" in err and message in err

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


class TestJsonTypes:
    # one valid document of each kind; each case puts a value of another JSON
    # type into one field, most of which float(), int() or str() would accept
    PAIR = {"user": "u", "item": "i", "mean": 3, "variance": 0.5}
    SCALE = {"min_category": 1, "max_category": 5, "num_trials": 5}
    SUMMARY = {
        "mean": 0.7, "variance": 0.001,
        "histogram": {"edges": [0.6, 0.7, 0.8], "heights": [5.0, 5.0]},
    }

    @pytest.mark.parametrize(
        "field, value, label, kind",
        [
            # str(None) would make it the id "None", which the first pair has
            ("user", None, "pair user", "string"),
            ("user", 7, "pair user", "string"),
            ("item", None, "pair item", "string"),
            ("mean", "3", "pair mean", "number"),
            ("mean", False, "pair mean", "number"),
            ("variance", True, "pair variance", "number"),
            ("variance", [0.5], "pair variance", "number"),
            ("min_category", True, "scale min_category", "integer"),
            ("max_category", 5.0, "scale max_category", "integer"),
            ("num_trials", "5", "scale num_trials", "integer"),
        ],
    )
    def test_pairs_fields(self, tmp_path, capsys, field, value, label, kind):
        scale = dict(self.SCALE)
        pair = dict(self.PAIR, user="v")
        (scale if field in scale else pair)[field] = value
        path = tmp_path / "pairs.json"
        doc = {"scale": scale, "pairs": [dict(self.PAIR, user="None"), pair]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["estimate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: {label} must be a JSON {kind}, got {json.dumps(value)}\n"
        )

    @pytest.mark.parametrize(
        "field, value, label, got",
        [
            ("mean", "0.7", "mean", '"0.7"'),
            ("mean", None, "mean", "null"),
            ("variance", True, "variance", "true"),
            ("edges", ["0.6", "0.7", "0.8"], "histogram edges", '"0.6"'),
            ("heights", [5.0, True], "histogram heights", "true"),
        ],
    )
    def test_summary_fields(self, tmp_path, capsys, field, value, label, got):
        doc = json.loads(json.dumps(self.SUMMARY))
        (doc["histogram"] if field in doc["histogram"] else doc)[field] = value
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"mean": 0.7, "variance": 0.001}), encoding="utf-8")
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compare", str(plain), str(odd)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {odd}: {label} must be a JSON number, got {got}\n"
        )


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

    def test_out_and_values_out_same_file_is_usage_error(
        self, tmp_path, pairs_file, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the output paths were checked")

        monkeypatch.setattr(mc, "simulate_metric", refuse)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", str(pairs_file), "--tau", "10", "--out", "x.bin"]
        assert main(argv + ["--values-out", "./x.bin"]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: --out and --values-out name the same file: ./x.bin\n"
        assert not (tmp_path / "x.bin").exists()

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
            # plain text: the plain reader hands it to the per-line reader
            ("user,item,prediction\nu0,i0,3\nu1,i0,x\n", "line 3: prediction must be a number"),
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
        ids=["header", "fields", "number", "plain-number", "duplicate", "overlong-id",
             "empty", "two-line-id", "nan", "inf", "minus-infinity", "unterminated-quote"],
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
            ["sensitivity", "--axis", "variance", "--grid", "0.7", "--fixed", "10.7"],
            ["sensitivity", "--axis", "n", "--grid", "1.5,1", "--fixed", "0.7"],
        ],
        ids=[
            "workers-0", "workers-neg", "seed-neg", "seed-2^64", "tau-0",
            "ingest-alpha-7", "ingest-alpha-nan", "transfer-rate-0", "transfer-rate-nan",
            "transfer-bounds-reversed", "transfer-bounds-massless",
            "transfer-competitor-nan", "rankcurves-noise-nan", "rankcurves-delta-inf",
            "sensitivity-fixed-inf", "sensitivity-grid-inf",
            "sensitivity-fixed-fraction", "sensitivity-grid-fraction",
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
        # one bin is refused before any work: the pairs file is not read
        missing = str(tmp_path / "missing.json")
        assert main(["simulate", missing, "--tau", "100", "--bins", "1"]) == 1
        assert capsys.readouterr().err == "usage error: --bins must be >= 2, got 1\n"
        # rank emits orderings, not a histogram, so it has no --bins to ignore
        assert main(
            ["rank", str(pairs_file), "--predictors", "x.csv", "--tau", "100", "--bins", "7"]
        ) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("mean", [2.4e169, -2.4e169, 5.5, 0.75])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--clip", "--tau", "10"],
            ["simulate", "--clip", "--tau", "10", "--metric", "mae"],
            ["estimate"],
            ["rankcurves", "--deltas", "0.1", "--offsets", "0", "--pairs"],
        ],
        ids=["clip-rmse", "clip-mae", "estimate", "rankcurves"],
    )
    def test_mean_outside_the_scale_is_data_error(self, tmp_path, capsys, argv, mean):
        # clipped to [1, 5], a rating of the mean 2.4e169 lies 2.4e169 from
        # it, and that square overflowed into numpy warnings and a bin error
        pairs = tmp_path / "pairs.json"
        entries = [
            {"user": "u", "item": f"i{k}", "mean": m, "variance": 0.5}
            for k, m in enumerate([1, mean, 5])
        ]
        scale = {"min_category": 1, "max_category": 5, "num_trials": 5}
        pairs.write_text(json.dumps({"scale": scale, "pairs": entries}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, str(pairs)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {pairs}: pair ('u', 'i1') has mean {mean:g}, outside its scale [1, 5]\n"
        )

    def test_scale_past_float64_is_data_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.json"
        scale = {"min_category": 1, "max_category": 10**400, "num_trials": 5}
        entry = {"user": "u", "item": "i", "mean": 3, "variance": 0.5}
        pairs.write_text(json.dumps({"scale": scale, "pairs": [entry]}), encoding="utf-8")
        assert main(["simulate", str(pairs), "--clip", "--tau", "10"]) == 2
        assert capsys.readouterr().err == (
            f"data error: {pairs}: malformed scale: int too large to convert to float\n"
        )

    def test_means_on_the_scale_bounds_are_kept(self, tmp_path):
        pairs = tmp_path / "pairs.json"
        entries = [
            {"user": "u", "item": f"i{k}", "mean": m, "variance": 0.5}
            for k, m in enumerate([1, 5, 3.25])
        ]
        scale = {"min_category": 1, "max_category": 5, "num_trials": 5}
        pairs.write_text(json.dumps({"scale": scale, "pairs": entries}), encoding="utf-8")
        out = tmp_path / "sample.json"
        assert main(["simulate", str(pairs), "--clip", "--tau", "10", "--out", str(out)]) == 0
        assert read_json(out)["config"]["clip"] is True


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

    def test_two_histograms_on_equal_edges(self, tmp_path):
        # masses (3/4, 1/4) and (1/4, 3/4) against their mixture (1/2, 1/2):
        # each KL is 3/4 log2(3/2) - 1/4 bits, and so is their mean
        paths = []
        for name, mean, heights in (("a", 0.9, [0.75, 0.25]), ("b", 1.1, [0.25, 0.75])):
            path = tmp_path / f"{name}.json"
            hist = {"edges": [0.0, 1.0, 2.0], "heights": heights}
            path.write_text(json.dumps({"mean": mean, "variance": 0.3, "histogram": hist}),
                            encoding="utf-8")
            paths.append(str(path))
        report = tmp_path / "r.json"
        assert main(["compare", *paths, "--out", str(report)]) == 0
        doc = read_json(report)
        assert doc["jsd"] == pytest.approx(0.75 * math.log2(1.5) - 0.25, rel=1e-12)
        assert doc["jsd"] == pytest.approx(0.18872, abs=1e-5)
        assert "jsd_note" not in doc

    def test_simulation_against_itself(self, tmp_path, pairs_file):
        sample = tmp_path / "sample.json"
        report = tmp_path / "r.json"
        assert main(["simulate", str(pairs_file), "--tau", "500", "--seed", "3",
                     "--out", str(sample)]) == 0
        assert main(["compare", str(sample), str(sample), "--out", str(report)]) == 0
        doc = read_json(report)
        assert doc["jsd"] == 0.0 and "jsd_note" not in doc

    def test_histograms_on_different_edges(self, tmp_path, pairs_file):
        samples = []
        for seed in ("3", "4"):
            sample = tmp_path / f"sample{seed}.json"
            assert main(["simulate", str(pairs_file), "--tau", "500", "--seed", seed,
                         "--out", str(sample)]) == 0
            samples.append(sample)
        assert read_json(samples[0])["histogram"]["edges"] != read_json(samples[1])["histogram"]["edges"]
        report = tmp_path / "r.json"
        assert main(["compare", *map(str, samples), "--out", str(report)]) == 0
        doc = read_json(report)
        assert doc["jsd"] is None
        assert doc["jsd_note"] == "histogram edges differ; divergence not computed"

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["barrier-high", "barrier-low"])
    def test_means_at_opposite_ends_of_float64(self, tmp_path, capsys, sign):
        """Their gap overflows: a data error naming both files, and no output."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"mean": sign * 1.7e308, "variance": 1e300}), encoding="utf-8")
        b.write_text(json.dumps({"mean": -sign * 1.7e308, "variance": 1e300}), encoding="utf-8")
        report = tmp_path / "r.json"
        assert main(["compare", str(a), str(b), "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {a} and {b}: ") and "overflows float64" in err
        assert not report.exists()

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

    @pytest.mark.parametrize(
        "edges, heights",
        [([0.0, 6.2e16], [2.9e291]), ([-1e308, 1e308], [1.0]), ([-1e308, 1e308], [0.0])],
        ids=["mass", "width", "zero-height-infinite-width"],
    )
    def test_histogram_past_float64_is_data_error(self, tmp_path, capsys, edges, heights):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"mean": 0.7, "variance": 0.001}), encoding="utf-8")
        b = tmp_path / "b.json"
        hist = {"edges": edges, "heights": heights}
        b.write_text(json.dumps({"mean": 0.7, "variance": 0.001, "histogram": hist}),
                     encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {b}: malformed histogram: "
            "histogram bin widths or masses overflow float64\n"
        )

    def test_gaussian_far_from_the_edges_in_sds_past_float64(self, tmp_path, capsys):
        # (edge - mean) / sd passes float64; the CDF is its limit, 0 on every edge
        gaussian = tmp_path / "gaussian.json"
        gaussian.write_text(json.dumps({"mean": 1e150, "variance": 5e-324}),
                            encoding="utf-8")
        sampled = tmp_path / "sampled.json"
        hist = {"edges": [0.0, 1.0], "heights": [1.0]}
        sampled.write_text(json.dumps({"mean": 0.5, "variance": 0.1, "histogram": hist}),
                           encoding="utf-8")
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", str(sampled), str(gaussian), "--out", str(report)]) == 0
        assert capsys.readouterr().err == ""
        assert read_json(report)["jsd"] is None

    def test_single_trial_simulation_against_estimate(self, tmp_path, pairs_file):
        # one trial still gets two bins: with one, the histogram and the
        # Gaussian on its edges would both put all mass in it, a JSD of 0
        barrier = tmp_path / "barrier.json"
        sample = tmp_path / "sample.json"
        report = tmp_path / "report.json"
        assert main(["estimate", str(pairs_file), "--out", str(barrier)]) == 0
        assert main(
            ["simulate", str(pairs_file), "--tau", "1", "--out", str(sample)]
        ) == 0
        assert len(read_json(sample)["histogram"]["heights"]) == 2
        assert main(["compare", str(barrier), str(sample), "--out", str(report)]) == 0
        assert read_json(report)["jsd"] > 0.0

    def test_identical_inputs(self, tmp_path):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"mean": 0.7, "variance": 0.001}), encoding="utf-8")
        report = tmp_path / "r.json"
        assert main(["compare", str(a), str(a), "--out", str(report)]) == 0
        doc = read_json(report)
        assert doc["interference_probability"] == 0.5
        assert doc["verdict"] == "differentiated analysis needed"

    @pytest.mark.parametrize(
        "gaussian_first", [True, False], ids=["gaussian-first", "histogram-first"]
    )
    @pytest.mark.parametrize("gaussian_mean", [0.0, 3.0], ids=["below", "above"])
    def test_gaussian_without_mass_on_the_edges(
        self, tmp_path, capsys, gaussian_mean, gaussian_first
    ):
        # 70 standard deviations below the edges every CDF value rounds to 1;
        # 220 above them every one underflows to 0
        gaussian = tmp_path / "gaussian.json"
        gaussian.write_text(
            json.dumps({"mean": gaussian_mean, "variance": 0.0001}), encoding="utf-8"
        )
        sampled = tmp_path / "sampled.json"
        histogram = {"edges": [0.7, 0.75, 0.8], "heights": [10.0, 10.0]}
        sampled.write_text(
            json.dumps({"mean": 0.75, "variance": 0.0004, "histogram": histogram}),
            encoding="utf-8",
        )
        barrier, rmse = (gaussian, sampled) if gaussian_first else (sampled, gaussian)
        report = tmp_path / "r.json"
        assert main(["compare", str(barrier), str(rmse), "--out", str(report)]) == 0
        assert capsys.readouterr().err == ""
        doc = read_json(report)
        assert doc["jsd"] is None
        assert doc["jsd_note"] == (
            "the Gaussian has no mass on the histogram's edges; divergence not computed"
        )
        barrier_lower = doc["barrier"]["mean"] < doc["rmse"]["mean"]
        assert doc["interference_probability"] == pytest.approx(
            0.0 if barrier_lower else 1.0, abs=1e-12
        )
        assert doc["verdict"] == (
            "improvable" if barrier_lower else "differentiated analysis needed"
        )


# a JSON integer that float64 cannot hold
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "command, text",
    [
        ("compare", f'{{"mean": {_HUGE}, "variance": 0.001}}'),
        (
            "compare",
            f'{{"mean": 0.7, "variance": 0.001, '
            f'"histogram": {{"edges": [0.6, 0.7, {_HUGE}], "heights": [5.0, 5.0]}}}}',
        ),
        (
            "estimate",
            f'{{"pairs": [{{"user": "u", "item": "i", "mean": {_HUGE}, "variance": 0.5}}]}}',
        ),
    ],
    ids=["compare-mean", "compare-histogram-edge", "pair-mean"],
)
def test_number_beyond_float64_is_data_error(tmp_path, capsys, command, text):
    huge = tmp_path / "huge.json"
    huge.write_text(text, encoding="utf-8")
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"mean": 0.7, "variance": 0.001}), encoding="utf-8")
    argv = [command, str(huge)] + ([str(plain)] if command == "compare" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {huge}: ") and "Traceback" not in err


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
        for grid, message in [("abc", "expected comma-separated numbers"), (",", "empty grid")]:
            assert main(
                ["sensitivity", "--axis", "n", "--grid", grid, "--fixed", "1.0"]
            ) == 1
            assert message in capsys.readouterr().err

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


# the closed form's bits come from numpy's sums
@pytest.mark.simd
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

    def test_no_variances_is_degenerate(self, tmp_path, capsys):
        variances = tmp_path / "v.csv"
        variances.write_text("variance\n", encoding="utf-8")
        argv = ["rankcurves", "--variances", str(variances), "--deltas", "0", "--offsets", "0"]
        assert main(argv) == 3
        assert "no positive variances" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "base, flags",
        [
            ([0.5, 0.7], ["--deltas", "1e200", "--offsets", "0"]),
            ([0.5, 0.7], ["--deltas", "0.1", "--offsets", "0", "--noise-scale", "1e160"]),
            # the product (offset + delta) * noise scale is inf before it is squared
            ([0.5, 0.7], ["--deltas", "0.1", "--offsets", "1e300", "--noise-scale", "1e10"]),
            # each square is finite; their sum over the two pairs is not
            ([0.5, 0.7], ["--deltas", "0", "--offsets", "1e154"]),
            # the squares and their sum are finite; four times a square times
            # the variance 1e10 is not
            ([0.5, 1e10], ["--deltas", "0", "--offsets", "0,3.2e149"]),
            # every sum is finite; the mean's sum times 4N, the variance's
            # denominator, is not (the variance read 0 before)
            ([0.1, 0.1], ["--deltas", "0", "--offsets", "7e153"]),
        ],
        ids=["delta", "noise-scale", "product", "sum", "times-variance", "times-4n"],
    )
    def test_overflowing_grid_is_usage_error(self, tmp_path, capsys, base, flags):
        variances = tmp_path / "variances.csv"
        variances.write_text("variance\n" + "".join(f"{v}\n" for v in base), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rankcurves", "--variances", str(variances), *flags]) == 1
        assert capsys.readouterr().err == (
            "usage error: --deltas, --offsets and --noise-scale: the largest scaled "
            "offset, (offset + delta) * noise scale, squares past float64 in the RMSE "
            "closed form\n"
        )

    def test_largest_grid_within_float64_is_kept(self, tmp_path):
        variances = tmp_path / "variances.csv"
        variances.write_text("variance\n0.5\n0.7\n", encoding="utf-8")
        out = tmp_path / "curves.json"
        argv = ["rankcurves", "--variances", str(variances), "--deltas", "0,1e150",
                "--offsets", "0,1e150", "--out", str(out)]
        assert main(argv) == 0
        assert [r["error_probability"] for r in read_json(out)["rows"]][:2] == [0.5, 0.5]

    @pytest.mark.parametrize("source", ["--variances", "--pairs"])
    def test_overflowing_variances_are_data_errors(self, tmp_path, capsys, source):
        if source == "--variances":
            path = tmp_path / "variances.csv"
            path.write_text("variance\n0.5\n1e200\n", encoding="utf-8")
            entry = "record 2"
        else:
            path = tmp_path / "pairs.json"
            entries = [
                {"user": "u", "item": f"i{k}", "mean": 3, "variance": v}
                for k, v in enumerate([0.5, 1e200])
            ]
            path.write_text(json.dumps({"pairs": entries}), encoding="utf-8")
            entry = "pair ('u', 'i1')"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rankcurves", source, str(path), "--deltas", "0.1", "--offsets", "0"]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}: {entry} has so large a variance (1e+200) that the sum of "
            "squared variances, doubled in the RMSE closed form, overflows float64\n"
        )


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

    def test_overflowing_squared_offsets_are_data_errors(self, tmp_path, pairs_file, capsys):
        # every offset of both files squares past float64, so both RMSE
        # scores would be inf: a tie that the index breaks, and a histogram
        # with no finite range
        usable = [p for p in read_json(pairs_file)["pairs"] if p["variance"] > 0]
        huge, big = tmp_path / "huge.csv", tmp_path / "big.csv"
        for path, size in ((huge, 1e200), (big, 1e160)):
            path.write_text(
                "user,item,prediction\n"
                + "".join(
                    f"{p['user']},{p['item']},{size if k % 2 else -size}\n"
                    for k, p in enumerate(usable)
                ),
                encoding="utf-8",
            )
        rank = ["rank", str(pairs_file), "--predictors", str(huge), str(big), "--tau", "2000"]
        for argv in (
            rank,
            [*rank, "--metric", "mae"],
            ["simulate", str(pairs_file), "--predictors", str(huge), "--tau", "100"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 2
            err = capsys.readouterr().err
            assert "RuntimeWarning" not in err
            assert err == (
                f"data error: {huge}: predictions 1 of 1 lie so far from the pair "
                "means that their squared offsets overflow float64\n"
            )

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

    def test_label_with_ordering_separator_refused(self, tmp_path, pairs_file, capsys):
        # with '>' in a label, two orderings could print as the same key
        usable = [p for p in read_json(pairs_file)["pairs"] if p["variance"] > 0]
        rows = "".join(f"{p['user']},{p['item']},{p['mean']}\n" for p in usable)
        paths = []
        for stem in ("a>b", "c", "a", "b>c"):
            path = tmp_path / f"{stem}.csv"
            path.write_text("user,item,prediction\n" + rows, encoding="utf-8")
            paths.append(str(path))
        assert main(["rank", str(pairs_file), "--predictors", *paths, "--tau", "100"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --predictors: the label 'a>b' contains '>'")


    @staticmethod
    def rank_argv(tmp_path, pairs_file, metric, workers):
        """rank of three systems (the optimal one, a duplicate of it and one
        offset by 0.05) over 20,000 trials: 4 RMSE blocks of 5,461 trials, or
        13 MAE blocks at the fixture's 169 pairs."""
        usable = [p for p in read_json(pairs_file)["pairs"] if p["variance"] > 0]
        paths = []
        for name, shift in (("a", 0.0), ("b", 0.0), ("c", 0.05)):
            path = tmp_path / f"{name}.csv"
            path.write_text(
                "user,item,prediction\n"
                + "".join(f"{p['user']},{p['item']},{p['mean'] + shift}\n" for p in usable),
                encoding="utf-8",
            )
            paths.append(str(path))
        out = tmp_path / f"rank-{metric}-{workers}.json"
        argv = ["rank", str(pairs_file), "--predictors", *paths, "--metric", metric,
                "--tau", "20000", "--seed", "4", "--workers", str(workers), "--out", str(out)]
        return argv, out

    def test_rmse_runs_on_the_calling_thread(self, tmp_path, pairs_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rank --metric rmse started a thread pool")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        argv, out = self.rank_argv(tmp_path, pairs_file, "rmse", 3)
        assert main(argv) == 0
        assert sum(read_json(out)["orderings"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_mae_uses_the_pool(self, tmp_path, pairs_file, monkeypatch):
        seen = []

        class RecordingPool(mc.ThreadPoolExecutor):
            def __init__(self, max_workers):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        # the pool is capped at the usable CPUs; lift the cap to run threaded
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
        argv, _ = self.rank_argv(tmp_path, pairs_file, "mae", 2)
        assert main(argv) == 0
        assert seen == [2]

    @pytest.mark.parametrize("metric", ["rmse", "mae"])
    def test_bytes_independent_of_workers(self, tmp_path, pairs_file, monkeypatch, metric):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
        outputs = []
        for workers in (1, 2, 3):
            argv, out = self.rank_argv(tmp_path, pairs_file, metric, workers)
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        # the duplicate of the optimal system always ranks behind it
        assert all(o.index("a") < o.index("b") for o in read_json(out)["orderings"])

    def test_sixteen_systems_match_the_argsort_oracle(self, tmp_path, pairs_file):
        # 16**16 overflows intp, so the counter keys each trial by its rank
        # bytes; a duplicate system ties its original on every draw, and the
        # stems sort in another order than the systems' indices
        doc = read_json(pairs_file)
        usable = [p for p in doc["pairs"] if p["variance"] > 0]
        rng = np.random.default_rng(16)
        shifts = [rng.normal(0.0, 0.05, len(usable)) for _ in range(15)]
        shifts.insert(9, shifts[3])
        stems = [f"sys{(7 * j) % 16:02d}" for j in range(16)]
        paths = []
        for stem, shift in zip(stems, shifts):
            path = tmp_path / f"{stem}.csv"
            path.write_text(
                "user,item,prediction\n"
                + "".join(
                    f"{p['user']},{p['item']},{p['mean'] + s}\n"
                    for p, s in zip(usable, shift.tolist())
                ),
                encoding="utf-8",
            )
            paths.append(path)
        out = tmp_path / "rank16.json"
        argv = ["rank", str(pairs_file), "--predictors", *map(str, paths),
                "--tau", "3000", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0

        table = ingest.filter_nonvanishing(
            PairTable(
                [(p["user"], p["item"]) for p in doc["pairs"]],
                [p["mean"] for p in doc["pairs"]],
                [p["variance"] for p in doc["pairs"]],
            )
        )
        systems = [
            ingest.parse_predictions(path.read_text(encoding="utf-8"), table)
            for path in paths
        ]
        blocks = mc._rmse_score_blocks(table, systems, mc.MCConfig(trials=3000, master_seed=5))
        expected = {
            ">".join(stems[i] for i in ordering): probability
            for ordering, probability in argsort_ordering_frequencies(blocks, 16, 3000).items()
        }
        raw = out.read_text(encoding="utf-8")
        assert json.loads(raw)["orderings"] == expected
        assert len(expected) > 1
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"


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


# pair tables with non-ASCII, quoted and %-format keys, and signed zeros,
# subnormals and extreme magnitudes among the means and variances
_TEXT = st.one_of(
    st.sampled_from(["", "%s", "%%d", '"', "\u00e9\\"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
_MEAN = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_VARIANCE = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e300]),
    st.floats(min_value=0.0, allow_infinity=False),
)


@st.composite
def _pair_tables(draw):
    keys = draw(st.lists(st.tuples(_TEXT, _TEXT), max_size=6, unique=True))
    columns = [draw(st.lists(kind, min_size=len(keys), max_size=len(keys)))
               for kind in (_MEAN, _VARIANCE)]
    return PairTable(keys, *columns)


class TestJsonWriter:
    """The pair-table writer reproduces json.dumps(indent=2, sort_keys=True)
    of the table's rows; every other value goes through json.dumps itself,
    which refuses NaN and the infinities: they are not JSON."""

    @staticmethod
    def reference(value):
        # a top-level value of the emitted document sits one level deep
        return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace(
            "\n", "\n  "
        )

    @given(table=_pair_tables())
    @example(table=PairTable((), (), ()))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_json_dumps(self, table):
        rows = [
            {"user": user, "item": item, "mean": mean, "variance": variance}
            for (user, item), mean, variance in zip(
                table.keys, table.means.tolist(), table.variances.tolist()
            )
        ]
        assert cli._json_value(table) == self.reference(rows)

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
        try:
            expected = self.reference(rows)
        except ValueError:
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli._json_value(rows)
        else:
            assert cli._json_value(rows) == expected

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_writes_nothing(
        self, tmp_path, pairs_file, monkeypatch, capsys, value, out
    ):
        monkeypatch.setattr(cli, "_cmd_estimate", lambda args: ({}, {"mean": value}))
        target = tmp_path / "barrier.json"
        argv = ["estimate", str(pairs_file)] + (["--out", str(target)] if out else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"data error: Out of range float values are not JSON compliant: {value!r}\n"
        )
        assert not target.exists()

    def test_percent_in_keys_and_values(self):
        table = PairTable([("%s", "%d"), ("a%%", "%")], [1.5, -0.0], [0.25, 0.0])
        rows = [
            {"user": "%s", "item": "%d", "mean": 1.5, "variance": 0.25},
            {"user": "a%%", "item": "%", "mean": -0.0, "variance": 0.0},
        ]
        assert cli._json_value(table) == self.reference(rows)


# every digest's bits come from numpy kernels
@pytest.mark.simd
class TestGoldenDigests:
    """SHA-256 of outputs at a fixed small input and seed.

    A change of these digests is a change of output bits: make it on purpose,
    update the digest and record why. The tool version is blanked so that a
    release alone does not move them. The digests hold for the numpy and
    scipy versions the suite is pinned against (numpy 2.4, scipy 1.17); the
    Monte-Carlo bits (simulate, rank, compare) come from numpy's ziggurat
    normals on SFC64 streams seeded through ``SeedSequence`` spawn keys, not
    from scipy; the RMSE rank bits also from the einsum Gram-Schmidt factor
    that projects those normals, which uses no LAPACK. An RMSE rank trial
    draws r normals, r the rank of the distinct offset rows (the factor's
    nonzero pivots): one for ``rank``'s constant shifts, three for
    ``rank-full-rank``'s independent patterns, whose bits are those of a
    draw of one normal per distinct row.
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
        # per-pair shifts of period 2 and 4: with near's constant shift, three
        # linearly independent offset patterns
        for name, shift in (
            ("wave", lambda k: 0.125 * (-1) ** k),
            ("tilt", lambda k: 0.03125 * (k % 4)),
        ):
            Path(f"{name}.csv").write_text(
                "user,item,prediction\n"
                + "".join(
                    f"{p['user']},{p['item']},{p['mean'] + shift(k)}\n"
                    for k, p in enumerate(pairs)
                ),
                encoding="utf-8",
            )

    @staticmethod
    def digest(path):
        # the digest re-dumps the document; its raw bytes must be that dump too
        raw = Path(path).read_text(encoding="utf-8")
        doc = json.loads(raw)
        assert raw == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        doc["tool"]["version"] = "*"
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["simulate", "pairs.json", "--tau", "3000", "--seed", "17"],
                "183dc7a15dcf6b050e6bff868a269f5e3425abd2ef9c1da3fa8d157d929ab7e7",
            ),
            (
                ["simulate", "pairs.json", "--tau", "3000", "--seed", "17",
                 "--metric", "mae", "--predictors", "near.csv", "--clip",
                 "--workers", "2"],
                "e4101b7e55465303213258713ed27cead6ce0aab1b6041e0e72bc8031a8b80f2",
            ),
            (
                ["simulate", "pairs.json", "--predictors", "far.csv", "--tau", "3000",
                 "--seed", "17"],
                "f8cbb7667ceb81d34dc6ce7c163639d28a47aeba2b77705ff0ea4949e899098c",
            ),
            (
                ["rank", "pairs.json", "--predictors", "best.csv", "near.csv",
                 "far.csv", "--tau", "3000", "--seed", "5", "--workers", "2"],
                "ee1a42394c89407948190d10e04ae5059c11145f98ee987cac1f4845ff673be8",
            ),
            (
                ["rank", "pairs.json", "--predictors", "near.csv", "wave.csv",
                 "tilt.csv", "--tau", "12000", "--seed", "5"],
                "b1606581f07ef932bd80d64542adfc859971b853df50d5b7f5fdcd5003d95cc7",
            ),
            (
                ["rank", "pairs.json", "--predictors", "best.csv", "near.csv",
                 "far.csv", "--tau", "3000", "--seed", "5", "--workers", "2",
                 "--metric", "mae"],
                "ad29172bb7a1456df7df8923dbb548e01945dff40b6afbe653cf0bdb8e3935dd",
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
                "24215e839812e9283f26c5fc74e8c13f0c1dd083006fa7c13ab062f1ef6b7145",
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
            "simulate", "simulate-mae-clip", "simulate-far", "rank", "rank-full-rank",
            "rank-mae",
            "estimate-rmse", "estimate-mae",
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
                "b7146f6f00975cc5d00ffcb4e89129b6da6ff114be99d1aeba6c19d8dd25d504",
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
        expected = "a6f1ccdaf9003562ae012cb05cec41082c3e8e6bcd49fcab62e1ec29271af1d8"
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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, count):
        out = tmp_path / "t.json"
        assert main(["transfer", "--count", count, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --count must be >= 1") and "Traceback" not in err
        assert not out.exists()

    def test_three_bounds_are_a_usage_error(self, capsys):
        assert main(["transfer", "--count", "100", "--bounds", "0.1,0.5,0.9"]) == 1
        assert "--bounds: expected low,high" in capsys.readouterr().err

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
        assert err == (
            f"usage error: --rate {float(rate)!r} is too small: "
            "the sampled variances overflow float64\n"
        )
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize(
        "rate, bounds", [("1", "1e300,1e301"), ("1e-310", "5,1e300")]
    )
    def test_overflow_in_window_names_bounds(self, tmp_path, capsys, rate, bounds):
        # the window decides the overflow as much as the rate does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["transfer", "--count", "10", "--rate", rate, "--bounds", bounds,
                 "--out", str(tmp_path / "t.json")]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert f"--bounds {bounds}" in err and f"--rate {float(rate)!r}" in err
        assert "too small" not in err
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "PAIRS", "--tau", "100000000000000"],
            ["simulate", "PAIRS", "--tau", "10", "--bins", "100000000000000"],
            ["transfer", "--count", "100000000000000"],
        ],
        ids=["tau", "bins", "count"],
    )
    def test_size_past_memory_is_a_usage_error(self, capsys, pairs_file, argv):
        """10**14 float64 values take 728 TiB, past the 128 TiB address
        space, so the allocation fails under any overcommit setting; the
        bins case fails only after the simulation has run."""
        capsys.readouterr()
        argv = [str(pairs_file) if arg == "PAIRS" else arg for arg in argv]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"usage error: Unable to allocate 728\. TiB for an array .*\n", err)

    def test_scale_past_float64_is_a_usage_error(self, capsys):
        """The largest variance on [1, 10**200] is about 0.24e400, past
        float64; the closed-form bounds refuse it before any row is built."""
        capsys.readouterr()
        argv = ["sensitivity", "--axis", "n", "--grid", "1", "--fixed", "1"]
        assert main([*argv, "--scale-max", str(10**200)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(
            r"usage error: the variance of 5 ratings in \[1, 10*\] overflows float64\n", err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["transfer", "--count", "100", "--bounds", "-0.5,1"],
            ["transfer", "--count", "100", "--competitor-mean", "-0.25"],
            ["transfer", "--count", "100", "--rate", "-.5"],
            ["sensitivity", "--axis", "n", "--grid", "1,2", "--fixed", "-1e5"],
            ["sensitivity", "--axis", "variance", "--fixed", "10", "--grid", "-0.5,1"],
            ["rankcurves", "--variances", "v.csv", "--offsets", "0", "--deltas", "-1e-3,0.1"],
        ],
        ids=["bounds", "competitor-mean", "rate", "fixed", "grid", "deltas"],
    )
    def test_negative_value_after_a_space(self, tmp_path, monkeypatch, capsys, argv):
        """The last flag's value starts with "-" and a digit or ".": given
        after a space it reads as after "=", not as an unknown flag."""
        monkeypatch.chdir(tmp_path)
        Path("v.csv").write_text("variance\n0.5\n0.7\n", encoding="utf-8")
        outcomes = []
        for form in (argv, [*argv[:-2], f"{argv[-2]}={argv[-1]}"]):
            code = main(form)
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert "expected one argument" not in outcomes[0][2]


class TestImports:
    """At the size of a re-rating study, importing scipy.special was most of
    a fresh process's time. Only ingest's KS pass, the MAE closed form with
    offsets and compare against one histogram call scipy, and they import it
    then; the MAE barrier (``estimate --metric mae``) needs no scipy."""

    CHILD = (
        "import json, sys\n"
        "from magicbarrier import cli\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        "loaded = {'import magicbarrier.cli': scipy_modules()}\n"
        "for label, argv in json.loads(sys.argv[1]):\n"
        "    code = cli.main(argv)\n"
        "    loaded[label] = scipy_modules() if code == 0 else f'exit {code}'\n"
        "print(json.dumps(loaded))\n"
    )

    def test_scipy_left_out_where_not_called(self, tmp_path, pairs_file):
        usable = [p for p in read_json(pairs_file)["pairs"] if p["variance"] > 0]
        for name, shift in (("a", 0.0), ("b", 0.5)):
            (tmp_path / f"{name}.csv").write_text(
                "user,item,prediction\n"
                + "".join(f"{p['user']},{p['item']},{p['mean'] + shift}\n" for p in usable),
                encoding="utf-8",
            )
        pairs = str(pairs_file)
        barrier, sample = str(tmp_path / "barrier.json"), str(tmp_path / "sample.json")
        out = ["--out", str(tmp_path / "out.json")]
        runs = [
            ("estimate --metric rmse", ["estimate", pairs, "--out", barrier]),
            ("estimate --metric mae", ["estimate", pairs, "--metric", "mae", *out]),
            ("simulate", ["simulate", pairs, "--tau", "50", "--out", sample]),
            ("rank", ["rank", pairs, "--predictors", str(tmp_path / "a.csv"),
                      str(tmp_path / "b.csv"), "--tau", "50", *out]),
            ("transfer", ["transfer", "--count", "100", *out]),
            ("sensitivity", ["sensitivity", "--axis", "n", "--grid", "10", "--fixed", "0.5",
                             *out]),
            ("rankcurves", ["rankcurves", "--pairs", pairs, "--deltas", "0.1",
                            "--offsets", "0", *out]),
            ("compare", ["compare", barrier, barrier, *out]),
            ("compare two histograms", ["compare", sample, sample, *out]),
        ]
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(runs)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        loaded = json.loads(child.stdout)
        assert loaded == {label: [] for label in ["import magicbarrier.cli", *dict(runs)]}


class TestParserBuiltOnce:
    """``main`` parses every command line with one parser per process; a flag
    given to one call must not reach the next."""

    CHILD = "import sys\nfrom magicbarrier import cli\nraise SystemExit(cli.main(sys.argv[1:]))\n"

    def test_calls_in_one_process_match_single_calls(self, pairs_file, capsys):
        pairs = str(pairs_file)
        argvs = [
            ["simulate", pairs, "--tau", "300", "--clip", "--bins", "7"],
            ["simulate", pairs, "--tau", "300"],
        ]
        together = []
        for argv in argvs:
            assert main(argv) == 0
            together.append(capsys.readouterr().out)
        assert build_parser() is build_parser()
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        single = [
            subprocess.run(
                [sys.executable, "-c", self.CHILD, *argv],
                capture_output=True, text=True, env=env, timeout=300, check=True,
            ).stdout
            for argv in argvs
        ]
        assert together == single
        assert together[0] != together[1]
        assert '"bins": 7' in together[0] and '"bins": 7' not in together[1]
