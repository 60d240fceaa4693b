import json
from pathlib import Path

import numpy as np
import pytest

from segscreen.cli import _CONFIG_FLAGS, main
from segscreen.grid import ScalarGrid
from segscreen.sgrid import read_sgrid, write_sgrid

from conftest import write_dataset


def write_column(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")


class TestStatsTestCommand:
    def test_identical_files_saturate(self, tmp_path, capsys):
        rng = np.random.default_rng(110)
        vals = rng.normal(size=50)
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_column(fx, vals)
        write_column(fy, vals)
        rc = main(["stats-test", str(fx), str(fy), "--seed", "0"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["p_value"] == 1.0
        assert record["sigma"] > 0

    def test_shifted_columns_hit_smoothed_minimum(self, tmp_path, capsys):
        rng = np.random.default_rng(111)
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_column(fx, rng.normal(0, 1, size=80))
        write_column(fy, rng.normal(8, 1, size=80))
        rc = main(["stats-test", str(fx), str(fy), "--permutations", "199", "--seed", "1"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["p_value"] == pytest.approx(0.005)
        assert record["sigma"] > 0
        assert record["statistic"] > 0

    def test_energy_statistic_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(112)
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_column(fx, rng.normal(size=30))
        write_column(fy, rng.normal(size=30))
        rc = main(["stats-test", str(fx), str(fy), "--statistic", "energy", "--seed", "2"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "energy"
        assert "sigma" not in record

    def test_malformed_line_cites_location(self, tmp_path, capsys):
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        lines = [str(float(i)) for i in range(16)] + ["oops"] + ["3.0"]
        fx.write_text("\n".join(lines) + "\n")
        write_column(fy, [1.0, 2.0])
        assert main(["stats-test", str(fx), str(fy)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fx}: line 17: not a number")

    def test_missing_file(self, tmp_path, capsys):
        fy = tmp_path / "y.txt"
        write_column(fy, [1.0])
        assert main(["stats-test", str(tmp_path / "nope.txt"), str(fy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.txt" in err

    @pytest.mark.parametrize("x_values, flags, message", [
        ([0.1 * i for i in range(20)], ["--permutations", "5"], "permutations"),
        ([0.5], [], "mmd2 needs >= 2 points per set"),
        ([0.1, "nan", 0.3], [], "non-finite"),
        ([], [], "no numeric values found"),
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, x_values, flags, message):
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_column(fx, x_values)
        write_column(fy, [0.2, 0.4, 0.6])
        rc = main(["stats-test", str(fx), str(fy)] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestRunCommand:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, n_cases=2, seed=5)
        out_dir = tmp_path / "out"
        rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir), "--seed", "3"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_images"] == 2
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "masks" / "case0000.sgrid").exists()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--manifest", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("change, message", [
        ({"spacing": [float("inf"), 1.0]}, "entries[0]: spacing must be"),
        ({"spacing": [True, True]}, "entries[0].spacing must be a list of float"),
        ({"groundtruth": "case0000.gt.sgrid"}, "unknown entries[0] fields ['groundtruth']"),
    ])
    def test_manifest_entry_errors_exit_2(self, tmp_path, capsys, change, message):
        manifest = write_dataset(tmp_path, n_cases=2, seed=5)
        data = json.loads(manifest.read_text())
        data["entries"][0].update(change)
        manifest.write_text(json.dumps(data))
        assert main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {manifest}: {message}")

    def test_config_flag_overrides(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        out_dir = tmp_path / "out"
        # an extreme case gate forces the positive case to emit an empty mask
        rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir),
                   "--tau-case", "1000.0"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_positive"] == 0

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("flags,message", [
        (["--tau-bin", "0.9"], "tau_bin"),
        (["--statistic", "foo"], "statistic"),
        (["--config", "missing.json"], "missing.json"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, monkeypatch, command, flags, message):
        monkeypatch.chdir(tmp_path)
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        args = {"run": ["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")],
                "bench": ["bench"]}[command]
        rc = main(args + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("config,key", [
        ({"statistical": {"permutations": 19.5}}, "statistical.permutations"),
        ({"geometric": {"a_min": True}}, "geometric.a_min"),
        ({"scoring": {"tau_bin": "0.4"}}, "scoring.tau_bin"),
    ])
    def test_config_file_value_types_exit_2(self, tmp_path, capsys, command, config, key):
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(config))
        args = {"run": ["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")],
                "bench": ["bench"]}[command]
        rc = main(args + ["--config", str(cfg_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {key} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_must_be_positive(self, tmp_path, capsys, command, jobs):
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        args = {"run": ["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")],
                "bench": ["bench"]}[command]
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_env_var_seed(self, tmp_path, capsys, monkeypatch):
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        monkeypatch.setenv("SEGSCREEN_SEED", "42")
        rc = main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 42

    @pytest.mark.parametrize("name", ["case0001.gt.sgrid", "case0001.tumor.sgrid"])
    def test_map_off_the_intensity_frame_fails_only_its_image(self, tmp_path, capsys, name):
        manifest = write_dataset(tmp_path, n_cases=3, seed=5)
        clean, out_dir = tmp_path / "clean", tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(clean), "--seed", "3"]) == 0
        path = tmp_path / name
        grid = read_sgrid(path)
        write_sgrid(path, ScalarGrid(grid.values[:92], grid.spacing))  # 4 rows short
        capsys.readouterr()
        rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir), "--seed", "3"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["n_failed"] == 1
        assert (out_dir / "summary.json").exists()
        report = json.loads((out_dir / "reports" / "case0001.json").read_text())
        assert report["error"] == (f"ValueError: {path}: frame (96, 92) differs from the "
                                   "intensity frame (96, 96)")
        assert not (out_dir / "masks" / "case0001.sgrid").exists()

        def untimed(run_dir, stem):
            report = json.loads((run_dir / "reports" / f"{stem}.json").read_text())
            return {k: v for k, v in report.items() if k != "timing"}

        for stem in ("case0000", "case0002"):
            assert untimed(out_dir, stem) == untimed(clean, stem)
            assert ((out_dir / "masks" / f"{stem}.sgrid").read_bytes()
                    == (clean / "masks" / f"{stem}.sgrid").read_bytes())

    def test_nan_pixel_fails_only_its_image_naming_the_file(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, n_cases=2, seed=5)
        clean, out_dir = tmp_path / "clean", tmp_path / "out"
        assert main(["run", "--manifest", str(manifest), "--out", str(clean), "--seed", "3"]) == 0
        path = tmp_path / "case0001.tumor.sgrid"
        data = bytearray(path.read_bytes())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # the last pixel
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["run", "--manifest", str(manifest), "--out", str(out_dir), "--seed", "3"]) == 1
        report = json.loads((out_dir / "reports" / "case0001.json").read_text())
        assert report["error"] == f"ValueError: {path}: grid values must all be finite"
        untimed = [{k: v for k, v in json.loads((d / "reports" / "case0000.json").read_text()).items()
                    if k != "timing"} for d in (clean, out_dir)]
        assert untimed[0] == untimed[1]
        assert ((out_dir / "masks" / "case0000.sgrid").read_bytes()
                == (clean / "masks" / "case0000.sgrid").read_bytes())

    def test_dump_fused_flag(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        out_dir = tmp_path / "out"
        rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir), "--dump-fused"])
        assert rc == 0
        assert (out_dir / "masks" / "case0000.fused.sgrid").exists()


@pytest.mark.parametrize("command", ["run", "stats-test", "bench"])
def test_seed_env_var_empty_is_unset_and_non_integer_exits_2(tmp_path, capsys, monkeypatch, command):
    if command == "run":
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        argv = ["run", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    elif command == "stats-test":
        fx, fy = tmp_path / "x.txt", tmp_path / "y.txt"
        write_column(fx, np.arange(20.0))
        write_column(fy, np.arange(5.0, 25.0))
        argv = ["stats-test", str(fx), str(fy)]
    else:
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 1, "seed": 17}))
        argv = ["bench", "--spec", str(spec_path)]
    monkeypatch.delenv("SEGSCREEN_SEED", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("SEGSCREEN_SEED", "")
    assert main(argv) == 0
    assert capsys.readouterr().out == unset
    monkeypatch.setenv("SEGSCREEN_SEED", "abc")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: SEGSCREEN_SEED must be an integer, got 'abc'\n"


def test_config_flags_cover_every_config_field():
    assert {flag for flag, _field, _typ in _CONFIG_FLAGS} == {
        "--tau-bin", "--view-rule", "--scales", "--alpha", "--permutations", "--sample-cap",
        "--tau-ks", "--statistic", "--tau-max", "--tau-ratio", "--a-min", "--tau-mean",
        "--tau-intersect", "--tau-case", "--pre-filter-area", "--padding-mm",
    }


class TestBenchCommand:
    def test_bench_with_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 4, "seed": 17}))
        rc = main(["bench", "--spec", str(spec_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_cases"] == 4
        assert "cases" not in summary

    def test_bench_per_case_rows(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 2, "seed": 18}))
        rc = main(["bench", "--spec", str(spec_path), "--per-case"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["cases"]) == 2

    def test_bench_pinned_spec_file(self, tmp_path, capsys):
        # The acceptance spec's layout: the spec under "spec", next to its
        # pinned targets. It runs as the same spec given flat.
        payload = json.loads((Path(__file__).parent / "data" / "acceptance_bench.json").read_text())
        payload["spec"]["n_cases"] = 4
        pinned, flat = tmp_path / "pinned.json", tmp_path / "flat.json"
        pinned.write_text(json.dumps(payload))
        flat.write_text(json.dumps(payload["spec"]))
        assert main(["bench", "--spec", str(pinned)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["n_cases"] == 4
        assert main(["bench", "--spec", str(flat)]) == 0
        assert capsys.readouterr().out == out

    def test_bench_pinned_spec_rejects_other_keys(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"spec": {"n_cases": 2}, "pinned": {}, "notes": ""}))
        assert main(["bench", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err == (f"error: {spec_path}: unknown bench spec fields "
                                           "['notes', 'pinned', 'spec']\n")

    def test_bench_missing_spec_file(self, tmp_path, capsys):
        rc = main(["bench", "--spec", str(tmp_path / "none.json")])
        assert rc == 2

    def test_bench_invalid_field_named(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 2, "fraction_positive": 2.0}))
        rc = main(["bench", "--spec", str(spec_path)])
        assert rc == 2
        assert "fraction_positive" in capsys.readouterr().err

    def test_bench_spec_value_type_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 2.5}))
        rc = main(["bench", "--spec", str(spec_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {spec_path}: n_cases must be int")

    @pytest.mark.parametrize("entry, key", [
        ({"frame": [96]}, "frame"),
        ({"frame": [96, 0]}, "frame"),
        ({"frame": [96, 96, 96]}, "frame"),
        ({"spacing": [0.0, 1.0]}, "spacing"),
        ({"spacing": [1.0, -2.0]}, "spacing"),
        ({"spacing": [1.0]}, "spacing"),
        ({"clutter_radius": [6.0, 3.0]}, "clutter_radius"),
        ({"clutter_radius": [3.0]}, "clutter_radius"),
        ({"clutter_peak": [0.85, 0.55]}, "clutter_peak"),
        ({"clutter_peak": [0.5, 0.6, 0.7]}, "clutter_peak"),
    ])
    def test_bench_spec_shape_errors_exit_2(self, tmp_path, capsys, entry, key):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 2, **entry}))
        rc = main(["bench", "--spec", str(spec_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {spec_path}: {key} must be")

    @pytest.mark.parametrize("entry, key", [
        ({"noise_floor": 1.5}, "noise_floor"),
        ({"organ_peak": 1.2}, "organ_peak"),
        ({"organ_radius": float("nan")}, "organ_radius"),
        ({"lesion_peak": 0}, "lesion_peak"),
        ({"lesion_area_px": 3.0}, "lesion_area_px"),
        ({"clutter_radius": [0.5, 0.8]}, "clutter_radius"),
        ({"clutter_peak": [0.0, 0.5]}, "clutter_peak"),
        ({"control_sd": -0.1}, "control_sd"),
        ({"background_sd": float("inf")}, "background_sd"),
        ({"control_mean": float("nan")}, "control_mean"),
        ({"effect_size": float("nan")}, "effect_size"),
        ({"frame": [8, 8]}, "frame"),
    ])
    def test_bench_spec_that_make_case_cannot_build_exits_2(self, tmp_path, capsys, entry, key):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 2, **entry}))
        assert main(["bench", "--spec", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {spec_path}: {key} must ")

    def test_bench_small_frame_without_clutter_runs(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 2, "frame": [8, 8], "clutter_rate": 0}))
        assert main(["bench", "--spec", str(spec_path)]) == 0

    def test_bench_dump_dir_writes_sgrids(self, tmp_path, capsys):
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps({"n_cases": 1, "seed": 19}))
        dump = tmp_path / "dump"
        rc = main(["bench", "--spec", str(spec_path), "--dump-dir", str(dump)])
        assert rc == 0
        names = {p.name for p in dump.iterdir()}
        assert names == {"case0000.intensity.sgrid", "case0000.fused.sgrid",
                         "case0000.mask.sgrid"}


class TestInspectCommand:
    def test_inspect_renders_report(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, n_cases=1, seed=5)
        out_dir = tmp_path / "out"
        main(["run", "--manifest", str(manifest), "--out", str(out_dir)])
        capsys.readouterr()
        rc = main(["inspect", str(out_dir / "reports" / "case0000.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "image: case0000" in text
        assert "L1 existence gate" in text
        assert "final:" in text
        report = json.loads((out_dir / "reports" / "case0000.json").read_text())
        timing = next(line for line in text.splitlines() if line.startswith("  timing: "))
        printed = [part.split()[0] for part in timing[len("  timing: "):].split(", ")]
        pipeline_order = ["rois", "fusion", "l1", "candidates", "screen", "gates"]
        assert printed == [stage for stage in pipeline_order if stage in report["timing"]]
        assert set(printed) == set(report["timing"])
        assert "sigma" in text and "warning" not in text

        # Energy candidates carry no sigma. With 19 permutations B is sized
        # to the tested family, ceil(K / alpha) - 1, and no warning is due.
        main(["run", "--manifest", str(manifest), "--out", str(tmp_path / "energy"),
              "--statistic", "energy", "--permutations", "19"])
        capsys.readouterr()
        path = tmp_path / "energy" / "reports" / "case0000.json"
        rc = main(["inspect", str(path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "statistic " in text and "sigma" not in text and "warning" not in text
        tested = [c for c in json.loads(path.read_text())["candidates"] if "p_value" in c]
        assert len(tested) >= 2
        for cand in tested:
            assert f"permutations_run {cand['permutations_run']}," in text
            assert cand["permutations_run"] <= 20 * len(tested) - 1

    def test_failed_image_report_carries_traceback_tail(self, tmp_path, capsys):
        manifest = write_dataset(tmp_path, n_cases=2, seed=5)
        intensity = tmp_path / "case0000.intensity.sgrid"
        intensity.write_bytes(intensity.read_bytes()[:100])  # header plus a cut payload
        out_dir = tmp_path / "out"
        rc = main(["run", "--manifest", str(manifest), "--out", str(out_dir)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["n_failed"] == 1
        report = json.loads((out_dir / "reports" / "case0000.json").read_text())
        assert report["error"].startswith("ValueError: ") and "truncated payload" in report["error"]
        tail = report["traceback"]
        assert 1 < len(tail) <= 12
        assert any("in read_sgrid" in line for line in tail)
        assert tail[-1] == report["error"]
        rc = main(["inspect", str(out_dir / "reports" / "case0000.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert f"FAILED: {report['error']}" in text
        assert all(line in text for line in tail)
        assert "final: failed" in text and "negative" not in text

    def test_inspect_missing_file(self, tmp_path, capsys):
        rc = main(["inspect", str(tmp_path / "none.json")])
        assert rc == 2
