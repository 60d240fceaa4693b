"""Benchmark entry point: one workload per invocation.

    python3 perfbench/run.py --workload screen_mmd --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed and writes them before any
timing starts, times set-up in fresh interpreters, runs the workload in
a fresh worker process, checks the outputs, and prints one JSON object
as the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Exits non-zero when the program's sources are missing, a worker fails
or an output check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import checks
import gen
from sgridio import read_sgrid
from spans import per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # every run must end within 180 s
TAIL_SAMPLES = 100  # the 90th percentile then has at least ten cases beyond it
SETUP_PROBES = 7  # set-up-only interpreters started before the measured one
# Median time of the worker's host probe on the reference machine when
# quiet (see README, *End-to-end metrics*). Timing metrics are scaled by
# REF_PROBE_S / (the run's median probe time): they are reported at this
# host speed.
REF_PROBE_S = 2.5e-3

WORKLOADS = {
    "screen_mmd": {"kind": "synthetic", "params": gen.screen_mmd_params, "statistic": "mmd2",
                   "jobs": 1, "tail": True},
    "manifest_fullres": {"kind": "manifest", "params": lambda: gen.MANIFEST,
                         "statistic": "mmd2", "jobs": 1, "tail": True},
    "large_pool_energy": {"kind": "synthetic", "params": lambda: gen.LARGE_POOL,
                          "statistic": "energy", "jobs": 1, "tail": False},
}
END_TO_END = (
    ("setup_s", "s"), ("cases_per_s", "1/s"), ("case_p50_ms", "ms"), ("case_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"), ("slice_sensitivity", "ratio"), ("slice_specificity", "ratio"),
    ("lesion_power", "ratio"), ("kept_precision", "ratio"), ("mean_dice", "ratio"),
)


def scene_params(workload: str, cases: int | None = None) -> gen.SceneParams:
    """The workload's scene make-up, optionally with another round size."""
    params = WORKLOADS[workload]["params"]()
    if cases is None:
        return params
    positives = max(1, round(cases * params.positives / params.cases))
    return dataclasses.replace(params, cases=cases, positives=positives)


def blas_env(jobs: int) -> dict[str, str]:
    """Environment whose BLAS pools keep jobs x threads within the CPUs we may use."""
    threads = str(max(1, len(os.sched_getaffinity(0)) // jobs))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def start_worker(cmd: list[str], env: dict[str, str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker; return the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def check_outputs(name: str, w: dict, params: gen.SceneParams, cases: list[gen.Case],
                  result: dict, work: str) -> tuple[dict[str, float], list[str]]:
    """Run every output check of the workload; return quality metrics and failures."""
    cfg = result["config"]
    tau_bin, a_min = cfg["scoring"]["tau_bin"], cfg["geometric"]["a_min"]
    alpha, permutations = cfg["statistical"]["alpha"], cfg["statistical"]["permutations"]
    bad = []
    if len(set(result["digests"])) != 1:
        bad.append(f"reports differ between rounds: {result['digests']}")
    saved = np.load(os.path.join(work, "out", "outputs.npz"))
    ids = json.loads(str(saved["ids"]))
    by_id = {c.image_id: c for c in cases}
    if w["kind"] == "synthetic":
        reports = json.loads(str(saved["reports"]))
        masks, fused = list(saved["masks"]), list(saved["fused"])
    else:
        run = os.path.join(work, "out", "run")
        reports, masks, fused = [], [], []
        shape = tuple(saved["shape"])
        for i, image_id in enumerate(ids):
            with open(os.path.join(run, "reports", f"{image_id}.json"), encoding="utf-8") as fh:
                reports.append(json.load(fh))
            mask, _ = read_sgrid(os.path.join(run, "masks", f"{image_id}.sgrid"))
            masks.append(mask == 1.0)
            held = np.unpackbits(saved["masks"][i])[: shape[0] * shape[1]].reshape(shape)
            if not np.array_equal(masks[-1], held.astype(bool)):
                bad.append(f"{image_id}: the written mask differs from the in-memory mask")
            fmap, fbytes = read_sgrid(os.path.join(run, "masks", f"{image_id}.fused.sgrid"))
            _, tbytes = read_sgrid(os.path.join(work, "inputs", f"{image_id}.tumor.sgrid"))
            if fbytes != tbytes:
                bad.append(f"{image_id}: the written fused map differs from the tumor map")
            fused.append(fmap.astype(np.float64))
        with open(os.path.join(run, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        expect = {"n_images": len(cases), "n_failed": 0,
                  "n_positive": sum(1 for m in masks if m.any())}
        got = {k: summary.get(k) for k in expect}
        if got != expect:
            bad.append(f"summary.json counts {got}, expected {expect}")
    bad += checks.check_pvalues(reports, permutations)
    bad += checks.check_bh(reports, alpha)
    for image_id, rep, mask, fmap in zip(ids, reports, masks, fused):
        bad += checks.check_final_mask(image_id, mask, fmap, tau_bin, a_min)
        if name == "screen_mmd":
            case = by_id[image_id]
            control = gen.organ_map(params, case.organ, stored=False) >= gen.CONTROL_LEVEL
            bad += checks.check_screen_reference(image_id, rep, fmap, case.intensity, control,
                                                 tau_bin, cfg["geometric"]["pre_filter_area"])
    quality, failures = checks.score(masks, [by_id[i].lesion_mask for i in ids],
                                     [by_id[i].positive for i in ids], alpha)
    return quality, bad + failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cases", type=int, default=None,
                    help="cases per round instead of the workload's own (for quick runs)")
    ap.add_argument("--jobs", type=int, default=None,
                    help="run_manifest threads instead of the workload's own")
    ap.add_argument("--out-dir", default=os.path.join(HERE, "out"),
                    help="where work directories and trace files go")
    ap.add_argument("--keep", action="store_true", help="keep the generated inputs and outputs")
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest, tokens = [], iter(argv if argv is not None else sys.argv[1:])
        for token in tokens:
            if token == "--workload":
                next(tokens)
            elif not token.startswith("--workload="):
                rest.append(token)
        codes = []
        for name in WORKLOADS:
            print(f"workload {name}", flush=True)
            codes.append(main(rest + ["--workload", name]))
        return max(codes)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "segscreen", "__init__.py")):
        print(f"segscreen sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    params = scene_params(args.workload, args.cases)
    jobs = args.jobs or w["jobs"]
    tail = w["tail"] and args.cases is None
    min_rounds = max(2, math.ceil(TAIL_SAMPLES / params.cases)) if tail else 2
    if args.trace:
        min_rounds = max(3, min_rounds)

    work = os.path.join(args.out_dir, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    try:
        cases = gen.make_cases(params, args.seed, stored=w["kind"] == "manifest")
        if w["kind"] == "manifest":
            gen.write_manifest(cases, params, inputs)
        else:
            gen.write_synthetic(cases, params, os.path.join(inputs, "inputs.npz"))

        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--kind", w["kind"],
               "--statistic", w["statistic"], "--jobs", str(jobs), "--seed", str(args.seed),
               "--inputs", inputs, "--out", os.path.join(work, "out")]
        env = blas_env(jobs)
        setup, setup_probe = [], []  # seconds to READY; host probe median after it
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready = start_worker(cmd + ["--setup-only"], env)
                out = finish(proc, 30.0).split()
                if out[:1] != ["PROBE"]:
                    raise RuntimeError("a set-up-only worker printed no probe time")
                setup.append(ready)
                setup_probe.append(float(out[1]))
        proc, _ = start_worker(cmd + ["--seconds", str(args.seconds), "--trace",
                                      str(args.trace), "--min-rounds", str(min_rounds)], env)
        finish(proc, DEADLINE_S - (time.perf_counter() - started))

        with open(os.path.join(work, "out", "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        quality, bad = check_outputs(args.workload, w, params, cases, result, work)
        rounds = result["rounds"]
        probe_s = float(np.median(result["probe_seconds"]))
        speed = REF_PROBE_S / probe_s
        print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {rounds[0]['cases']} "
              f"cases, report hash {result['digests'][0][:16]}, set-up samples "
              f"{[round(s, 3) for s in setup]} s, probes after set-up "
              f"{[round(s * 1e3, 2) for s in setup_probe]} ms, host probe median "
              f"{probe_s * 1e3:.3f} ms "
              f"of {len(result['probe_seconds'])}, time scale {speed:.3f}", file=sys.stderr)
        for line in bad:
            print(f"CHECK FAILED: {line}", file=sys.stderr)

        if args.trace:
            metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                       for name, unit in per_layer_metrics()}
            os.replace(os.path.join(work, "out", "trace.json"),
                       os.path.join(args.out_dir, f"trace-{args.workload}-s{args.seed}.json"))
        else:
            times_ms = np.asarray(result["case_seconds"]) * 1e3 * speed
            values = {
                # Each set-up time is scaled by the probe timed right after it.
                "setup_s": float(np.median(np.asarray(setup) * REF_PROBE_S
                                           / np.asarray(setup_probe))),
                # Rounds repeat the same work, so the median round stands
                # for the run and a round slowed by the host counts once.
                "cases_per_s": float(np.median([r["cases"] / r["seconds"]
                                                for r in result["rounds"]])) / speed,
                "case_p50_ms": float(np.percentile(times_ms, 50)),
                "case_p90_ms": float(np.percentile(times_ms, 90)),
                "peak_rss_mb": result["peak_rss_mib"],
                **quality,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            raw = {k: values[k] / speed for k in ("case_p50_ms", "case_p90_ms")}
            raw["setup_s"] = float(np.median(setup))
            raw["cases_per_s"] = values["cases_per_s"] * speed
            print(f"unscaled: {json.dumps(raw)}", file=sys.stderr)
        print(json.dumps({"correct": not bad, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if not bad else 1
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
