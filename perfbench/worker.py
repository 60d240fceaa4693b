"""One workload in a fresh interpreter: set up, run timed rounds, save outputs.

Started by run.py, which times it from process start to the ``READY``
line (the set-up time) and checks the outputs it saves. A round is one
pass over the generated cases; rounds repeat the same inputs until the
timed phase has lasted about ``--seconds``, so every run attempts whole
rounds and its reports can be compared across rounds.

Between cases (between rounds on ``manifest_fullres``, whose cases run
inside ``run_manifest``) the worker times a fixed numpy computation, the
host probe. The host is shared and its speed drifts; run.py scales the
run's times by the probe's median to report them at a fixed reference
speed. Probe time is left out of the round times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


PROBES_PER_CASE = 2
SETUP_ONLY_PROBES = 41


def host_probe(probes: list[float], count: int) -> None:
    """Time ``count`` runs of a fixed computation like the screen's work:
    a 700 x 700 Gaussian kernel matrix and a sort of a seventh of it."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 700)
    for _ in range(count):
        t0 = time.perf_counter()
        d = x[:, None] - x[None, :]
        np.exp(-d * d, out=d)
        np.sort(d.ravel()[::7])
        probes.append(time.perf_counter() - t0)


def _jsonable(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not serialisable: {type(value).__name__}")


def report_text(report: dict) -> str:
    """A report as canonical JSON, without the timing block."""
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, sort_keys=True,
                      default=_jsonable)


class Synthetic:
    """process_case, called serially, over SyntheticBackend scenes."""

    def __init__(self, args, segscreen):
        import numpy as np

        from segscreen.geometry import AnatomyPlan
        from segscreen.grid import ScalarGrid
        from segscreen.segmentor import Blob, ClutterSpec, SyntheticBackend, SyntheticSceneSpec

        self.pipeline = segscreen.pipeline
        self.cfg = segscreen.gating.GateConfig().override(statistic=args.statistic)
        g = self.cfg.geometric
        self.plan = AnatomyPlan(anchors=("organ",), tumor_prompt="tumor",
                                padding_mm=(g.padding_mm, g.padding_mm),
                                scales=self.cfg.scoring.scales, square=True)
        with np.load(os.path.join(args.inputs, "inputs.npz")) as data:
            meta = json.loads(str(data["scenes"]))
            intensities = data["intensity"]
        spacing = tuple(meta["spacing"])
        self.cases = []
        for i, scene in enumerate(meta["cases"]):
            spec = SyntheticSceneSpec(
                frame=tuple(meta["frame"]), spacing=spacing,
                organ_blobs=(Blob(*scene["organ"]),),
                lesion_blobs=tuple(Blob(*b) for b in scene["tumor"]),
                clutter=ClutterSpec(count=0), noise_floor=meta["noise_floor"])
            image_id = scene["image_id"]
            self.cases.append((image_id, ScalarGrid(intensities[i].copy(), spacing),
                               SyntheticBackend({image_id: spec}), args.seed * 1000 + i))

    def round(self, times: list[float], probes: list[float]):
        out = []
        for image_id, intensity, backend, seed in self.cases:
            t0 = time.perf_counter()
            try:
                result = self.pipeline.process_case(image_id, intensity, self.plan, backend,
                                                    self.cfg, base_seed=seed)
            except Exception as err:  # counted as a failed case
                print(f"{image_id} failed: {type(err).__name__}: {err}", file=sys.stderr)
                result = None
            times.append(time.perf_counter() - t0)
            out.append(result)
            host_probe(probes, PROBES_PER_CASE)
        return out

    def digest(self, results) -> tuple[str, int, int]:
        """Hash of the round's outputs without timing, cases, failed cases."""
        h = hashlib.sha256()
        failed = 0
        for r in results:
            if r is None:
                failed += 1
                h.update(b"failed")
                continue
            h.update(report_text(r.report).encode())
            h.update(r.final_mask.bits.tobytes())
            h.update(r.fused.values.tobytes())
        return h.hexdigest(), len(results), failed

    def save(self, results, path: str) -> None:
        import numpy as np

        ok = [r for r in results if r is not None]
        np.savez(path, ids=json.dumps([r.image_id for r in ok]),
                 reports=json.dumps([json.loads(report_text(r.report)) for r in ok]),
                 masks=np.stack([r.final_mask.bits for r in ok]),
                 fused=np.stack([r.fused.values for r in ok]))


class Manifest:
    """run_manifest over an on-disk manifest, writing masks, fused maps and reports."""

    def __init__(self, args, segscreen):
        self.pipeline = segscreen.pipeline
        self.cfg = segscreen.gating.GateConfig().override(statistic=args.statistic)
        self.manifest = self.pipeline.load_manifest(os.path.join(args.inputs, "manifest.json"))
        self.jobs, self.seed = args.jobs, args.seed
        self.out_dir = os.path.join(args.out, "run")
        self.times: list[float] = []
        original = self.pipeline.process_case

        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                return original(*a, **kw)
            finally:
                self.times.append(time.perf_counter() - t0)

        # Tracing, when installed later, wraps this timer in its span.
        self.pipeline.process_case = timed

    def round(self, times: list[float], probes: list[float]):
        self.times = times
        run = self.pipeline.run_manifest(self.manifest, self.cfg, base_seed=self.seed,
                                         jobs=self.jobs, out_dir=self.out_dir, dump_fused=True)
        host_probe(probes, PROBES_PER_CASE * len(run.results))
        return run

    def digest(self, run) -> tuple[str, int, int]:
        h = hashlib.sha256(json.dumps(run.summary, sort_keys=True).encode())
        for r in run.results:
            h.update(report_text(r.report).encode())
            h.update(r.final_mask.bits.tobytes())
            h.update(r.fused.values.tobytes())
        return h.hexdigest(), len(run.results), sum(1 for r in run.results if r.failed)

    def save(self, run, path: str) -> None:
        import numpy as np

        np.savez(path, ids=json.dumps([r.image_id for r in run.results]),
                 masks=np.stack([np.packbits(r.final_mask.bits) for r in run.results]),
                 shape=np.array(run.results[0].final_mask.bits.shape))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("synthetic", "manifest"), required=True)
    ap.add_argument("--statistic", default="mmd2")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-rounds", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import segscreen
    import segscreen.gating
    import segscreen.pipeline

    workload = (Synthetic if args.kind == "synthetic" else Manifest)(args, segscreen)
    print("READY", flush=True)
    if args.setup_only:
        # Gauge the host's speed right after set-up, for scaling setup_s.
        probes: list[float] = []
        host_probe(probes, SETUP_ONLY_PROBES)
        print(f"PROBE {sorted(probes)[len(probes) // 2]!r}", flush=True)
        return 0

    # With --trace 1, rounds after the first alternate between traced and
    # untraced, so the tracing overhead is measured on equally warm rounds;
    # the first round warms caches and counts for neither.
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    times: list[float] = []
    probes: list[float] = []
    rounds: list[dict] = []
    digests, failed = [], 0
    seconds, cases = [0.0, 0.0], [0, 0]  # untraced and traced, after the first round
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        t0, probed = time.perf_counter(), sum(probes)
        results = workload.round(times, probes)
        elapsed = time.perf_counter() - t0 - (sum(probes) - probed)
        digest, n, bad = workload.digest(results)
        digests.append(digest)
        failed += bad
        if rounds:
            seconds[traced] += elapsed
            cases[traced] += n
        rounds.append({"seconds": elapsed, "cases": n, "traced": traced})
        # The last round's outputs are kept; on disk they are also the last.
        workload.save(results, os.path.join(args.out, "outputs.npz"))
        del results
        # Stop when another round would end further from the target than now.
        timed = sum(r["seconds"] for r in rounds)
        if (len(rounds) >= args.min_rounds and timed + timed / len(rounds) / 2 >= args.seconds
                and (tracer is None or len(rounds) % 2 == 1)):
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "config": workload.cfg.to_dict(),
        "case_seconds": times,
        "probe_seconds": probes,
        "rounds": rounds,
        "digests": digests,
        "attempted": sum(r["cases"] for r in rounds),
        "failed": failed,
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(cases[0] / seconds[0], seconds[1])
        tracer.dump(os.path.join(args.out, "trace.json"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
