"""Command-line surface: run, stats-test, bench and inspect subcommands.

Configuration precedence is built-in defaults < --config file < explicit
flags. The default seed comes from the SEGSCREEN_SEED environment
variable when set and not empty; the --seed flag wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .bench import BenchSpec, run_bench
from .gating import GateConfig, GeometricParams, ScoringParams, read_json
from .pipeline import TIMING_STAGES, _jsonable, load_manifest, run_manifest
from .stats import STATISTIC_KINDS, StatisticalParams, two_sample_test

SEED_ENV_VAR = "SEGSCREEN_SEED"

# (flag, config field, type): one flag per field of the three parameter
# groups, named after the field and typed by its default.
_CONFIG_FLAGS = tuple(
    ("--" + f.name.replace("_", "-"), f.name, type(f.default))
    for params in (ScoringParams, StatisticalParams, GeometricParams)
    for f in fields(params)
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file with scoring/statistical/geometric sections")
    for flag, _field, typ in _CONFIG_FLAGS:
        if typ is tuple:
            parser.add_argument(flag, type=float, nargs="+", default=None,
                                help="ROI scale jitter factors")
        else:
            parser.add_argument(flag, type=typ, default=None)


def _resolve_config(args: argparse.Namespace) -> GateConfig:
    cfg = GateConfig.from_file(args.config) if args.config else GateConfig()
    overrides = {}
    for _flag, field_name, typ in _CONFIG_FLAGS:
        value = getattr(args, field_name)
        if value is not None:
            overrides[field_name] = typ(value)  # the --scales list becomes a tuple
    return cfg.override(**overrides)


def _default_seed(args: argparse.Namespace, fallback: int = 0) -> int:
    """--seed, else SEGSCREEN_SEED unless unset or empty, else ``fallback``."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _read_column(path: str) -> np.ndarray:
    """Single-column numeric text file; errors cite file and line number."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number: {text!r}") from None
    if not values:
        raise ValueError(f"{path}: no numeric values found")
    return np.array(values, dtype=np.float64)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        seed = _default_seed(args)
        cfg = _resolve_config(args)
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = run_manifest(manifest, cfg, base_seed=seed, jobs=args.jobs,
                          out_dir=args.out, dump_fused=args.dump_fused)
    print(json.dumps(_jsonable(result.summary), sort_keys=True, indent=2))
    return 1 if result.summary["n_failed"] > 0 else 0


def _cmd_stats_test(args: argparse.Namespace) -> int:
    try:
        x = _read_column(args.file_x)
        y = _read_column(args.file_y)
        params = StatisticalParams(permutations=args.permutations, statistic=args.statistic)
        outcome = two_sample_test(x, y, params, _default_seed(args))
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    record = {
        "statistic": outcome.statistic_observed,
        "p_value": outcome.p_value,
        "kind": params.statistic,
        "permutations": params.permutations,
    }
    if outcome.bandwidth_sigma is not None:
        record["sigma"] = outcome.bandwidth_sigma
    print(json.dumps(_jsonable(record), sort_keys=True, indent=2))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        cfg = _resolve_config(args)
        spec = BenchSpec.from_file(args.spec) if args.spec else BenchSpec()
        spec = replace(spec, seed=_default_seed(args, spec.seed))
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = run_bench(spec, cfg, jobs=args.jobs, dump_dir=args.dump_dir)
    summary = result.to_dict()
    if not args.per_case:
        summary.pop("cases")
    print(json.dumps(_jsonable(summary), sort_keys=True, indent=2))
    bound = cfg.statistical.alpha + args.fdr_tolerance
    if result.empirical_fdr > bound:
        print(f"empirical FDR {result.empirical_fdr:.4f} exceeds {bound:.4f}", file=sys.stderr)
        return 1
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        report = read_json(args.report, "report")
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    lines = [f"image: {report.get('image_id', '?')}"]
    if "error" in report:
        lines.append(f"  FAILED: {report['error']}")
        lines.extend(f"    {line}" for line in report.get("traceback", []))
    for warning in report.get("warnings", []):
        lines.append(f"  warning: {warning}")
    for roi in report.get("rois", []):
        lines.append(f"  roi scale {roi['scale']}: box {tuple(roi['box'])}")
    l1 = report.get("l1")
    if l1:
        lines.append(f"  L1 existence gate: {'pass' if l1['passed'] else 'FAIL'}")
        for check in l1["checks"]:
            mark = "ok" if check["passed"] else "FAIL"
            lines.append(f"    {check['quantity']} = {check['observed']:.6g} "
                         f"(threshold {check['threshold']:.6g}) [{mark}]")
        for note in l1.get("notes", []):
            lines.append(f"    note: {note}")
    for cand in report.get("candidates", []):
        lines.append(f"  candidate {cand['id']}: area {cand['area']}, "
                     f"mean_prob {cand['mean_prob']:.3f}, "
                     f"overlap {cand['overlap_with_control']:.3f} -> {cand['decision']}")
        if "p_value" in cand:
            sigma = f"sigma {cand['sigma']:.6g}, " if "sigma" in cand else ""
            lines.append(f"    statistic {cand['statistic']:.6g}, {sigma}"
                         f"p {cand['p_value']:.4g}, permutations_run {cand['permutations_run']}, "
                         f"bh_kept {cand['bh_kept']}")
    l3 = report.get("l3")
    if l3:
        check = l3["checks"][0]
        lines.append(f"  L3 case gate: {'pass' if l3['passed'] else 'FAIL'} "
                     f"(s_star {check['observed']:.4g} vs {check['threshold']:.4g})")
    final = ("failed" if "error" in report
             else "positive" if report.get("final_positive") else "negative (empty mask)")
    lines.append(f"  final: {final}")
    timing = report.get("timing")
    if timing:
        # Pipeline order, not the file's sorted key order.
        lines.append("  timing: " + ", ".join(f"{s} {timing[s] * 1e3:.1f} ms"
                                              for s in TIMING_STAGES if s in timing))
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segscreen",
        description="Statistical screening pipeline for segmentation probability maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process a dataset manifest end to end")
    p_run.add_argument("--manifest", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=_positive_int, default=1)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--dump-fused", action="store_true",
                       help="also write the fused probability map per image")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_stats = sub.add_parser("stats-test", help="generic two-sample test on numeric columns")
    p_stats.add_argument("file_x")
    p_stats.add_argument("file_y")
    p_stats.add_argument("--statistic", choices=STATISTIC_KINDS, default=StatisticalParams.statistic)
    p_stats.add_argument("--permutations", type=int, default=StatisticalParams.permutations)
    p_stats.add_argument("--seed", type=int, default=None)
    p_stats.set_defaults(func=_cmd_stats_test)

    p_bench = sub.add_parser("bench", help="run the synthetic benchmark")
    p_bench.add_argument("--spec", help="bench spec JSON (defaults apply when omitted)")
    p_bench.add_argument("--jobs", type=_positive_int, default=1)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--per-case", action="store_true", help="include per-case rows")
    p_bench.add_argument("--dump-dir", default=None,
                         help="write per-case intensity/fused/mask SGRID files here")
    p_bench.add_argument("--fdr-tolerance", type=float, default=0.014,
                         help="slack above alpha before the exit code turns nonzero")
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_inspect = sub.add_parser("inspect", help="pretty-print a case report")
    p_inspect.add_argument("report")
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
