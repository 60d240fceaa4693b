"""Three-level false-positive gating for empty-mask decisions.

L1 decides whether the slice plausibly contains a lesion at all, from
the fused map's global maximum, the positive-pixel ratio inside the ROI
domain, and a KS comparison of probabilities inside versus outside the
organ control region. L2 filters individual candidates on area, mean
probability and control overlap. L3 is case-level: if the best
stability score mean_prob * sqrt(area) stays below a cutoff, the whole
case emits an empty mask. Every L2 survivor scores at least
tau_mean * sqrt(a_min), so L3 can reject only when tau_case exceeds that
bound; at the defaults (0.5 * sqrt(80) = 4.47 against tau_case 2.0) it
keeps every non-empty survivor set.

Comparisons transcribe the rule directions literally: ">="-style
requirements pass at equality, "<"-style rejections do not trigger at
equality.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

from .candidates import CandidateRegion
from .fusion import check_view_rule
from .geometry import check_padding_mm, check_scales
from .grid import BinaryMask, ScalarGrid, positive_ratio
from .stats import StatisticalParams, ks_two_sample


def _has_type(value, typ: type) -> bool:
    if isinstance(value, bool) and typ is not bool:
        return False  # JSON true/false is never a number
    return isinstance(value, (int, float) if typ is float else typ)


def json_fields(params_cls, entries: dict, source: str, section: str | None = None) -> dict:
    """JSON ``entries`` converted to the types of ``params_cls``'s field
    defaults: an int stands for a float, a bool is never a number, and a
    tuple field takes a list of its default's element type. An error
    names the source and the key."""
    out = {}
    for key, value in entries.items():
        default = params_cls.__dataclass_fields__[key].default
        name = f"{section}.{key}" if section else key
        if isinstance(default, tuple):
            typ = type(default[0])
            if not isinstance(value, (list, tuple)) or not all(_has_type(v, typ) for v in value):
                raise ValueError(f"{source}: {name} must be a list of {typ.__name__}, got {value!r}")
            out[key] = tuple(typ(v) for v in value)
        else:
            typ = type(default)
            if not _has_type(value, typ):
                raise ValueError(f"{source}: {name} must be {typ.__name__}, got {value!r}")
            out[key] = typ(value)
    return out


@dataclass(frozen=True)
class ScoringParams:
    tau_bin: float = 0.4
    view_rule: str = "max"
    scales: tuple[float, ...] = (0.8, 1.0, 1.2)


@dataclass(frozen=True)
class GeometricParams:
    tau_max: float = 0.45
    tau_ratio: float = 2e-4
    a_min: int = 80
    tau_mean: float = 0.5
    tau_intersect: float = 0.05
    tau_case: float = 2.0
    pre_filter_area: int = 50
    padding_mm: float = 25.0


@dataclass(frozen=True)
class GateConfig:
    """The three parameter groups with their fixed defaults."""

    scoring: ScoringParams = field(default_factory=ScoringParams)
    statistical: StatisticalParams = field(default_factory=StatisticalParams)
    geometric: GeometricParams = field(default_factory=GeometricParams)

    def __post_init__(self) -> None:
        # Rules that belong to the stage consuming a value are applied by
        # that stage's own checks, so a config accepted here cannot fail
        # an image later. StatisticalParams checks itself when it is built.
        s, g = self.scoring, self.geometric
        if not (0.30 <= s.tau_bin <= 0.55):
            raise ValueError(f"tau_bin must lie in [0.30, 0.55], got {s.tau_bin}")
        check_view_rule(s.view_rule)
        check_scales(s.scales)
        for name in ("tau_max", "tau_ratio", "tau_mean", "tau_intersect"):
            if not (0.0 <= getattr(g, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(g, name)}")
        if g.a_min < 0 or g.pre_filter_area < 0:
            raise ValueError("area thresholds must be >= 0")
        if g.tau_case < 0:
            raise ValueError(f"tau_case must be >= 0, got {g.tau_case}")
        check_padding_mm((g.padding_mm,))

    def to_dict(self) -> dict:
        return {"scoring": asdict(self.scoring), "statistical": asdict(self.statistical),
                "geometric": asdict(self.geometric)}

    @classmethod
    def from_dict(cls, data: dict, source: str = "<config>") -> "GateConfig":
        if not isinstance(data, dict):
            raise ValueError(f"{source}: config must be a JSON object")
        known = {"scoring", "statistical", "geometric"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"{source}: unknown config sections {sorted(unknown)}")
        kwargs = {}
        for section, params_cls in (("scoring", ScoringParams), ("statistical", StatisticalParams),
                                    ("geometric", GeometricParams)):
            if section not in data:
                continue
            entries = data[section]
            if not isinstance(entries, dict):
                raise ValueError(f"{source}: section {section!r} must be an object")
            valid = set(params_cls.__dataclass_fields__)
            bad = set(entries) - valid
            if bad:
                raise ValueError(f"{source}: unknown keys {sorted(bad)} in section {section!r}")
            kwargs[section] = (params_cls, json_fields(params_cls, entries, source, section))
        try:
            return cls(**{section: params_cls(**values)
                          for section, (params_cls, values) in kwargs.items()})
        except ValueError as err:
            raise ValueError(f"{source}: {err}") from err

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "GateConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: invalid JSON in config file: {err}") from err
        return cls.from_dict(data, source=str(path))

    def override(self, **flat) -> "GateConfig":
        """Apply flat field overrides like tau_bin=0.35 across sections."""
        out = self
        for name, value in flat.items():
            if value is None:
                continue
            for section in ("scoring", "statistical", "geometric"):
                params = getattr(out, section)
                if name in params.__dataclass_fields__:
                    out = replace(out, **{section: replace(params, **{name: value})})
                    break
            else:
                raise ValueError(f"unknown config field {name!r}")
        return out


@dataclass(frozen=True)
class GateCheck:
    quantity: str
    observed: float
    threshold: float
    passed: bool


@dataclass
class GateVerdict:
    passed: bool
    level: str
    checks: list[GateCheck]
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "level": self.level,
            "checks": [asdict(c) for c in self.checks],
            "notes": list(self.notes),
        }


def gate_existence(
    fused: ScalarGrid,
    roi_domain: BinaryMask,
    control_mask: BinaryMask,
    cfg: GateConfig,
) -> GateVerdict:
    """L1: declare the case negative unless the fused map shows evidence.

    Fails when the global max falls below tau_max, the positive ratio in
    the ROI domain falls below tau_ratio, or the KS p-value comparing
    control-region probabilities against their complement exceeds
    tau_ks. A degenerate control mask (all true or all false) skips the
    KS check with a note; an empty ROI domain falls back to the full
    frame.
    """
    g, st = cfg.geometric, cfg.statistical
    notes: list[str] = []

    if roi_domain.frame != fused.frame or control_mask.frame != fused.frame:
        raise ValueError("mask dimensions must match the fused map")

    if roi_domain.is_empty():
        notes.append("roi domain empty; positive ratio computed over the full frame")
        roi_domain = BinaryMask.full(fused.width, fused.height, True)

    p_max = float(fused.values.max())
    rho = positive_ratio(fused, roi_domain, cfg.scoring.tau_bin)

    checks = [
        GateCheck("p_max", p_max, g.tau_max, p_max >= g.tau_max),
        GateCheck("positive_ratio", rho, g.tau_ratio, rho >= g.tau_ratio),
    ]

    n_control = control_mask.count
    if n_control == 0 or n_control == control_mask.width * control_mask.height:
        notes.append("control mask is degenerate (all true or all false); KS check skipped")
    else:
        fg = fused.values[control_mask.bits]
        bg = fused.values[~control_mask.bits]
        p_ks = ks_two_sample(fg, bg)
        checks.append(GateCheck("p_ks", p_ks, st.tau_ks, p_ks <= st.tau_ks))

    return GateVerdict(passed=all(c.passed for c in checks), level="L1", checks=checks, notes=notes)


def gate_candidate(candidate: CandidateRegion, cfg: GateConfig) -> GateVerdict:
    """L2: area, mean probability and control-overlap requirements,
    all inclusive at the threshold."""
    g = cfg.geometric
    checks = [
        GateCheck("area", float(candidate.area), float(g.a_min), candidate.area >= g.a_min),
        GateCheck("mean_prob", candidate.mean_prob, g.tau_mean, candidate.mean_prob >= g.tau_mean),
        GateCheck("overlap_with_control", candidate.overlap_with_control, g.tau_intersect,
                  candidate.overlap_with_control >= g.tau_intersect),
    ]
    return GateVerdict(passed=all(c.passed for c in checks), level="L2", checks=checks)


def gate_case(
    survivors: list[CandidateRegion], cfg: GateConfig
) -> tuple[list[CandidateRegion], GateVerdict]:
    """L3: keep everything or emit nothing.

    The stability score of candidate k is mean_prob * sqrt(area); if the
    best score is strictly below tau_case (or no candidate survived the
    earlier stages), the case returns an empty list.
    """
    tau = cfg.geometric.tau_case
    if not survivors:
        verdict = GateVerdict(
            passed=False, level="L3",
            checks=[GateCheck("s_star", 0.0, tau, False)],
            notes=["no candidates reached the case gate"],
        )
        return [], verdict
    s_star = max(c.mean_prob * math.sqrt(c.area) for c in survivors)
    passed = s_star >= tau
    verdict = GateVerdict(passed=passed, level="L3",
                          checks=[GateCheck("s_star", float(s_star), tau, passed)])
    return (list(survivors) if passed else []), verdict
