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

The gates' config lives here too, with the one JSON reader that configs,
bench specs, manifests and plans go through: ``read_json`` parses a
file, and ``from_json`` types a JSON object by a settings class's
annotations, rejects unknown keys and builds the class, which checks
its own values.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import types
import typing
from dataclasses import asdict, dataclass, field, replace

from .candidates import CandidateRegion
from .fusion import check_view_rule
from .geometry import DEFAULT_PADDING_MM, DEFAULT_SCALES, check_padding_mm, check_scales
from .grid import BinaryMask, ScalarGrid, positive_ratio
from .stats import StatisticalParams, ks_two_sample

# The range of tau_bin; no candidate pixel lies below TAU_BIN_MIN.
TAU_BIN_MIN, TAU_BIN_MAX = 0.30, 0.55


def read_json(path: str | os.PathLike, what: str):
    """The parsed JSON file at ``path``; a parse error names the file and ``what``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON in {what}: {err}") from err


@functools.cache
def json_types(cls) -> types.MappingProxyType:
    """Each field of dataclass ``cls`` with its annotated type, read-only
    because every caller shares it."""
    hints = typing.get_type_hints(cls)
    return types.MappingProxyType({f.name: hints[f.name] for f in dataclasses.fields(cls)})


def _has_type(value, typ) -> bool:
    if isinstance(value, bool) and typ is not bool:
        return False  # JSON true/false is never a number
    return isinstance(value, (int, float) if typ is float else typ)


def _json_value(value, typ, source: str, name: str):
    if dataclasses.is_dataclass(typ):
        return from_json(typ, value, source, section=name)
    if typing.get_origin(typ) is types.UnionType:  # X | None
        if value is None:
            return None
        typ = typing.get_args(typ)[0]
    if typing.get_origin(typ) is tuple:
        item = typing.get_args(typ)[0]
        if not isinstance(value, (list, tuple)) or not all(_has_type(v, item) for v in value):
            raise ValueError(f"{source}: {name} must be a list of {item.__name__}, got {value!r}")
        return tuple(item(v) for v in value)
    if not _has_type(value, typ):
        raise ValueError(f"{source}: {name} must be {typ.__name__}, got {value!r}")
    return typ(value)


def json_fields(data, schema: dict, source: str, what: str, section: str | None = None) -> dict:
    """The JSON object ``data`` with each value converted to the type that
    ``schema`` gives its key: an int stands for a float, a bool is never a
    number, a list stands for a tuple of its element type, null for the
    None of ``X | None``, and an object for a dataclass. Any other value,
    a key missing from ``schema`` or a ``data`` that is not an object is an
    error naming ``source`` and the key (``section.key`` in a section);
    ``what`` names the object itself."""
    if not isinstance(data, dict):
        raise ValueError(f"{source}: {what} must be a JSON object")
    unknown = set(data) - set(schema)
    if unknown:
        raise ValueError(f"{source}: unknown {what} fields {sorted(unknown)}")
    return {key: _json_value(value, schema[key], source, f"{section}.{key}" if section else key)
            for key, value in data.items()}


def build(cls, source: str, **values):
    """``cls(**values)``, with ``source`` naming the input in its errors."""
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in values
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{source}: missing fields {missing}")
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from err


def from_json(cls, data, source: str, section: str | None = None, what: str | None = None):
    """Dataclass ``cls`` from the JSON object ``data``, typed by the class's
    annotations as json_fields says; ``what`` defaults to ``section``."""
    return build(cls, source, **json_fields(data, json_types(cls), source, what or section, section))


@dataclass(frozen=True)
class ScoringParams:
    tau_bin: float = 0.4
    view_rule: str = "max"
    scales: tuple[float, ...] = DEFAULT_SCALES

    def __post_init__(self) -> None:
        if not (TAU_BIN_MIN <= self.tau_bin <= TAU_BIN_MAX):
            raise ValueError(f"tau_bin must lie in [{TAU_BIN_MIN:.2f}, {TAU_BIN_MAX:.2f}], "
                             f"got {self.tau_bin}")
        check_view_rule(self.view_rule)
        check_scales(self.scales)


@dataclass(frozen=True)
class GeometricParams:
    tau_max: float = 0.45
    tau_ratio: float = 2e-4
    a_min: int = 80
    tau_mean: float = 0.5
    tau_intersect: float = 0.05
    tau_case: float = 2.0
    pre_filter_area: int = 50
    padding_mm: float = DEFAULT_PADDING_MM

    def __post_init__(self) -> None:
        for name in ("tau_max", "tau_ratio", "tau_mean", "tau_intersect"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("a_min", "pre_filter_area"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 <= self.tau_case < math.inf):
            raise ValueError(f"tau_case must be finite and >= 0, got {self.tau_case}")
        check_padding_mm((self.padding_mm,))


@dataclass(frozen=True)
class GateConfig:
    """The three parameter groups with their fixed defaults; each group
    checks its own values when it is built."""

    scoring: ScoringParams = field(default_factory=ScoringParams)
    statistical: StatisticalParams = field(default_factory=StatisticalParams)
    geometric: GeometricParams = field(default_factory=GeometricParams)

    def to_dict(self) -> dict:
        return {"scoring": asdict(self.scoring), "statistical": asdict(self.statistical),
                "geometric": asdict(self.geometric)}

    @classmethod
    def from_dict(cls, data: dict, source: str = "<config>") -> "GateConfig":
        return from_json(cls, data, source, what="config")

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "GateConfig":
        return cls.from_dict(read_json(path, "config file"), source=str(path))

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
