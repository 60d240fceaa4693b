import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ci_runs_the_roadmap_tier1_command():
    # Read as text, so that the check needs no YAML parser.
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    verify = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = [line.strip()[len("run: "):] for line in workflow.splitlines()
            if line.strip().startswith("run: ")]
    assert runs[-1] == verify
