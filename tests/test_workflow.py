import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def workflow_runs() -> list[str]:
    """The workflow's ``run:`` commands in order, read as text, so that the
    check needs no YAML parser."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    return [line.strip()[len("run: "):] for line in workflow.splitlines()
            if line.strip().startswith("run: ")]


def test_ci_runs_the_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    verify = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert workflow_runs()[-1] == verify


def test_ci_runs_the_acceptance_bench_before_tier1():
    # Tier-1 is the last step (the test above).
    assert any(run.endswith("-m segscreen.cli bench --spec tests/data/acceptance_bench.json")
               for run in workflow_runs()[:-1])
