"""The CI workflow is valid YAML in which every step can run."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def check_workflow(text: str):
    """Raise if ``text`` does not parse, if a step has neither ``run`` nor
    ``uses``, or if any ``name`` in it is not a str."""
    workflow = yaml.safe_load(text)

    def names(node):
        if isinstance(node, dict):
            if "name" in node:
                yield node["name"]
            for value in node.values():
                yield from names(value)
        elif isinstance(node, list):
            for value in node:
                yield from names(value)

    for name in names(workflow):
        assert isinstance(name, str), f"name {name!r} is not a str"
    for job, spec in workflow["jobs"].items():
        for step in spec["steps"]:
            assert "run" in step or "uses" in step, f"a step of {job} has neither run nor uses"


def test_workflow_steps_can_run():
    check_workflow(WORKFLOW.read_text(encoding="utf-8"))


@pytest.mark.parametrize("step, error", [
    # an unquoted ": " in a plain scalar makes the whole file invalid
    ("- name: Unit tests (all but the slow ones: C8a)\n  run: pytest", yaml.YAMLError),
    ("- name: 3.11\n  run: pytest", AssertionError),
    ("- name: Unit tests\n  with:\n    python-version: 3.11", AssertionError),
])
def test_broken_workflows_rejected(step, error):
    steps = "\n".join("      " + line for line in step.splitlines())
    with pytest.raises(error):
        check_workflow(f"jobs:\n  tests:\n    steps:\n{steps}\n")
