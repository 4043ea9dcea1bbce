"""The README's code stays true to the package: its example runs, its names resolve."""

import importlib
import re
from pathlib import Path

import pytest

import normgp

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {path.stem for path in Path(normgp.__file__).parent.glob("*.py")} - {"__init__"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library use)", "exec"), {})


def test_backticked_module_names_resolve():
    # `gpr.fit`, `normgp.cli.main`, `gpr.weighted_posterior_cov(model, ...)`
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    found = []
    for span in re.findall(r"`([^`]+)`", prose):
        named = re.fullmatch(r"(?:normgp\.)?(\w+)\.([A-Za-z_][\w.]*)(?:\(.*\))?", span, re.S)
        if named and named.group(1) in MODULES:
            found.append(named.groups())
    assert ("tabular_io", "_MODEL_SECTIONS") in found and ("cli", "main") in found
    missing = []
    for module, attributes in found:
        value = importlib.import_module(f"normgp.{module}")
        for attribute in attributes.split("."):
            value = getattr(value, attribute, None)
        if value is None:
            missing.append(f"{module}.{attributes}")
    assert missing == []
