"""The README's library example runs as written against the public API, and its
configuration table names every config field."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_block_runs():
    namespace = {}
    exec(compile(_python_block("Library use"), "README.md: Library use", "exec"), namespace)
    n = len(namespace["inputs"])
    assert n > 0
    assert namespace["predictions"].shape == (n, 2, 24)
    assert namespace["prediction"].shape == (2, 24)
    assert len(namespace["report"].test_metrics.per_horizon) == 24
    assert [m.shape for m in namespace["maps"]] == [(1, 4, 2, 2)] * 2


def test_readme_config_table_names_every_config_field():
    from spectral_attn.models import CONFIG_TYPES

    section = README.read_text(encoding="utf-8").split("\n## Configuration files\n", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| `")]
    named = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(named) == sorted(CONFIG_TYPES)


def test_package_root_exports_the_library_use_names_and_the_errors():
    """The root holds the names that "Library use" imports, the error
    classes and the submodules, and nothing else."""
    import inspect

    import spectral_attn
    from spectral_attn import errors

    block = _python_block("Library use")
    imported = re.search(r"from spectral_attn import \((.*?)\)", block, re.S).group(1)
    documented = {name.strip() for name in imported.split(",") if name.strip()}
    error_classes = {name for name, value in vars(errors).items()
                     if inspect.isclass(value) and issubclass(value, errors.SpectralAttnError)}
    exported = {name for name, value in vars(spectral_attn).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == documented | error_classes
