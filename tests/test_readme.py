"""The README's "Library API" examples, run as written in a scratch
directory. A line ending in `# ConfigError: <path>[, <path>...]` must
raise ConfigError whose problems name exactly those paths, in order."""

import re
from pathlib import Path

import pytest

from blfstep import ConfigError, RbfNetwork

README = Path(__file__).resolve().parents[1] / "README.md"
RAISES = re.compile(r"\s*# ConfigError: (.+)$")


def library_api_blocks() -> list:
    """The python code blocks of the README's "Library API" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library API\n", 1)[1]
    return re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)


def test_library_api_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the first block writes run.csv
    namespace, pending, named = {}, [], []
    for line in "".join(library_api_blocks()).splitlines():
        raises = RAISES.search(line)
        if raises is None:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        with pytest.raises(ConfigError) as err:
            exec(line[:raises.start()], namespace)
        paths = raises.group(1).split(", ")
        assert [path for path, _ in err.value.problems] == paths, line
        named += paths
    exec("\n".join(pending), namespace)
    assert named == [".horizon", "beta", "plant"]
    assert namespace["wide"].rbf.center_values == RbfNetwork.lattice(30, 2).center_values
    assert (tmp_path / "run.csv").is_file()
