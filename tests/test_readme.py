"""The README's library example runs as written, and the package exports
every name it lists."""

import re
from pathlib import Path

import hdnids
from conftest import DEFAULT_COUNTS, make_synth_lines

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The ```python block under the README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, capsys):
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    train.write_text("\n".join(make_synth_lines(DEFAULT_COUNTS, seed=7)) + "\n")
    test.write_text("\n".join(make_synth_lines(DEFAULT_COUNTS, seed=8)) + "\n")
    code = library_example()
    for name, path in [("data/KDDTrain+.txt", train), ("data/KDDTest+.txt", test),
                       ("nids.model", tmp_path / "nids.model")]:
        assert f'"{name}"' in code
        code = code.replace(f'"{name}"', repr(str(path)))
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "nids.model").exists()
    accuracy, first_ten = capsys.readouterr().out.splitlines()
    assert 0 <= float(accuracy) <= 1
    assert first_ten.startswith("[")


def test_all_names_resolve():
    missing = [name for name in hdnids.__all__ if not hasattr(hdnids, name)]
    assert missing == []
