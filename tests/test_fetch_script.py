"""scripts/fetch_nslkdd.py checks a file by the input rules every command applies."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fetch_nslkdd.py"
FEATURES = ",".join(str(i) for i in range(41))


@pytest.fixture(scope="module")
def fetch():
    spec = importlib.util.spec_from_file_location("fetch_nslkdd", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, data: bytes) -> Path:
    path = tmp_path / "KDDTrain+.txt"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_counts_records_at_any_line_end(fetch, tmp_path, capsys, end):
    data = end.join([f"{FEATURES},normal,21".encode(), f"{FEATURES},smurf".encode(),
                     b"", f"{FEATURES},back,3".encode()]) + end
    path = write(tmp_path, data)
    assert fetch.verify(path, 3)
    out = capsys.readouterr().out
    assert f"sha256 {hashlib.sha256(data).hexdigest()}\n  3 records\n" in out
    assert not fetch.verify(path, 4)


@pytest.mark.parametrize("good", [2, 200])
def test_bad_difficulty_fails(fetch, tmp_path, capsys, good):
    # one bad line in 3 aborts the parse; one in 201 is a malformed line
    lines = [f"{FEATURES},normal,21"] * good + [f"{FEATURES},normal,hard"]
    path = write(tmp_path, "\n".join(lines).encode())
    assert not fetch.verify(path, good)
    want = "difficulty column 'hard'" if good == 2 else "1 malformed lines"
    assert want in capsys.readouterr().err
