#!/usr/bin/env python3
"""Download and verify the NSL-KDD train/test files.

Fetches KDDTrain+.txt and KDDTest+.txt into ./data (or --dest) from the
first reachable mirror, then reads each file with hdnids.parse_file, so
by the input rules every command applies: no line may be malformed, and
the files must have the documented record counts (125,973 train / 22,544
test). Needs the hdnids package installed. SHA-256 digests are printed
so downloads can be compared against published checksums; run with
--verify-only to check files you obtained some other way, e.g. the zip
from the UNB page https://www.unb.ca/cic/datasets/nsl.html.
"""

import argparse
import hashlib
import sys
import urllib.error
import urllib.request
from pathlib import Path

from hdnids import ParseError, parse_file

MIRRORS = [
    "https://raw.githubusercontent.com/defcom17/NSL_KDD/master/{name}",
    "https://raw.githubusercontent.com/jmnwong/NSL-KDD-Dataset/master/{name}",
]

EXPECTED = {
    "KDDTrain+.txt": 125973,
    "KDDTest+.txt": 22544,
}


def fetch(name: str, dest: Path) -> Path:
    target = dest / name
    last_error = None
    for mirror in MIRRORS:
        url = mirror.format(name=name)
        print(f"fetching {url}")
        try:
            with urllib.request.urlopen(url, timeout=60) as resp:
                target.write_bytes(resp.read())
            return target
        except (urllib.error.URLError, OSError) as exc:
            last_error = exc
            print(f"  failed: {exc}", file=sys.stderr)
    raise SystemExit(f"could not download {name} from any mirror: {last_error}")


def verify(path: Path, expected_records: int) -> bool:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    print(f"{path.name}: sha256 {sha.hexdigest()}")
    try:
        result = parse_file(path)
    except ParseError as exc:
        print(f"  WARNING: {exc}", file=sys.stderr)
        return False
    records, malformed = len(result.records), result.malformed_count
    print(f"  {records} records")
    ok = True
    if records != expected_records:
        print(f"  WARNING: expected {expected_records} records", file=sys.stderr)
        ok = False
    if malformed:
        print(f"  WARNING: {malformed} malformed lines", file=sys.stderr)
        ok = False
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dest", default="data", help="output directory (default ./data)")
    ap.add_argument("--verify-only", action="store_true",
                    help="only verify files already present in --dest")
    args = ap.parse_args()

    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for name, expected in EXPECTED.items():
        path = dest / name
        if not args.verify_only:
            path = fetch(name, dest)
        elif not path.exists():
            print(f"{path}: missing", file=sys.stderr)
            all_ok = False
            continue
        all_ok = verify(path, expected) and all_ok
    if all_ok:
        print(f"done; point the tests at the data with HDNIDS_DATA={dest.resolve()}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
