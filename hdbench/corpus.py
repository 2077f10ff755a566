"""Seeded, vectorized generator of NSL-KDD-shaped train and test files.

The files have NSL-KDD's layout: 41 feature fields, an attack label, and on
most lines a difficulty score, comma-separated with no header. Labels are real
NSL-KDD attack names, so the label map shipped with hdnids applies.

Each class owns a disjoint slice of every numeric column's range. A share of
records (``OVERLAP``) draws its numeric columns from another class's slice
instead; those records keep their true label, so retraining keeps missing a
stable share of them on every epoch. 0.10 gives a 5-10% miss rate per epoch
at D=10000, K=10, alpha=1.

The same seed gives byte-identical files. Nothing here imports hdnids: the
program under test only ever sees the files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

NUM_FEATURES = 41
CLASSES = ("normal", "dos", "probe", "r2l", "u2r")

# KDDTrain+ and KDDTest+ record counts per class.
TRAIN_COUNTS = (67343, 45927, 11656, 995, 52)  # 125,973 records
TEST_COUNTS = (9711, 7458, 2421, 2754, 200)  # 22,544 records

ATTACKS = {
    "normal": ("normal",),
    "dos": ("neptune", "smurf", "back", "teardrop", "pod", "land"),
    "probe": ("satan", "ipsweep", "portsweep", "nmap"),
    "r2l": ("warezclient", "guess_passwd", "warezmaster", "imap", "ftp_write"),
    "u2r": ("buffer_overflow", "rootkit", "loadmodule", "perl"),
}

PROTOCOLS = ("tcp", "udp", "icmp")
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "RSTOS0", "S3", "OTH")
SERVICES = (
    "http", "private", "domain_u", "smtp", "ftp_data", "eco_i", "other", "ecr_i",
    "telnet", "finger", "ftp", "auth", "Z39_50", "uucp", "courier", "bgp",
    "whois", "uucp_path", "iso_tsap", "time", "imap4", "nnsp", "vmnet", "urp_i",
    "domain", "ctf", "csnet_ns", "supdup", "discard", "http_443", "daytime",
    "gopher", "efs", "systat", "link", "exec", "hostnames", "name", "mtp",
    "echo", "klogin", "login", "ldap", "netbios_dgm", "sunrpc",
)
# Services that occur only in the test file: they take the encoder's OOV row.
UNSEEN_SERVICES = ("aol", "harvest", "http_2784", "http_8001")
PREFERRED_SERVICE = ("http", "private", "eco_i", "ftp_data", "telnet")

SYMBOLIC = (1, 2, 3)
INDICATORS = (6, 11, 13, 20, 21)
CONSTANT_ZERO = (19,)  # num_outbound_cmds is always 0 in NSL-KDD
RATES = tuple(range(24, 31)) + tuple(range(33, 41))
BYTES = (4, 5)
INTEGERS = tuple(
    j for j in range(NUM_FEATURES)
    if j not in SYMBOLIC + INDICATORS + CONSTANT_ZERO + RATES + BYTES
)

OVERLAP = 0.10
UNSEEN_SHARE = 0.01
MALFORMED_LINES = 24
DIFFICULTY_SHARE = 6 / 7
PREP_LINES = 20000  # train head the scoring workloads' model is trained on
SUBSET_LINES = 4000  # train head for the --jobs 1 / --jobs 2 identity check
WARMUP_LINES = 512  # well-formed test lines for the scoring warm-up

# Class c's slice of a numeric column is [c*(WIDTH+GAP), c*(WIDTH+GAP)+WIDTH).
WIDTH, GAP = 300, 700
_RATE_TEXT = np.array([f"{i / 100:.2f}" for i in range(101)], dtype=object)

_TAG_TRAIN, _TAG_TEST = 0x7A41, 0x7E57


def _class_column(counts, rng) -> np.ndarray:
    """Shuffled class index per record with exactly the given counts."""
    y = np.repeat(np.arange(len(counts)), counts)
    return y[rng.permutation(len(y))]


def _lines(counts, rng, *, unseen_share: float) -> list[str]:
    y = _class_column(counts, rng)
    n = len(y)
    # numeric class: the true class, or for an OVERLAP share another one
    shift = rng.integers(1, len(CLASSES), size=n)
    k = np.where(rng.random(n) < OVERLAP, (y + shift) % len(CLASSES), y)
    u = rng.random((n, NUM_FEATURES))
    pos = k[:, None] * (WIDTH + GAP) + u * WIDTH  # in [0, 5000)

    table = np.empty((n, NUM_FEATURES + 2), dtype=object)
    for j in INTEGERS:
        table[:, j] = pos[:, j].astype(np.int64).astype(str)
    for j in BYTES:
        table[:, j] = (pos[:, j] * 97).astype(np.int64).astype(str)
    for j in RATES:
        table[:, j] = _RATE_TEXT[(pos[:, j] / 50).astype(np.int64)]
    for j in INDICATORS:
        table[:, j] = np.where(u[:, j] < 0.2 + 0.15 * k, "1", "0")
    for j in CONSTANT_ZERO:
        table[:, j] = "0"

    table[:, 1] = np.array(PROTOCOLS, dtype=object)[rng.integers(len(PROTOCOLS), size=n)]
    table[:, 3] = np.array(FLAGS, dtype=object)[rng.integers(len(FLAGS), size=n)]
    service = np.where(
        rng.random(n) < 0.8,
        np.array(PREFERRED_SERVICE, dtype=object)[y],
        np.array(SERVICES, dtype=object)[rng.integers(len(SERVICES), size=n)],
    )
    unseen = rng.random(n) < unseen_share
    service[unseen] = np.array(UNSEEN_SERVICES, dtype=object)[
        rng.integers(len(UNSEEN_SERVICES), size=int(unseen.sum()))]
    table[:, 2] = service

    attack_pick = rng.integers(0, 1 << 30, size=n)
    names = [ATTACKS[c] for c in CLASSES]
    table[:, NUM_FEATURES] = [names[c][a % len(names[c])] for c, a in zip(y.tolist(), attack_pick.tolist())]
    table[:, NUM_FEATURES + 1] = rng.integers(0, 22, size=n).astype(str)
    with_difficulty = rng.random(n) < DIFFICULTY_SHARE
    rows = table.tolist()
    return [",".join(row if full else row[:-1]) for row, full in zip(rows, with_difficulty.tolist())]


def _malformed(lines: list[str], count: int, rng) -> list[str]:
    """Lines that parse_file rejects in both labelled and unlabelled mode."""
    out = []
    for i, src in enumerate(rng.choice(len(lines), size=count, replace=False).tolist()):
        fields = lines[src].split(",")
        if i % 2:
            out.append(",".join(fields[:20]))  # truncated record
        else:  # 43 fields with a non-integer difficulty
            out.append(",".join(fields[:NUM_FEATURES + 1] + ["n/a"]))
    return out


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 64), tag])  # any int seed, negative too


def train_lines(seed: int) -> list[str]:
    rng = _rng(seed, _TAG_TRAIN)
    return _lines(TRAIN_COUNTS, rng, unseen_share=0.0)


def test_lines(seed: int) -> list[str]:
    """KDDTest+-sized records with MALFORMED_LINES bad lines spread among them."""
    rng = _rng(seed, _TAG_TEST)
    lines = _lines(TEST_COUNTS, rng, unseen_share=UNSEEN_SHARE)
    bad = _malformed(lines, MALFORMED_LINES, rng)
    for at, line in zip(sorted(rng.choice(len(lines), size=len(bad), replace=False).tolist(),
                               reverse=True), bad):
        lines.insert(at, line)
    return lines


def write(path: Path, lines: list[str]) -> str:
    """Write lines and return the file's SHA-256."""
    data = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def generate(seed: int, out_dir: Path) -> dict:
    """Write the corpus files for a seed; return the main files' SHA-256 and sizes.

    train.txt and test.txt are the corpus; head.txt, subset.txt and
    warmup.txt are prefixes of them that the workloads use for preparation,
    the jobs-identity check and warm-up.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    train, test = train_lines(seed), test_lines(seed)
    info = {
        "seed": seed,
        "train_sha256": write(out_dir / "train.txt", train),
        "test_sha256": write(out_dir / "test.txt", test),
        "train_records": len(train),
        "test_records": len(test) - MALFORMED_LINES,
        "malformed": MALFORMED_LINES,
    }
    write(out_dir / "head.txt", train[:PREP_LINES])
    write(out_dir / "subset.txt", train[:SUBSET_LINES])
    well_formed = (line for line in test if line.count(",") in (41, 42) and not line.endswith("n/a"))
    write(out_dir / "warmup.txt", [line for _, line in zip(range(WARMUP_LINES), well_formed)])
    return info


if __name__ == "__main__":
    import argparse
    import json

    p = argparse.ArgumentParser(description="Write the benchmark corpus for a seed.")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    a = p.parse_args()
    print(json.dumps(generate(a.seed, Path(a.out))))
