"""Naive unpacked reference implementations used as test oracles.

Everything here works on plain Python lists of 0/1 ints, one element per
bit, with straightforward loops. No packing, no numpy vector tricks:
packed rows from the code under test are unpacked by a plain loop. The
point is that this code is simple enough to be obviously correct, so the
fast packed kernel can be checked against it bit for bit.
"""

import math

import numpy as np


def ref_unpack(row, dim):
    """Bits of a packed row: byte i // 8 holds bit i at position i % 8."""
    bits = []
    for byte in row:
        for k in range(8):
            bits.append((int(byte) >> k) & 1)
    return bits[:dim]


def ref_xor(a, b):
    assert len(a) == len(b)
    return [x ^ y for x, y in zip(a, b)]


def ref_popcount(bits):
    return sum(bits)


def ref_hamming(a, b):
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


def ref_flip(bits, positions):
    out = list(bits)
    for p in positions:
        out[p] ^= 1
    return out


def ref_bundle(rows):
    """Coordinate-wise sum of many bit rows."""
    assert rows
    out = [0] * len(rows[0])
    for row in rows:
        for i, bit in enumerate(row):
            out[i] += bit
    return out


def ref_binarize(sums, threshold):
    return [1 if s > threshold else 0 for s in sums]


def ref_cosine(bits, values):
    """Cosine of a binary vector against a real-valued one; 0 if either is zero."""
    dot = sum(v for b, v in zip(bits, values) if b)
    h_norm = math.sqrt(ref_popcount(bits))
    c_norm = math.sqrt(sum(v * v for v in values))
    if h_norm == 0.0 or c_norm == 0.0:
        return 0.0
    return dot / (h_norm * c_norm)


def ref_encode_binary(record, codebook, schema, threshold, level_for):
    """Bind each feature's base with its value vector, bundle, binarize.

    level_for(j, raw_value) must return the packed value row for feature
    j; bin selection is shared with the implementation under test on
    purpose, so this oracle isolates the bit-level kernel work. Feature j's
    base is codebook row codebook.offsets[j].
    """
    rows = []
    for j, raw in enumerate(record):
        base = ref_unpack(codebook.matrix[codebook.offsets[j]], codebook.dim)
        level = ref_unpack(level_for(j, raw), codebook.dim)
        rows.append(ref_xor(base, level))
    return ref_binarize(ref_bundle(rows), threshold)


def ref_bin(raw, spec, bins):
    """0-based uniform-width bin of one continuous raw value, clamped to the
    edge bins; a degenerate range (min == max) puts everything in bin 0."""
    value = float(raw)
    if spec.transform == "log1p":
        # numpy's log1p, as the encoder uses: libm's can differ in the last ulp
        value = float(np.log1p(max(value, 0.0)))
    lo, hi = spec.min, spec.max
    if lo == hi:
        return 0
    if value >= hi:
        return bins - 1
    width = (hi - lo) / bins
    return min(max(math.floor((value - lo) / width), 0), bins - 1)


def ref_retrain_epoch(reps, samples, labels, alpha):
    """One naive sequential miss/match pass. Mutates and returns reps.

    reps: list of per-class lists of floats. samples: list of bit lists.
    Decision rule: argmax of dot / class-norm, zero-norm classes score 0,
    lowest index wins ties; identical to the shipped retraining loop.
    """
    updates = 0
    correct = 0
    for bits, true in zip(samples, labels):
        scores = []
        for rep in reps:
            dot = sum(v for b, v in zip(bits, rep) if b)
            norm = math.sqrt(sum(v * v for v in rep))
            scores.append(dot / norm if norm > 0 else 0.0)
        pred = max(range(len(reps)), key=lambda c: (scores[c], -c))
        if pred == true:
            correct += 1
            continue
        updates += 1
        for i, b in enumerate(bits):
            if b:
                reps[pred][i] -= alpha
                reps[true][i] += alpha
    return reps, updates, correct
