"""Naive unpacked reference implementations used as test oracles.

Everything here works on plain Python lists of 0/1 ints, one element per
bit, with straightforward loops. No packing, no numpy vector tricks:
packed rows from the code under test are unpacked by a plain loop. The
point is that this code is simple enough to be obviously correct, so the
fast packed kernel can be checked against it bit for bit. The ingestion
oracles at the end likewise read a file line by line and map every value
of every record one string at a time.
"""

import logging
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


# --- ingestion oracles --------------------------------------------------------
# The per-record text path that the columnar ingestion in hdnids.dataset
# replaced: the file read line by line in text mode, and every column of every
# record mapped one string at a time.


def ref_parse_line(line, line_no=0, allow_unlabeled=False):
    """RawRecord of one comma-separated line: 42 fields (features and label)
    or 43 (and difficulty); 41 bare feature fields only when allow_unlabeled
    is set. Any other line raises the ParseError naming why."""
    from hdnids.dataset import NUM_FEATURES, ParseError, RawRecord

    fields = line.split(",")
    n = len(fields)
    if n == NUM_FEATURES + 1:
        values, label, difficulty = fields[:NUM_FEATURES], fields[NUM_FEATURES], None
    elif n == NUM_FEATURES + 2:
        values, label = fields[:NUM_FEATURES], fields[NUM_FEATURES]
        try:
            difficulty = int(fields[NUM_FEATURES + 1])
        except ValueError:
            raise ParseError(
                f"line {line_no}: difficulty column {fields[NUM_FEATURES + 1]!r} "
                "is not an integer"
            ) from None
    elif allow_unlabeled and n == NUM_FEATURES:
        values, label, difficulty = fields, None, None
    else:
        raise ParseError(
            f"line {line_no}: expected {NUM_FEATURES + 1} or {NUM_FEATURES + 2} "
            f"comma-separated fields, got {n}"
        )
    return RawRecord(values=tuple(values), label=None if label is None else label.strip(),
                     difficulty=difficulty, line_no=line_no)


def ref_scan(path, allow_unlabeled=False):
    """(records, lines, malformed) of a file read line by line in text mode,
    whatever share of its lines is malformed. lines holds each record's line
    as read, without its line end; malformed each other line that is not
    blank, as (line_no, reason)."""
    from hdnids.dataset import ParseError

    records, lines, malformed = [], [], []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            try:
                records.append(ref_parse_line(line, line_no, allow_unlabeled=allow_unlabeled))
                lines.append(line)
            except ParseError as exc:
                malformed.append((line_no, str(exc)))
    return records, lines, malformed


def ref_parse_file(path, allow_unlabeled=False):
    """ref_scan of a file, or the ParseError parse_file raises for a file
    with no records or more than 1% malformed lines."""
    from hdnids.dataset import ParseError

    records, lines, malformed = ref_scan(path, allow_unlabeled)
    total = len(records) + len(malformed)
    if not total:
        raise ParseError(f"{path}: no records")
    if len(malformed) / total > 0.01:
        raise ParseError(
            f"{path}: {len(malformed)} of {total} lines malformed (>1%); "
            f"first: {malformed[0][1]}"
        )
    return records, lines, malformed


def ref_numbers(column, name, lines=None):
    """float() of each raw string of a continuous column; a ParseError names
    the column, the first value that is not a finite number, and its line
    when lines (one per value) is given and the line is not 0."""
    from hdnids.dataset import ParseError

    values = []
    for i, raw in enumerate(column):
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            where = f"line {lines[i]}: " if lines is not None and lines[i] else ""
            raise ParseError(f"{where}column {name!r} has non-numeric value {raw!r}")
        values.append(value)
    return values


def ref_infer_schema(records, log_scale=False):
    """The schema of RawRecords, every column read as a list of strings."""
    from hdnids.codebook import FeatureSchema, FeatureSpec
    from hdnids.dataset import COLUMN_NAMES, SYMBOLIC_COLUMNS

    transform = "log1p" if log_scale else "none"
    lines = [r.line_no for r in records]
    specs = []
    for j, name in enumerate(COLUMN_NAMES):
        column = [r.values[j] for r in records]
        if j in SYMBOLIC_COLUMNS:
            specs.append(FeatureSpec(name=name, kind="categorical",
                                     vocabulary=sorted(set(column))))
        elif set(column) <= {"0", "1"}:
            specs.append(FeatureSpec(name=name, kind="categorical", vocabulary=["0", "1"]))
        else:
            vals = np.array(ref_numbers(column, name, lines), dtype=np.float64)
            if log_scale:
                # numpy's log1p over the column, as the library applies it
                vals = np.log1p(np.maximum(vals, 0.0))
            specs.append(FeatureSpec(name=name, kind="continuous", min=float(vals.min()),
                                     max=float(vals.max()), transform=transform))
    return FeatureSchema(features=specs)


def ref_row_indices(rows, schema, bins, lines=None):
    """(records, features) value index of every value of plain value rows, in
    the narrowest unsigned dtype that holds the largest index any feature
    has: bins - 1 for a continuous one, the OOV index len(vocabulary) for a
    categorical one. A continuous value goes to its ref_bin; a categorical
    one to its position in the sorted vocabulary, or to the OOV index. A bad
    continuous value raises ref_numbers' error, naming its line from lines
    (one per row) when given."""
    largest = max(bins - 1 if spec.kind == "continuous" else len(spec.vocabulary)
                  for spec in schema.features)
    idx = np.empty((len(rows), schema.num_features), dtype=np.min_scalar_type(largest))
    for j, spec in enumerate(schema.features):
        column = [row[j] for row in rows]
        if spec.kind == "continuous":
            ref_numbers(column, spec.name, lines)
            idx[:, j] = [ref_bin(raw, spec, bins) for raw in column]
        else:
            vocabulary = sorted(spec.vocabulary)
            idx[:, j] = [vocabulary.index(raw) if raw in vocabulary else len(vocabulary)
                         for raw in column]
    return idx


def ref_labels(labels, label_map):
    """Class index of each raw label by a dict lookup. Under a strict map
    the first unknown label raises UnknownLabelError; else each unknown
    label maps to the fallback class and is logged once, where first met."""
    from hdnids.dataset import UnknownLabelError

    mapping = dict(label_map.raw_to_class)
    warned = set()
    for raw in labels:
        if raw in mapping or raw in warned:
            continue
        if label_map.strict:
            raise UnknownLabelError(f"unknown attack label {raw!r}")
        warned.add(raw)
        logging.getLogger("hdnids.dataset").warning(
            "unknown attack label %r mapped to fallback class %r",
            raw, label_map.class_names[label_map.fallback_class])
    return [mapping.get(raw, label_map.fallback_class) for raw in labels]


def ref_class_indices(records, label_map):
    return np.array(ref_labels([r.label for r in records], label_map), dtype=np.int64)


def ref_split(records, lines, spec, label_map):
    """(train lines, test lines) of a seeded stratified split, the labels
    mapped by ref_labels in shuffled order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, 0x5B117])))
    perm = rng.permutation(len(records))
    buckets = {}
    classes = ref_labels([records[i].label for i in perm], label_map)
    for i, cls in zip(perm, classes):
        buckets.setdefault(cls, []).append(int(i))
    train, test = [], []
    for cls in sorted(buckets):
        idxs = buckets[cls]
        if len(idxs) < 2:
            logging.getLogger("hdnids.dataset").warning(
                "class %r has %d record(s); placing all in train",
                label_map.class_names[cls], len(idxs))
            train.extend(idxs)
            continue
        k = int(math.floor(spec.train_fraction * len(idxs) + 0.5))
        k = min(max(k, 1), len(idxs) - 1)
        train.extend(idxs[:k])
        test.extend(idxs[k:])
    return [lines[i] for i in sorted(train)], [lines[i] for i in sorted(test)]


# --- report oracle --------------------------------------------------------------
# The figures of an evaluation report, one plain loop each, from a confusion
# matrix given as nested lists of counts.


def ref_report_figures(counts, names):
    """(per-class dicts, accuracy, macro F1) of counts[i][j], the records of
    class i predicted as class j.

    Per class: precision is tp / predicted, 0 when the class is never
    predicted; recall is tp / support, 0 when it has no support; F1 is their
    harmonic mean, 0 when both are 0; absent means no support. Accuracy is
    the diagonal over the total, and macro F1 the mean F1 over every class,
    absent ones included.
    """
    n = len(names)
    per_class = []
    for c in range(n):
        tp = counts[c][c]
        support = 0
        predicted = 0
        for k in range(n):
            support += counts[c][k]
            predicted += counts[k][c]
        precision = tp / predicted if predicted > 0 else 0.0
        recall = tp / support if support > 0 else 0.0
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        per_class.append({"name": names[c], "precision": precision, "recall": recall,
                          "f1": f1, "support": support, "predicted": predicted,
                          "absent": support == 0})
    total = 0
    diagonal = 0
    for i in range(n):
        diagonal += counts[i][i]
        for j in range(n):
            total += counts[i][j]
    # the builtin sum, as the report adds its F1s: from Python 3.12 it
    # compensates a float sum, which a plain += loop does not
    macro_f1 = sum(m["f1"] for m in per_class) / n
    return per_class, diagonal / total, macro_f1
