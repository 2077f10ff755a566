"""Hyperdimensional computing classifier for NSL-KDD style network records.

Records are encoded into high-dimensional binary vectors by binding each
feature's position vector with its quantized value vector and bundling
the results. Classes are represented by accumulated class vectors,
refined with an iterative miss/match update, and queried by cosine
similarity.
"""

from .codebook import (
    Codebook,
    FeatureSchema,
    FeatureSpec,
    build_codebook,
    flip_bits,
    random_hv,
    stream,
)
from .dataset import (
    CLASS_NAMES,
    COLUMN_NAMES,
    NUM_FEATURES,
    LabelMap,
    ParseError,
    RawRecord,
    RecordTable,
    SplitSpec,
    UnknownLabelError,
    class_indices,
    infer_schema,
    load_label_map,
    map_label,
    parse_file,
    parse_line,
    split,
)
from .encoding import (
    EncodedDataset,
    default_threshold,
    encode_dataset,
    lookup_level,
    value_index,
)
from .model import (
    ClassModel,
    CorruptModelError,
    Hyperparams,
    load_model,
    predict_batch,
    predict_table,
    retrain,
    save_model,
    train_initial,
)
from .evaluation import (
    ConfusionMatrix,
    EvaluationReport,
    evaluate,
    render_report,
)

__version__ = "0.1.0"

__all__ = [
    "Codebook", "FeatureSchema", "FeatureSpec", "build_codebook",
    "flip_bits", "random_hv", "stream",
    "CLASS_NAMES", "COLUMN_NAMES", "NUM_FEATURES", "LabelMap", "ParseError",
    "RawRecord", "RecordTable", "SplitSpec", "UnknownLabelError", "class_indices", "infer_schema",
    "load_label_map", "map_label", "parse_file", "parse_line", "split",
    "EncodedDataset", "default_threshold", "encode_dataset", "lookup_level",
    "value_index",
    "ClassModel", "CorruptModelError", "Hyperparams",
    "load_model", "predict_batch", "predict_table", "retrain", "save_model", "train_initial",
    "ConfusionMatrix", "EvaluationReport", "evaluate", "render_report",
    "__version__",
]
