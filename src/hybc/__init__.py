"""hybc: chained lossless compression with a benchmark-and-ranking harness.

Five codecs (LZMA, Zstd, Brotli, Bzip2, LZ4HC) run under fixed presets,
alone or chained in ordered pairs; outputs are wrapped in a self-describing
container so decompression needs no out-of-band knowledge. The harness
measures every pipeline on UTF-8 text corpora and ranks them by a weighted
min-max-normalized efficiency score.
"""

from .codecs import CodecId, codec_params, compress_one, decompress_one, library_versions
from .corpus import SizeClass, generate_synthetic
from .errors import (
    BadMagic,
    CodecFailure,
    ContainerError,
    CorruptStream,
    HybcError,
    IntegrityMismatch,
    InvalidCodecByte,
    InvalidUtf8,
    MixedCohort,
    RoundTripMismatch,
    TruncatedContainer,
    UnsupportedVersion,
)
from .metrics import DsBasis, Measurement, measure
from .pipeline import (
    HEADER_LEN,
    ContainerHeader,
    PipelineSpec,
    compress_pipeline,
    decompress_pipeline,
    pipeline_from_name,
    serialize_header,
)
from .scoring import EfficiencyRow, Weights, rank_pipelines

__version__ = "0.1.0"

# What the README and the benchmark import, every exception, and the types in
# their signatures; everything else is imported from its submodule.
__all__ = [
    "BadMagic",
    "CodecFailure",
    "CodecId",
    "ContainerError",
    "ContainerHeader",
    "CorruptStream",
    "DsBasis",
    "EfficiencyRow",
    "HEADER_LEN",
    "HybcError",
    "IntegrityMismatch",
    "InvalidCodecByte",
    "InvalidUtf8",
    "Measurement",
    "MixedCohort",
    "PipelineSpec",
    "RoundTripMismatch",
    "SizeClass",
    "TruncatedContainer",
    "UnsupportedVersion",
    "Weights",
    "codec_params",
    "compress_one",
    "compress_pipeline",
    "decompress_one",
    "decompress_pipeline",
    "generate_synthetic",
    "library_versions",
    "measure",
    "pipeline_from_name",
    "rank_pipelines",
    "serialize_header",
]
