"""hybc: chained lossless compression with a benchmark-and-ranking harness.

Five codecs (LZMA, Zstd, Brotli, Bzip2, LZ4HC) run under fixed presets,
alone or chained in ordered pairs; outputs are wrapped in a self-describing
container so decompression needs no out-of-band knowledge. The harness
measures every pipeline on UTF-8 text corpora and ranks them by a weighted
min-max-normalized efficiency score.

Importing the package loads only the `errors` and `_native` submodules, so a
missing required library still raises CodecFailure here; each public name is
imported from its submodule on first use (PEP 562).
"""

from importlib import import_module

from . import _native, errors  # noqa: F401  (_native loads the shared libraries)

__version__ = "0.1.0"

# The public names: what the README and the benchmark import, every exception,
# and the types in their signatures, each with the submodule that defines it.
# Everything else is imported from its submodule.
_SUBMODULE = {
    name: module
    for module, names in {
        "codecs": ("CodecId", "codec_params", "compress_one", "decompress_one", "library_versions"),
        "corpus": ("SizeClass", "generate_synthetic"),
        "errors": ("BadMagic", "CodecFailure", "ContainerError", "CorruptStream", "HybcError",
                   "IntegrityMismatch", "InvalidCodecByte", "InvalidUtf8", "MixedCohort",
                   "RoundTripMismatch", "TruncatedContainer", "UnsupportedVersion"),
        "metrics": ("DsBasis", "Measurement", "measure"),
        "pipeline": ("HEADER_LEN", "ContainerHeader", "PipelineSpec", "compress_pipeline",
                     "decompress_pipeline", "pipeline_from_name", "serialize_header"),
        "scoring": ("EfficiencyRow", "Weights", "rank_pipelines"),
    }.items()
    for name in names
}
__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
