"""Child-process side of the benchmark.

    python perfbench/worker.py gen   --seed N --out DIR
    python perfbench/worker.py api   --corpus DIR/medium.txt   (then "N" lines on stdin)
    python perfbench/worker.py trace --seed N --out DIR --spans FILE

hybc must be importable (the runner puts the checkout's src/ on PYTHONPATH).
gen and trace print one JSON object; api prints one per request.
"""
from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
import time
import zlib
from pathlib import Path

import plan

MB = 1 << 20

# A zstd frame of this many zeros compresses to about 2 KB.
BOMB_ZEROS = 64 * MB
BOMB_DECLARED_LEN = 10


def make_inputs(seed: int, out: Path) -> dict:
    """Write the three tier corpora and the hostile containers for one seed."""
    from hybc import (
        CodecId, ContainerHeader, HEADER_LEN, HybcError, SizeClass, compress_one,
        compress_pipeline, decompress_pipeline, generate_synthetic, pipeline_from_name,
        serialize_header,
    )

    out.mkdir(parents=True, exist_ok=True)
    files = {f"{name}.txt": generate_synthetic(SizeClass[tier], seed)
             for name, tier in plan.TIERS.items()}

    rng = random.Random(seed)
    valid = compress_pipeline(pipeline_from_name(plan.CLI_PIPELINES[0]), files["large.txt"])
    bomb_header = ContainerHeader(
        CodecId.ZSTD, None, BOMB_DECLARED_LEN, zlib.crc32(bytes(BOMB_DECLARED_LEN))
    )
    files["bomb.hybc"] = serialize_header(bomb_header) + compress_one(CodecId.ZSTD, bytes(BOMB_ZEROS))
    files["truncated.hybc"] = valid[: rng.randrange(HEADER_LEN + 1, len(valid))]
    # A flip that still decodes to the original bytes is not corruption the
    # container can detect, so draw again until the flip changes the output.
    while True:
        flipped = bytearray(valid)
        flipped[rng.randrange(HEADER_LEN, len(valid))] ^= 0xFF
        try:
            decompress_pipeline(bytes(flipped))
        except HybcError:
            break
    files["bitflip.hybc"] = bytes(flipped)
    for name, blob in files.items():
        (out / name).write_bytes(blob)
    return {"sizes": {name.split(".")[0]: len(blob) for name, blob in files.items()}}


class ApiLoop:
    """The api-medium loop: per round and chain, one compress_pipeline and
    several verified decompress_pipeline calls."""

    def __init__(self, corpus: Path):
        from hybc import pipeline_from_name

        self.data = corpus.read_bytes()
        self.specs = [pipeline_from_name(name) for name in plan.API_PIPELINES]

    def rounds(self, n: int) -> dict:
        from hybc import HybcError, compress_pipeline, decompress_pipeline

        data, decodes = self.data, plan.API_DECODES_PER_ROUND
        ledger = plan.Ledger()
        compress_mb_s: list[float] = []
        decompress_mb_s: list[float] = []
        speed: list[float] = []
        clock = time.perf_counter
        for _ in range(n):
            ref = plan.calibrate()
            c_seconds = d_seconds = 0.0
            for spec in self.specs:
                try:
                    t0 = clock()
                    container = compress_pipeline(spec, data)
                    c_seconds += clock() - t0
                except HybcError as exc:
                    ledger.check(False, f"compress {spec.display_name}: {exc}")
                    continue
                ledger.check(True, "compress")
                for _ in range(decodes):
                    try:
                        t0 = clock()
                        restored = decompress_pipeline(container)
                        d_seconds += clock() - t0
                    except HybcError as exc:
                        ledger.check(False, f"decompress {spec.display_name}: {exc}")
                        continue
                    ledger.check(restored == data, f"decompress {spec.display_name}: bytes differ")
            ref = (ref + plan.calibrate()) / 2
            if c_seconds and d_seconds:
                compress_mb_s.append(len(self.specs) * len(data) / MB / c_seconds)
                decompress_mb_s.append(len(self.specs) * decodes * len(data) / MB / d_seconds)
                speed.append(ref / plan.CAL_NOMINAL_S)
        ledger.errors = ledger.errors[:20]
        return {
            **vars(ledger),
            "compress_mb_s": compress_mb_s,
            "decompress_mb_s": decompress_mb_s,
            "reference": speed,
        }


def serve_api(corpus: Path) -> None:
    """Answer each stdin line "N" with the JSON result of N timed rounds. The
    first reply, sent unasked, covers the untimed warm-up rounds."""
    loop = ApiLoop(corpus)
    warmup = loop.rounds(plan.API_WARMUP_ROUNDS)
    warmup["compress_mb_s"] = warmup["decompress_mb_s"] = warmup["reference"] = []
    print(json.dumps(warmup), flush=True)
    for line in sys.stdin:
        print(json.dumps(loop.rounds(int(line))), flush=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("command", choices=("gen", "api", "trace"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--corpus", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.command == "gen":
        result = make_inputs(args.seed, args.out)
    elif args.command == "api":
        serve_api(args.corpus)
        return 0
    else:
        # Time the CLI module's import first, while this interpreter is fresh.
        t0 = time.perf_counter()
        importlib.import_module("hybc.cli")
        import_s = time.perf_counter() - t0
        import layers

        make_inputs(args.seed, args.out)
        result = layers.traced_run(args.out, args.spans, import_s)
    from hybc import library_versions

    result["library_versions"] = library_versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
