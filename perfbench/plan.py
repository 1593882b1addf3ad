"""What one benchmark run does, shared by the runner and its child workers.

Stdlib only: the runner imports this module and must stay lean (it never
imports hybc), because a child forked from a large parent inherits the
parent's high-water RSS and would report it as its own peak.

Every result carries every end-to-end metric, so each run exercises all
three paths (library, bench, CLI); the workload decides which path gets the
most work. A run is a sequence of rounds and each round does a slice of every
path, so each metric's samples spread over the whole run: on a shared
machine whose speed drifts for seconds to minutes at a time, samples taken in
one burst would all land in the same slow or fast phase. The number of rounds follows
from ``--seconds`` alone, never from the clock, so a faster program does the
same work and its percentiles keep their meaning.
"""
from __future__ import annotations

import csv
import time
import zlib
from collections import namedtuple

WORKLOADS = ("api-medium", "bench-small", "cli-large")

# Chains of the in-process library loop and of the per-file CLI loop.
API_PIPELINES = ("Zstd", "LZ4HC", "Brotli", "Zstd+LZ4HC", "LZ4HC+Zstd", "Brotli+LZ4HC")
CLI_PIPELINES = ("Zstd", "LZ4HC", "Zstd+LZ4HC", "Brotli+LZ4HC")

# Hostile containers, cycled through in this order.
HOSTILE = ("bomb", "truncated", "bitflip")

# Tier files written by the input generator.
TIERS = {"small": "SMALL", "medium": "MEDIUM", "large": "LARGE"}

# The ranking CSV header `hybc bench` must write, and its row count.
RANKING_HEADER = (
    "rank,pipeline,dataset,size_class,cr,cs_mb_s,ds_mb_s,cr_norm,cs_norm,ds_norm,efficiency"
)
RANKING_ROWS = 25

API_WARMUP_ROUNDS = 2
API_DECODES_PER_ROUND = 5
CLI_DECODES_PER_CHAIN = 3

# Work per round. Each CLI chain slot is one `hybc compress` process and its
# decompress processes; chains and hostile kinds rotate from round to round.
# bench_every=2 runs a bench process in every other round.
Round = namedtuple("Round", "setup_procs api_rounds cli_chains cli_hostile bench_every")
GUARD = Round(setup_procs=2, api_rounds=2, cli_chains=2, cli_hostile=1, bench_every=2)
ROUNDS = {
    "api-medium": GUARD._replace(api_rounds=6),
    "bench-small": GUARD._replace(bench_every=1),
    "cli-large": GUARD._replace(cli_chains=3, cli_hostile=2),
}
# Rough cost of one round on a 2-vCPU 2.0 GHz Xeon; turns --seconds into rounds.
ROUND_SECONDS = 8.0


def rounds_for(seconds: int) -> int:
    """Rounds in a run: at least four, so every CLI chain runs twice."""
    return max(4, round(seconds / ROUND_SECONDS))


# The reference kernel: compression of a cache-resident buffer plus an
# interpreter loop, about 11 ms on a quiet 2-vCPU 2.0 GHz Xeon. The machine's
# speed drifts by 30% or more for seconds to minutes at a time (other tenants
# share the host), so every timed sample is bracketed by this kernel and
# reported at the kernel's nominal speed: time * CAL_NOMINAL_S / kernel time.
_CAL_BUF = bytes(range(256)) * 256
CAL_NOMINAL_S = 0.011


def calibrate() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(10):
        zlib.compress(_CAL_BUF, 6)
    x = 0
    for i in range(200_000):
        x += i
    return time.perf_counter() - t0


class Ledger:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def add(self, reply: dict) -> None:
        """Fold in the counts a worker reported."""
        self.attempted += reply["attempted"]
        self.failed += reply["failed"]
        self.errors += reply["errors"]


def read_ranking(path) -> list[tuple[str, float]] | None:
    """(pipeline, efficiency) rows of a ranking CSV in rank order, or None
    unless it holds exactly 25 rows under the fixed header."""
    try:
        with open(path, newline="") as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    if not lines or lines[0] != RANKING_HEADER or len(lines) != RANKING_ROWS + 1:
        return None
    return [(row["pipeline"], float(row["efficiency"])) for row in csv.DictReader(lines)]


def tail_index(n: int) -> int | None:
    """Index into n ascending samples of the highest percentile that still has
    at least ten samples beyond it, or None when there are too few."""
    return n - 11 if n >= 11 else None
