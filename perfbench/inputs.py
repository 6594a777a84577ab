"""Seeded inputs for every workload: corpus, query stream and schedules.

Everything here is generated by the benchmark itself from ``--seed`` with
NumPy's PCG64, never by the program under test, so a change to the program
cannot change what it is asked.  The same seed gives the same inputs, and
:func:`digest` hashes all of them so two runs can prove it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np

DNA_CHARS = "ACGT"
PROTEIN_CHARS = "ACDEFGHIKLMNPQRSTVWY"

CORPUS_CHARS = 320_000
RECORDS = 64


@dataclass(frozen=True)
class Request:
    """One search request of the stream (one query per request)."""

    qid: str
    sequence: str
    mode: str = "exact"
    top_k: int | None = None


@dataclass
class Inputs:
    """What one workload sends: records, a query stream and its schedules."""

    alphabet: str
    records: list[tuple[str, str]]
    threshold: int
    requests: list[Request]
    warmup: list[Request]
    #: Stream indices before which the benchmark swaps generations and
    #: calls ``reload`` (sorted; empty for workloads without reloads).
    reload_before: list[int] = field(default_factory=list)

    @property
    def corpus_chars(self) -> int:
        return sum(len(seq) for _rid, seq in self.records)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _random_seq(rng: np.random.Generator, chars: str, length: int) -> np.ndarray:
    return rng.integers(0, len(chars), size=length, dtype=np.int8)


def _mutate(
    rng: np.random.Generator, codes: np.ndarray, sigma: int,
    sub_rate: float, indel_rate: float,
) -> np.ndarray:
    """Substitutions plus single-character insertions and deletions."""
    out = codes.copy()
    subs = rng.random(out.size) < sub_rate
    out[subs] = (out[subs] + rng.integers(1, sigma, size=int(subs.sum()))) % sigma
    keep = rng.random(out.size) >= indel_rate
    out = out[keep]
    inserts = np.flatnonzero(rng.random(out.size) < indel_rate)
    if inserts.size:
        out = np.insert(out, inserts, rng.integers(0, sigma, size=inserts.size))
    return out.astype(np.int8)


def _decode(chars: str, codes: np.ndarray) -> str:
    return np.frombuffer(chars.encode("ascii"), dtype=np.uint8)[codes].tobytes().decode("ascii")


def make_corpus(seed: int, chars: str) -> tuple[np.ndarray, list[int]]:
    """A 320k-character text with segmental duplications, cut into 64 records.

    About a fifth of the text is overwritten by lightly mutated copies of
    earlier windows, so homologous queries hit several places.  Record
    lengths vary (0.5x to 1.5x the mean), which gives shards unequal work.
    """
    rng = _rng(seed, 1)
    sigma = len(chars)
    text = _random_seq(rng, chars, CORPUS_CHARS)
    for _ in range(CORPUS_CHARS // 5 // 400):
        src = int(rng.integers(0, CORPUS_CHARS - 800))
        dst = int(rng.integers(0, CORPUS_CHARS - 400))
        copy = _mutate(rng, text[src:src + 400], sigma, 0.03, 0.0)
        text[dst:dst + copy.size] = copy
    weights = rng.uniform(0.5, 1.5, size=RECORDS)
    lengths = np.floor(weights / weights.sum() * CORPUS_CHARS).astype(int)
    lengths[-1] += CORPUS_CHARS - int(lengths.sum())
    return text, lengths.tolist()


def _records(chars: str, text: np.ndarray, lengths: list[int]) -> list[tuple[str, str]]:
    records, pos = [], 0
    for i, length in enumerate(lengths):
        records.append((f"r{i:02d}", _decode(chars, text[pos:pos + length])))
        pos += length
    return records


def _homologous_query(
    rng: np.random.Generator, chars: str, text: np.ndarray,
    length: int, planted: float, sub_rate: float,
) -> str:
    """Random background with one mutated text window planted in it.

    The window starts anywhere in the concatenated text, so some queries
    straddle a record boundary and exercise the boundary recheck.
    """
    sigma = len(chars)
    query = _random_seq(rng, chars, length)
    span = max(12, int(length * planted))
    src = int(rng.integers(0, text.size - span))
    fragment = _mutate(rng, text[src:src + span], sigma, sub_rate, 0.01)[:length]
    dst = int(rng.integers(0, length - fragment.size + 1))
    query[dst:dst + fragment.size] = fragment
    return _decode(chars, query)


MIN_QUERY, MAX_QUERY = 40, 100


@functools.lru_cache(maxsize=64)
def _length_block(seed: int, stream: int, block: int) -> tuple[int, ...]:
    span = MAX_QUERY - MIN_QUERY + 1
    return tuple(MIN_QUERY + _rng(seed, 100 + stream, block).permutation(span))


def _length(seed: int, stream: int, index: int) -> int:
    """Query lengths cover 40..100 once per block of 61 queries.

    Cost grows with query length, so stratifying lengths keeps a run's
    length mix, and with it the latency median, from drifting with the
    seed; the seed still orders them.
    """
    span = MAX_QUERY - MIN_QUERY + 1
    return int(_length_block(seed, stream, index // span)[index % span])


def _dna_query(seed: int, stream: int, index: int, text: np.ndarray) -> str:
    rng = _rng(seed, stream, index)
    length = _length(seed, stream, index)
    return _homologous_query(rng, DNA_CHARS, text, length, 0.5, 0.05)


def _protein_query(seed: int, stream: int, index: int, text: np.ndarray) -> str:
    rng = _rng(seed, stream, index)
    length = _length(seed, stream, index)
    return _homologous_query(rng, PROTEIN_CHARS, text, length, 0.3, 0.10)


def dna_exact(seed: int, count: int) -> Inputs:
    """Unique mixed-length homologous DNA queries, exact mode, H=30."""
    text, lengths = make_corpus(seed, DNA_CHARS)
    requests = [
        Request(f"q{i}", _dna_query(seed, 2, i, text)) for i in range(count)
    ]
    warmup = [Request(f"w{i}", _dna_query(seed, 3, i, text)) for i in range(6)]
    return Inputs("dna", _records(DNA_CHARS, text, lengths), 30, requests, warmup)


#: Distinct entries of the protein-hot repeat pool and its Zipf exponent.
#: These and the share below are chosen, not taken from any measured query
#: log: they only make the result cache both hit and miss.  The share sets
#: the hit ratio, and with it what protein-hot latency rewards.
HOT_POOL = 96
HOT_ZIPF = 1.1
#: Share of protein-hot requests drawn from the pool (the rest are unique).
HOT_SHARE = 0.5


def protein_hot(seed: int, count: int) -> Inputs:
    """Protein queries, half unique and half from a skewed repeat pool."""
    text, lengths = make_corpus(seed, PROTEIN_CHARS)
    pool = [_protein_query(seed, 4, i, text) for i in range(HOT_POOL)]
    rng = _rng(seed, 5)
    ranks = np.arange(1, HOT_POOL + 1, dtype=float)
    weights = ranks ** -HOT_ZIPF
    draws = rng.choice(HOT_POOL, size=count, p=weights / weights.sum())
    # An exact share of pool requests per run, spread by a seeded shuffle.
    from_pool = np.zeros(count, dtype=bool)
    from_pool[: int(count * HOT_SHARE)] = True
    rng.shuffle(from_pool)
    requests = []
    for i in range(count):
        if from_pool[i]:
            sequence = pool[int(draws[i])]
        else:
            sequence = _protein_query(seed, 6, i, text)
        requests.append(Request(f"q{i}", sequence))
    warmup = [Request(f"w{i}", _protein_query(seed, 7, i, text)) for i in range(6)]
    return Inputs("protein", _records(PROTEIN_CHARS, text, lengths), 24, requests, warmup)


#: dna-sharded-reload request mix per block of 8: exact with a threshold,
#: exact top-k, and a fixed share of verified.  Like the protein-hot pool,
#: the mix and ``k`` are chosen to exercise every path, not measured.
RELOAD_MIX = ("exact",) * 5 + ("top_k",) * 2 + ("verified",)
RELOAD_TOP_K = 5
#: Stream indices before which a generation swap happens.  The request at
#: each is verified: the first verified query after a swap rebuilds the new
#: generation's verified tier (about a second), and the benchmark runs it
#: with the clock stopped, together with the swap itself.
RELOAD_AT = (10, 30)


#: Query stream of each request kind; each kind draws its own lengths, so
#: every kind covers 40..100 evenly however the blocks are shuffled.
RELOAD_STREAMS = {"exact": 9, "top_k": 11, "verified": 12}


def dna_sharded_reload(seed: int, count: int) -> Inputs:
    """Sharded DNA with a mode mix and reloads at fixed stream indices."""
    text, lengths = make_corpus(seed, DNA_CHARS)
    rng = _rng(seed, 8)
    drawn = dict.fromkeys(RELOAD_STREAMS, 0)
    requests = []
    for block in range(0, count, len(RELOAD_MIX)):
        kinds = list(RELOAD_MIX)
        rng.shuffle(kinds)
        for at in RELOAD_AT:
            if block <= at < block + len(kinds):
                j = kinds.index("verified")
                kinds[j], kinds[at - block] = kinds[at - block], kinds[j]
        for offset, kind in enumerate(kinds):
            i = block + offset
            if i >= count:
                break
            sequence = _dna_query(seed, RELOAD_STREAMS[kind], drawn[kind], text)
            drawn[kind] += 1
            if kind == "top_k":
                requests.append(Request(f"q{i}", sequence, "exact", RELOAD_TOP_K))
            else:
                requests.append(Request(f"q{i}", sequence, kind))
    warmup = [
        Request(f"w{i}", _dna_query(seed, 10, i, text), mode)
        for i, mode in enumerate(("exact", "verified") * 3)
    ]
    return Inputs(
        "dna", _records(DNA_CHARS, text, lengths), 30, requests, warmup,
        reload_before=[i for i in RELOAD_AT if i < count],
    )


def digest(inputs: Inputs) -> str:
    """SHA-256 over corpus, query stream, mode/top-k schedule and reloads."""
    h = hashlib.sha256()
    h.update(f"{inputs.alphabet}|{inputs.threshold}\n".encode())
    for rid, seq in inputs.records:
        h.update(f">{rid}\n{seq}\n".encode())
    for req in inputs.warmup + inputs.requests:
        h.update(f"{req.qid}|{req.mode}|{req.top_k}|{req.sequence}\n".encode())
    h.update(("reload:" + ",".join(map(str, inputs.reload_before))).encode())
    return h.hexdigest()
