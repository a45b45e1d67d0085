"""``store_durable`` -- storage does the work, extraction none.

One round feeds the pre-extracted ``corpus_g`` records to a fresh
durable single-partition ``SecurityKG`` (graph + search + SQL
connectors) in batches with a ``checkpoint()`` after each, then
``run_fusion()``, a final checkpoint, ``close()``, and timed reopen ->
first-Cypher-answer cycles.  Journal commit, checkpoint/snapshot,
recovery, connectors and fusion dominate: this is the guard for
collapsing the standalone/engine/sharded modes and for journaled
fusion -- a change that makes N=1 durable ingest slower or fatter on
disk shows here.  It bypasses htmlparse/nlp and every read-side cache.
"""

from __future__ import annotations

import shutil
import statistics

import harness
from harness import Recorder, Tally, disk_bytes
from inputs import base_config, build_corpus, graph_digest, store_digest
from repro.core.system import SecurityKG
from wl_ingest_full import trace_connectors

CONNECTORS = ["graph", "search", "sql"]


class Context(harness.Context):
    def __init__(self, corpus, size, tmp):
        self.corpus = corpus
        self.size = size
        self.tmp = tmp
        self.corpus_build_s = corpus.build_s
        self.round_no = 0


def _open(path) -> SecurityKG:
    return SecurityKG(
        base_config(storage_path=str(path), partitions=1, connectors=CONNECTORS)
    )


def _batches(records, size):
    return [records[i:i + size] for i in range(0, len(records), size)]


def setup(seed: int, size: dict, tmp) -> Context:
    ctx = Context(build_corpus(seed, size["reports_per_site"], size["records"]), size, tmp)
    # warm-up slice: ~5 % of the records through store, checkpoint,
    # fusion and one recovery, results discarded
    warm = max(2, len(ctx.corpus.payloads) // 20)
    path = tmp / "warmup"
    kg = _open(path)
    kg.store(ctx.corpus.records(warm))
    kg.checkpoint()
    kg.run_fusion()
    kg.close()
    _first_answer(path).close()
    shutil.rmtree(path)
    return ctx


def _first_answer(path) -> SecurityKG:
    """Reopen a store and answer one Cypher query from it."""
    kg = _open(path)
    kg.cypher("MATCH (m:Malware) RETURN count(*) AS malware")
    return kg


def _round(ctx: Context, tally: Tally, rec: Recorder, traced: bool) -> None:
    ctx.round_no += 1
    path = ctx.tmp / f"durable-{ctx.round_no}"
    records = ctx.corpus.records()
    kg = _open(path)
    if traced:
        trace_connectors(kg, rec)
    written = 0
    busy = 0.0
    for index, batch in enumerate(_batches(records, ctx.size["batch"])):
        with rec.span("storage.store", index) as store:
            kg.store(batch)
        if traced:
            written += kg.engine.journal_path.stat().st_size
        with rec.span("storage.checkpoint", index) as checkpoint:
            kg.checkpoint()
        if traced:
            written += disk_bytes(path) - kg.engine.journal_path.stat().st_size
        tally.timed("store", index, store.duration)
        tally.timed("checkpoint", index, checkpoint.duration)
        busy += store.duration + checkpoint.duration
    with rec.span("fusion.run") as fusion:
        fused = kg.run_fusion()
    # a clean shutdown checkpoints after fusion, so the merges survive
    # the restart today and under a journaled fusion alike
    with rec.span("storage.checkpoint", "final") as checkpoint:
        kg.checkpoint()
    before_close = store_digest(kg.engine)
    tally.info["digest.graph"] = graph_digest(kg.graph)
    tally.info["graph_nodes"] = kg.stats()["nodes"]
    with rec.span("storage.close") as close:
        kg.close()
    tally.timed("fusion", 0, fusion.duration)
    tally.timed("shutdown", 0, checkpoint.duration + close.duration)
    busy += fusion.duration + checkpoint.duration + close.duration
    on_disk = disk_bytes(path)

    for cycle in range(ctx.size["recover_cycles"]):
        with rec.span("storage.recover", cycle) as recover:
            reopened = _first_answer(path)
        # every reopen does the same work: one operation, many samples
        tally.timed("recover", 0, recover.duration)
        if cycle == 0:
            tally.op(
                store_digest(reopened.engine) == before_close,
                "post-recovery graph/search/SQL digest differs from pre-close",
            )
            tally.op(
                reopened.engine.ingested_count == len(records),
                "recovered store lost ingest markers",
            )
        reopened.close()

    tally.attempted += len(records)
    tally.add("round_s", busy)
    tally.add("disk_bytes_per_report", on_disk / len(records))
    tally.info["reports_stored"] = len(records)
    tally.info["digest.corpus"] = ctx.corpus.digest
    if traced:
        snapshots = list(path.glob("snapshot-*.json"))
        tally.add("snapshot_bytes", snapshots[0].stat().st_size)
        tally.add("write_amp", written / ctx.corpus.json_bytes)
        tally.add("fusion_us_per_node", fusion.duration * 1e6 / fused.nodes_before)
        tally.add("fusion_groups", fused.groups_merged)
    shutil.rmtree(path)


def run_round(ctx: Context, tally: Tally, rec: Recorder) -> None:
    _round(ctx, tally, rec, traced=False)


def trace_round(ctx: Context, tally: Tally, rec: Recorder) -> None:
    _round(ctx, tally, rec, traced=True)


#: operation kinds each timing metric is computed from (for sample counts)
KINDS = {
    "reports_per_s": ("store", "checkpoint", "fusion", "shutdown"),
    "batch_p50_ms": ("store",), "batch_max_ms": ("store",),
    "recover_s": ("recover",),
}


def summarize(tally: Tally) -> dict[str, float]:
    stores, checkpoints = tally.steady("store"), tally.steady("checkpoint")
    batches = [s + c for s, c in zip(stores, checkpoints)]
    busy = sum(batches) + sum(tally.steady("fusion", "shutdown"))
    return {
        "reports_per_s": tally.info["reports_stored"] / busy,
        "batch_p50_ms": statistics.median(batches) * 1e3,
        "batch_max_ms": max(batches) * 1e3,
        "recover_s": tally.steady("recover")[0],
        "disk_bytes_per_report": tally.median("disk_bytes_per_report"),
    }


def layer_metrics(ctx: Context, tally: Tally, rec: Recorder) -> dict[str, float]:
    rounds = tally.count("round_s")
    reports = len(ctx.corpus.payloads)
    table = rec.self_times()
    checkpoints = tally.steady("checkpoint")

    def per_report(name: str, field: str = "total_s") -> float:
        return table.get(name, {field: 0.0})[field] * 1e6 / (rounds * reports)

    layers = {
        "connectors.graph_us_per_report": per_report("connectors.graph"),
        "connectors.search_us_per_report": per_report("connectors.search"),
        "connectors.sql_us_per_report": per_report("connectors.sql"),
        # store() minus the connector calls inside it: transaction,
        # journal append and fsync
        "storage.commit_us_per_report": per_report("storage.store", "self_s"),
        "storage.checkpoint_p50_ms": statistics.median(checkpoints) * 1e3,
        # the ingest stall a median hides
        "storage.checkpoint_max_ms": max(checkpoints) * 1e3,
        "storage.checkpoint_total_s": sum(checkpoints),
        "storage.snapshot_bytes": tally.median("snapshot_bytes"),
        "storage.write_amp": tally.median("write_amp"),
        "storage.recover_snapshot_s": tally.steady("recover")[0],
        "fusion.run_ms": tally.steady("fusion")[0] * 1e3,
        "fusion.us_per_node": tally.median("fusion_us_per_node"),
        "fusion.groups_merged": tally.median("fusion_groups"),
    }
    layers.update(_journal_only_probe(ctx, rec))
    return layers


def _journal_only_probe(ctx: Context, rec: Recorder) -> dict[str, float]:
    """The same records with no checkpoint at all: journal size, and the
    cost of recovering by replay alone."""
    path = ctx.tmp / "journal-only"
    kg = _open(path)
    kg.store(ctx.corpus.records())
    journal_bytes = kg.engine.journal_path.stat().st_size
    kg.close()
    with rec.span("probe.storage.replay") as replay:
        reopened = _first_answer(path)
    reopened.close()
    shutil.rmtree(path)
    return {
        "storage.journal_bytes_per_report": journal_bytes / len(ctx.corpus.payloads),
        "storage.recover_replay_s": replay.duration,
    }

