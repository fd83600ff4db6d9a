"""Streaming: score a CSV workload out-of-core, CSV in, scored CSV out.

Every entry point of the library used to need the whole workload in memory;
the :mod:`repro.data.sources` backends remove that cap.  This example walks
the full out-of-core loop:

1. export a workload to the CSV layout of :mod:`repro.data.io` (stand-in for
   a corpus too large to materialise);
2. fit a pipeline on a small labeled sample (fitting needs random access —
   scoring does not);
3. open the exported pairs as a :class:`repro.data.CsvPairSource` and stream
   them through :class:`repro.serve.RiskService.score_source`, writing one
   scored CSV row per pair as it is produced — the candidate-pair file is
   never loaded as a whole;
4. compare peak allocation of the streaming pass against the eager
   load-everything pass with :mod:`tracemalloc`;
5. re-run the stream sharded over a 2-worker pool (``workers=2``) and verify
   the output is byte-identical — parallelism is a throughput knob, never a
   correctness knob;
6. show the equivalent ``python -m repro.serve score --chunk-size --workers``
   command.

Run with::

    python examples/streaming_scoring.py
"""

from __future__ import annotations

import csv
import tempfile
import tracemalloc
from pathlib import Path

from repro import PipelineSpec, build_pipeline, load_dataset, split_workload
from repro.data import CsvPairSource, export_workload, import_workload
from repro.serve import RiskService


def main() -> None:
    print("Exporting the DBLP-Scholar analogue to CSV (our 'huge' corpus) ...")
    workload = load_dataset("DS", scale=0.4)
    split = split_workload(workload, ratio=(3, 2, 5), seed=0)

    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "corpus"
        export_workload(workload, data_dir)
        files = ", ".join(sorted(p.name for p in data_dir.iterdir()))
        print(f"  wrote {files}")

        print("\nFitting the pipeline on the labeled sample ...")
        pipeline = build_pipeline(PipelineSpec(seed=0))
        pipeline.fit(split.train, split.validation)

        print("\nStreaming the full corpus: CSV in, scored CSV out ...")
        source = CsvPairSource(data_dir, workload.name, workload.left_table.schema)
        service = RiskService(pipeline, max_batch_size=128, cache_size=0)
        scored_path = Path(tmp) / "scored.csv"

        tracemalloc.start()
        with scored_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left_id", "right_id", "probability", "machine_label", "risk_score"])
            count = 0
            for scored in service.score_source(source, chunk_size=256):
                left_id, right_id = scored.pair.pair_id
                writer.writerow([left_id, right_id, scored.probability,
                                 scored.machine_label, scored.risk_score])
                count += 1
        _, streaming_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(f"  scored {count} pairs -> {scored_path.name} "
              f"(peak allocation {streaming_peak / 1e6:.1f} MB)")

        print("\nControl: the eager path (import everything, then score) ...")
        tracemalloc.start()
        eager = import_workload(data_dir, workload.name, workload.left_table.schema)
        eager_scored = service.score_pairs(eager.pairs)
        _, eager_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(f"  scored {len(eager_scored)} pairs eagerly "
              f"(peak allocation {eager_peak / 1e6:.1f} MB)")
        print(f"  streaming peak is {streaming_peak / eager_peak:.0%} of the eager peak; "
              f"it stays flat as the corpus grows, the eager peak does not")

        print("\nSame stream, sharded over a 2-worker pool (repro.parallel) ...")
        parallel_path = Path(tmp) / "scored_parallel.csv"
        with parallel_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left_id", "right_id", "probability", "machine_label", "risk_score"])
            for scored in service.score_source(source, chunk_size=256, workers=2):
                left_id, right_id = scored.pair.pair_id
                writer.writerow([left_id, right_id, scored.probability,
                                 scored.machine_label, scored.risk_score])
        identical = parallel_path.read_text() == scored_path.read_text()
        print(f"  2-worker output byte-identical to the serial stream: {identical}")
        assert identical, "parallel scoring must never change a bit of output"
        service.close()  # release the cached worker pool before moving on

        print("\nThe same loop from the command line:")
        print("  python -m repro.serve score --model <model-dir> \\")
        print(f"      --data-dir {data_dir} --name {workload.name} \\")
        print("      --chunk-size 256 --workers 2 --output scored.csv")


if __name__ == "__main__":
    main()
