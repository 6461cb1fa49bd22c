// Package analyze replays a farm run's journal.jsonl into the paper's
// evaluation figures: coverage-over-time series (cumulative malformed
// packets, distinct protocol states, de-duplicated findings against
// wall time — Figures 8–10), per-device/kind/variant wall-time
// histograms, and a per-worker utilization timeline. Everything derives
// from the journal alone — the analyzer never re-runs jobs — and the
// final point of every cumulative series equals the corresponding total
// of the report fleet.ReplayJournal folds from the same journal, a
// correspondence the package's tests pin exactly.
//
// The package decodes the journal through internal/record, the
// dependency-free job-record package the farm itself writes the journal
// (and speaks its worker wire protocol) with: the farm header, job
// coordinates, trace span, metrics summary and worker change are the
// farm's own types, and coverage folds summaries with the same
// Summary.Merge the farm aggregator uses. The record package imports
// only the standard library, so analysis stays a pure consumer of the
// persisted schema (journal version 3) without pulling in the simulator
// or the fleet; only the finding is decoded into analyze's own
// Signature, because core.Finding names simulator types. Renderers produce aligned text tables (Render*), CSV
// (*CSV) and self-contained SVG documents (*SVG), all deterministic
// functions of the parsed run so outputs are diffable and goldenable.
// CompareTrend diffs two runs' coverage curves — exact on final totals,
// tolerance-banded on normalized area-under-curve — which is the CI
// regression gate cmd/l2journal exposes as "l2journal trend".
package analyze
