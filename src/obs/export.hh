#ifndef RM_OBS_EXPORT_HH
#define RM_OBS_EXPORT_HH

/**
 * @file
 * Artifact exporters for the observability layer:
 *
 *  - SimStats      -> one flat JSON object (machine-readable run stats)
 *  - MetricsRegistry -> JSON (counters/gauges/histograms)
 *  - Sampler       -> CSV time-series (one row per sample)
 *  - IssueTrace    -> Chrome trace_event JSON, loadable directly in
 *                     chrome://tracing or https://ui.perfetto.dev:
 *                     per-warp tracks with issue slices, acquire-wait
 *                     and extended-set-held spans — the paper's Fig. 2
 *                     picture reconstructed from a real run.
 *  - LintReport    -> JSON (structured diagnostics for tooling) or
 *                     SARIF 2.1.0 (static-analysis interchange; loads
 *                     into GitHub code scanning and IDE SARIF viewers).
 *
 * All exporters are pure (input structs -> string); callers own file
 * I/O. See docs/OBSERVABILITY.md for the formats.
 */

#include <string>

#include "analysis/lint.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "sim/diagnosis.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace rm {

class Program;

/**
 * Append @p stats as a JSON object to @p writer (for embedding in a
 * larger document). Counter keys are the kSummedCounters JSON paths.
 * The key set is frozen by a golden-file test; add keys deliberately
 * and update tests/golden/simstats_keys.txt. When a
 * hang diagnosis is attached (stats.hang) it is embedded under the
 * optional "hang" key.
 */
void statsToJson(JsonWriter &writer, const SimStats &stats);

/** @p stats as a standalone JSON document. */
std::string statsToJson(const SimStats &stats);

/**
 * Rebuild a SimStats from a statsToJson document (sweep checkpoint
 * resume). Derived figures (ipc, rates) are not restored. Forward- and
 * backward-compatible by construction: missing keys load as their
 * default values and unknown keys are ignored, so both older and newer
 * checkpoints keep loading. The optional "hang" object round-trips
 * through diagnosisFromJson under the same rules.
 */
SimStats statsFromJson(const JsonValue &value);

/** Append @p diag as a JSON object to @p writer (hang forensics). */
void diagnosisToJson(JsonWriter &writer, const HangDiagnosis &diag);

/** @p diag as a standalone JSON document. */
std::string diagnosisToJson(const HangDiagnosis &diag);

/**
 * Rebuild a HangDiagnosis from a diagnosisToJson document. Missing
 * keys load as defaults and unknown keys are ignored (same
 * compatibility rules as statsFromJson).
 */
HangDiagnosis diagnosisFromJson(const JsonValue &value);

/** Append the registry as a JSON object to @p writer. */
void registryToJson(JsonWriter &writer, const MetricsRegistry &registry);

/** The registry as a standalone JSON document. */
std::string registryToJson(const MetricsRegistry &registry);

/**
 * The sampler's time-series as CSV: header "cycle,<col>,...", one row
 * per sample, raw numbers.
 */
std::string samplerToCsv(const Sampler &sampler);

/**
 * Append @p report as a JSON object to @p writer: kernel name, summary
 * counts, and one entry per diagnostic (check id, severity, block,
 * instruction index, disassembly, message, note). @p program resolves
 * instruction indices to disassembled text.
 */
void lintReportToJson(JsonWriter &writer, const Program &program,
                      const LintReport &report);

/** @p report as a standalone JSON document. */
std::string lintReportToJson(const Program &program,
                             const LintReport &report);

/**
 * @p report as a SARIF 2.1.0 document (one run, tool "rm-lint", the
 * full check catalog as rules). Instruction indices map to 1-based
 * "lines" of the disassembly listing so generic SARIF viewers can
 * anchor findings.
 */
std::string lintReportToSarif(const Program &program,
                              const LintReport &report);

/**
 * The retained trace window as a Chrome trace_event JSON document.
 * Cycles map to microsecond timestamps (1 cycle = 1 us). @p program
 * resolves PCs to disassembled slice names. Spans whose begin was
 * evicted from the ring are dropped; spans still open at the end of
 * the window are closed at the last retained cycle + 1.
 */
std::string chromeTrace(const IssueTrace &trace, const Program &program);

} // namespace rm

#endif // RM_OBS_EXPORT_HH
