// Chrome trace_event exporter: serializes a trace::Recorder as the JSON
// object format ({"traceEvents": [...]}), loadable in chrome://tracing and
// https://ui.perfetto.dev. Track kinds map to processes, track indices to
// threads; spans become complete ("X") events, instants "i", counters "C".
//
// The output is deterministic: timestamps are integer picoseconds printed
// as fixed-point microseconds, events are written in recording order, so a
// deterministic simulation exports byte-identical traces run after run.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/recorder.h"

namespace ctesim::trace {

/// Throws ContractError if any counter value is NaN or infinite (JSON
/// cannot represent it); nothing is written in that case.
void write_chrome_trace(const Recorder& recorder, std::ostream& os);

/// Writes to `path`; throws std::runtime_error if the file cannot open.
void write_chrome_trace(const Recorder& recorder, const std::string& path);

/// Escape a string for embedding inside a JSON string literal (exposed for
/// tests).
std::string json_escape(const std::string& s);

}  // namespace ctesim::trace
