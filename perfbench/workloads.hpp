#pragma once

// The benchmark's workloads. Each returns the run's result document: the
// end-to-end metrics untraced, the per-layer metrics traced.

#include <string>

#include "common.hpp"

namespace perfbench {

Result survey_cold(const Args& args, const VerdictTable& table);
Result survey_warm(const Args& args, const VerdictTable& table);
Result service_mix(const Args& args, const VerdictTable& table);

Result survey_cold_traced(const Args& args, const VerdictTable& table);
Result survey_warm_traced(const Args& args, const VerdictTable& table);
Result service_mix_traced(const Args& args, const VerdictTable& table);

/// Runs one cold raw-key survey of the full family and writes its verdict
/// table to `path`; returns the process exit code.
int write_verdicts(const std::string& path);

}  // namespace perfbench
