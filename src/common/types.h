// Basic identifier and time types shared across the ASDF reproduction.
//
// Simulation time is a double count of seconds since the start of the
// simulated run. All substrates (metrics, Hadoop, logs, RPC) and the
// fpt-core scheduler agree on this clock, mirroring the paper's
// requirement that "clocks on all nodes must be synchronized at all
// times" (Section 3.7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace asdf {

/// Simulated time in seconds since the beginning of the run.
using SimTime = double;

/// Sentinel for "no time" / "never".
inline constexpr SimTime kNoTime = -1.0;

/// Index of a node within the cluster. Node 0 is the master
/// (JobTracker + NameNode); nodes 1..N are slaves (TaskTracker +
/// DataNode), matching the paper's deployment.
using NodeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// Monotonically increasing identifier for MapReduce jobs.
using JobId = std::int32_t;

/// Width of a log timestamp, "YYYY-MM-DD HH:MM:SS,mmm".
inline constexpr std::size_t kLogTimestampLen = 23;

/// Formats a SimTime as "YYYY-MM-DD HH:MM:SS,mmm" the way Hadoop 0.18
/// log4j timestamps look (Figure 5 of the paper). The epoch is an
/// arbitrary fixed date; only differences matter to the analyses.
std::string formatLogTimestamp(SimTime t);
/// The same text appended to `out`, written digit by digit.
void appendLogTimestamp(std::string& out, SimTime t);

/// Parses a "YYYY-MM-DD HH:MM:SS,mmm" timestamp back to SimTime: the
/// fixed-width layout above, optionally followed by a non-digit.
/// Returns kNoTime for any other text (padding, signs, other widths)
/// and for dates the calendar rejects.
SimTime parseLogTimestamp(std::string_view text);

}  // namespace asdf
