// MapReduce job specification and runtime state.
//
// A JobSpec describes the work (GridMix-style: input size, reduce
// count, CPU intensity, map-output and job-output ratios); a Job adds
// the bookkeeping the JobTracker needs — pending/running/done tasks,
// shuffle production per source node, completed-duration statistics
// for speculative execution.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hadoop/hdfs.h"

namespace asdf::hadoop {

/// The five GridMix job classes (Section 4.7: "GridMix comprises 5
/// different job types, ranging from an interactive workload that
/// samples a large dataset, to a large sort of uncompressed data").
enum class JobType : int {
  kWebdataSample = 0,  // interactive sampling of a large dataset
  kMonsterQuery,       // multi-stage pipeline query
  kWebdataSort,        // large sort of uncompressed web data
  kStreamingSort,      // streaming-API sort
  kCombiner,           // word-count style aggregation with combiner
};
inline constexpr int kJobTypeCount = 5;

const char* jobTypeName(JobType type);

struct JobSpec {
  JobType type = JobType::kWebdataSort;
  std::string name = "job";
  double inputBytes = 128.0e6;
  int numReduces = 4;
  double mapCpuPerByte = 2.0e-8;     // cpu-seconds per input byte
  double mapOutputRatio = 1.0;       // map output bytes / input bytes
  double reduceCpuPerByte = 1.0e-8;  // cpu-seconds per shuffled byte
  double outputRatio = 1.0;          // job output bytes / input bytes
};

/// Runtime state of a submitted job.
class Job {
 public:
  Job(JobId id, JobSpec spec, double blockBytes, NameNode& nameNode,
      int slaveCount, Rng& rng);

  JobId id() const { return id_; }
  const JobSpec& spec() const { return spec_; }

  int numMaps() const { return numMaps_; }
  int numReduces() const { return spec_.numReduces; }
  int completedMaps() const { return completedMaps_; }
  bool mapsComplete() const { return completedMaps_ == numMaps_; }
  bool complete() const {
    return mapsComplete() && completedReduces_ == spec_.numReduces;
  }

  /// The input block a map task reads.
  long inputBlock(int mapIndex) const;

  /// Bytes each map contributes to each reduce's shuffle.
  double mapOutputPerReducePerMap() const;

  /// Bytes a reduce writes to HDFS.
  double outputBytesPerReduce() const;

  /// Total bytes one reduce must shuffle.
  double shuffleBytesPerReduce() const;

  // --- task scheduling state (driven by the JobTracker) ---------------
  std::deque<int>& pendingMaps() { return pendingMaps_; }
  std::deque<int>& pendingReduces() { return pendingReduces_; }
  bool mapDone(int index) const { return mapDone_[index] != 0; }
  bool reduceDone(int index) const { return reduceDone_[index] != 0; }
  int runningAttempts(bool isMap, int index) const;
  void noteAttemptStarted(bool isMap, int index);
  void noteAttemptEnded(bool isMap, int index);
  /// Next attempt serial for task ids (task_X_m_NNN_<serial>).
  int nextAttemptSerial(bool isMap, int index);
  /// Failed (re-queued) attempts so far for the task.
  int failureCount(bool isMap, int index) const;
  void noteFailure(bool isMap, int index);

  /// Marks a map finished on `node`; shuffle output becomes available
  /// there. Returns false when the task was already completed by
  /// another (speculative) attempt.
  bool completeMap(int index, NodeId node, double duration);
  bool completeReduce(int index, double duration);

  /// Map-output bytes available for *each* reduce on the given node.
  double shuffleAvailable(NodeId node) const;

  /// HDFS blocks written by this job's reduces (recorded for cleanup).
  void addOutputBlock(long blockId) { outputBlocks_.push_back(blockId); }
  const std::vector<long>& outputBlocks() const { return outputBlocks_; }
  const std::vector<long>& inputBlocks() const { return inputBlocks_; }

  const std::vector<double>& completedMapDurations() const {
    return mapDurations_;
  }
  const std::vector<double>& completedReduceDurations() const {
    return reduceDurations_;
  }

  SimTime submitTime = 0.0;
  SimTime finishTime = kNoTime;

 private:
  JobId id_;
  JobSpec spec_;
  int numMaps_;
  std::vector<long> inputBlocks_;  // one per map
  std::deque<int> pendingMaps_;
  std::deque<int> pendingReduces_;
  std::vector<char> mapDone_;
  std::vector<char> reduceDone_;
  std::vector<int> mapRunning_;
  std::vector<int> reduceRunning_;
  std::vector<int> mapAttemptSerial_;
  std::vector<int> reduceAttemptSerial_;
  std::vector<int> mapFailures_;
  std::vector<int> reduceFailures_;
  std::vector<double> shuffleAvailPerNode_;  // indexed by NodeId
  std::vector<long> outputBlocks_;
  int completedMaps_ = 0;
  int completedReduces_ = 0;
  std::vector<double> mapDurations_;
  std::vector<double> reduceDurations_;
};

}  // namespace asdf::hadoop
