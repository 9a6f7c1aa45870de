#include <cmath>

#include "syscalls/markov.h"
#include "syscalls/trace_model.h"

#include <gtest/gtest.h>

namespace asdf::syscalls {
namespace {

metrics::NodeActivity ioActivity() {
  metrics::NodeActivity a;
  a.diskReadBytes = 2.0e7;
  a.diskWriteBytes = 1.0e7;
  a.netRxBytes = 5.0e6;
  a.netTxBytes = 5.0e6;
  a.cpuUserCores = 1.0;
  return a;
}

// Records one second and returns a copy of its trace.
TraceSecond traceOf(SyscallTraceModel& model,
                    const metrics::NodeActivity& activity, int hungTasks = 0,
                    int spinningTasks = 0) {
  model.record(activity, hungTasks, spinningTasks);
  return model.trace();
}

double categoryFraction(const TraceSecond& trace, Syscall kind) {
  if (trace.empty()) return 0.0;
  long hits = 0;
  for (auto c : trace) {
    if (c == static_cast<std::uint8_t>(kind)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trace.size());
}

TEST(SyscallNames, AllKindsNamed) {
  for (std::size_t i = 0; i < kSyscallKinds; ++i) {
    EXPECT_NE(syscallName(static_cast<Syscall>(i)), nullptr);
    EXPECT_GT(std::string(syscallName(static_cast<Syscall>(i))).size(), 1u);
  }
}

TEST(TraceModel, BusyNodeEmitsBoundedTrace) {
  SyscallTraceModel model({256}, Rng(1));
  const TraceSecond trace = traceOf(model, ioActivity());
  EXPECT_GT(trace.size(), 50u);
  EXPECT_LE(trace.size(), 256u);
  for (auto c : trace) EXPECT_LT(c, kSyscallKinds);
}

TEST(TraceModel, IdleNodeIsQuietButNotSilent) {
  SyscallTraceModel model({256}, Rng(2));
  metrics::NodeActivity idle;
  const TraceSecond trace = traceOf(model, idle);
  // Daemons still futex/epoll a little.
  EXPECT_GT(trace.size(), 5u);
  EXPECT_LT(trace.size(), 64u);
}

TEST(TraceModel, DiskTrafficShowsAsReads) {
  SyscallTraceModel model({256}, Rng(3));
  metrics::NodeActivity diskHeavy;
  diskHeavy.diskReadBytes = 6.0e7;
  const TraceSecond trace = traceOf(model, diskHeavy);
  EXPECT_GT(categoryFraction(trace, Syscall::kRead), 0.5);
}

TEST(TraceModel, HungTaskFloodsFutexAndSleep) {
  SyscallTraceModel model({256}, Rng(4));
  const TraceSecond normal = traceOf(model, ioActivity(), 0, 0);
  const TraceSecond hung = traceOf(model, ioActivity(), 2, 0);
  const double normalFutex = categoryFraction(normal, Syscall::kFutex) +
                             categoryFraction(normal, Syscall::kNanosleep);
  const double hungFutex = categoryFraction(hung, Syscall::kFutex) +
                           categoryFraction(hung, Syscall::kNanosleep);
  EXPECT_GT(hungFutex, normalFutex + 0.2);
}

TEST(TraceModel, DeterministicForSeed) {
  SyscallTraceModel a({256}, Rng(5));
  SyscallTraceModel b({256}, Rng(5));
  EXPECT_EQ(traceOf(a, ioActivity()), traceOf(b, ioActivity()));
}

TEST(Markov, UntrainedModelHasUniformBaseline) {
  MarkovModel model;
  EXPECT_NEAR(model.entropyBaseline(),
              std::log(static_cast<double>(kSyscallKinds)), 1e-9);
  EXPECT_NEAR(model.transitionProbability(0, 1), 1.0 / kSyscallKinds, 1e-9);
}

TEST(Markov, LearnsTransitions) {
  MarkovModel model;
  // Alternating read/write stream.
  TraceSecond seq;
  for (int i = 0; i < 200; ++i) {
    seq.push_back(static_cast<std::uint8_t>(i % 2 == 0 ? Syscall::kRead
                                                       : Syscall::kWrite));
  }
  model.train(seq);
  EXPECT_EQ(model.trainedTransitions(), 199);
  EXPECT_GT(model.transitionProbability(
                static_cast<std::uint8_t>(Syscall::kRead),
                static_cast<std::uint8_t>(Syscall::kWrite)),
            0.9);
  EXPECT_LT(model.transitionProbability(
                static_cast<std::uint8_t>(Syscall::kRead),
                static_cast<std::uint8_t>(Syscall::kRead)),
            0.1);
}

TEST(Markov, OffModelSequenceScoresHigherNll) {
  MarkovModel model;
  SyscallTraceModel gen({256}, Rng(6));
  for (int i = 0; i < 120; ++i) model.train(traceOf(gen, ioActivity()));

  SyscallTraceModel probe({256}, Rng(7));
  const double baseline = model.entropyBaseline();
  // A hung-task trace (futex storm) departs from the model — in either
  // direction (it can be *more* predictable than normal traffic), so
  // the detector scores |NLL - baseline|. Single seconds are noisy;
  // compare windowed means, as the online pipeline (mavgvec) does.
  double normalScore = 0.0;
  double hungScore = 0.0;
  for (int i = 0; i < 60; ++i) {
    normalScore += std::abs(
        model.negLogLikelihood(traceOf(probe, ioActivity())) - baseline);
    hungScore += std::abs(
        model.negLogLikelihood(traceOf(probe, metrics::NodeActivity{}, 3, 0)) -
        baseline);
  }
  EXPECT_GT(hungScore, normalScore * 1.5);
}

TEST(Markov, EmptyTraceScoresBaseline) {
  MarkovModel model;
  SyscallTraceModel gen({256}, Rng(8));
  for (int i = 0; i < 50; ++i) model.train(traceOf(gen, ioActivity()));
  EXPECT_DOUBLE_EQ(model.negLogLikelihood({}),
                   model.entropyBaseline());
  EXPECT_DOUBLE_EQ(model.negLogLikelihood({1}), model.entropyBaseline());
}

TEST(Markov, NllIsFiniteAndPositive) {
  MarkovModel model;
  SyscallTraceModel gen({256}, Rng(9));
  for (int i = 0; i < 30; ++i) model.train(traceOf(gen, ioActivity()));
  const double nll = model.negLogLikelihood(traceOf(gen, ioActivity()));
  EXPECT_GT(nll, 0.0);
  EXPECT_LT(nll, 10.0);
}

}  // namespace
}  // namespace asdf::syscalls
