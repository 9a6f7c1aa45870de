#include "rpc/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "rpc/payloads.h"
#include "rpc/transport.h"

namespace asdf::rpc {
namespace {

TEST(Wire, U32RoundTrip) {
  Encoder enc;
  enc.putU32(0);
  enc.putU32(1);
  enc.putU32(0xFFFFFFFFu);
  enc.putU32(0xDEADBEEFu);
  EXPECT_EQ(enc.size(), 16u);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getU32(), 0u);
  EXPECT_EQ(dec.getU32(), 1u);
  EXPECT_EQ(dec.getU32(), 0xFFFFFFFFu);
  EXPECT_EQ(dec.getU32(), 0xDEADBEEFu);
  EXPECT_TRUE(dec.exhausted());
}

TEST(Wire, I64RoundTrip) {
  Encoder enc;
  enc.putI64(0);
  enc.putI64(-1);
  enc.putI64(1234567890123LL);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getI64(), 0);
  EXPECT_EQ(dec.getI64(), -1);
  EXPECT_EQ(dec.getI64(), 1234567890123LL);
}

TEST(Wire, DoubleRoundTripExact) {
  Encoder enc;
  for (double v : {0.0, -0.0, 1.5, -3.14159, 1e300, 1e-300}) {
    enc.putDouble(v);
  }
  Decoder dec(enc.bytes());
  for (double v : {0.0, -0.0, 1.5, -3.14159, 1e300, 1e-300}) {
    EXPECT_EQ(dec.getDouble(), v);
  }
}

TEST(Wire, StringRoundTripWithPadding) {
  Encoder enc;
  enc.putString("");
  enc.putString("a");
  enc.putString("abcd");
  enc.putString("hello world");
  EXPECT_EQ(enc.size() % 4, 0u);  // XDR alignment
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getString(), "");
  EXPECT_EQ(dec.getString(), "a");
  EXPECT_EQ(dec.getString(), "abcd");
  EXPECT_EQ(dec.getString(), "hello world");
  EXPECT_TRUE(dec.exhausted());
}

TEST(Wire, VectorRoundTrip) {
  Encoder enc;
  enc.putDoubleVector({});
  enc.putDoubleVector({1.0, 2.5, -3.0});
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.getDoubleVector().empty());
  const auto v = dec.getDoubleVector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
}

// The sized-once vector encoder writes exactly the bytes of a count
// plus one putDouble per element.
TEST(Wire, DoubleVectorMatchesPerWordEncoding) {
  const std::vector<double> v = {0.0, -0.0, 1.5, -3.25e-300,
                                 std::numeric_limits<double>::infinity(),
                                 std::nan("")};
  Encoder bulk;
  bulk.putU32(7);
  bulk.putDoubleVector(v);
  Encoder words;
  words.putU32(7);
  words.putU32(static_cast<std::uint32_t>(v.size()));
  for (double d : v) words.putDouble(d);
  EXPECT_EQ(bulk.bytes(), words.bytes());

  Decoder dec(bulk.bytes());
  EXPECT_EQ(dec.getU32(), 7u);
  const std::vector<double> back = dec.getDoubleVector();
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back[i], &v[i], sizeof(double)), 0) << i;
  }
  EXPECT_TRUE(dec.exhausted());
}

// A count larger than the remaining bytes is rejected before anything
// is sized from it.
TEST(Wire, OversizedVectorCountThrows) {
  Encoder enc;
  enc.putU32(0xFFFFFFFFu);
  enc.putDouble(1.0);
  Decoder dec(enc.bytes());
  EXPECT_THROW(dec.getDoubleVector(), RpcError);

  Encoder shortByOne;
  shortByOne.putDoubleVector({1.0, 2.0});
  std::vector<std::uint8_t> cut(shortByOne.bytes().begin(),
                                shortByOne.bytes().end() - 1);
  Decoder cutDec(cut);
  EXPECT_THROW(cutDec.getDoubleVector(), RpcError);
}

TEST(Wire, TruncatedMessageThrows) {
  Encoder enc;
  enc.putDouble(42.0);
  std::vector<std::uint8_t> cut(enc.bytes().begin(), enc.bytes().end() - 1);
  Decoder dec(cut);
  EXPECT_THROW(dec.getDouble(), RpcError);
}

TEST(Wire, MixedSequenceRoundTrip) {
  Encoder enc;
  enc.putString("sadc");
  enc.putU32(3);
  enc.putDoubleVector({9.0, 8.0});
  enc.putI64(-77);
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.getString(), "sadc");
  EXPECT_EQ(dec.getU32(), 3u);
  EXPECT_EQ(dec.getDoubleVector().size(), 2u);
  EXPECT_EQ(dec.getI64(), -77);
  EXPECT_TRUE(dec.exhausted());
}

class WireProperty : public ::testing::TestWithParam<int> {};

TEST_P(WireProperty, RandomRoundTrips) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 19 + 5);
  for (int iter = 0; iter < 50; ++iter) {
    Encoder enc;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    const long n = rng.uniformInt(0, 20);
    for (long i = 0; i < n; ++i) {
      doubles.push_back(rng.gaussian(0.0, 1e6));
      std::string s;
      const long len = rng.uniformInt(0, 30);
      for (long j = 0; j < len; ++j) {
        s += static_cast<char>(rng.uniformInt(32, 126));
      }
      strings.push_back(s);
      enc.putDouble(doubles.back());
      enc.putString(strings.back());
    }
    Decoder dec(enc.bytes());
    for (long i = 0; i < n; ++i) {
      EXPECT_EQ(dec.getDouble(), doubles[static_cast<std::size_t>(i)]);
      EXPECT_EQ(dec.getString(), strings[static_cast<std::size_t>(i)]);
    }
    EXPECT_TRUE(dec.exhausted());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuns, WireProperty, ::testing::Range(0, 6));

double randomValue(Rng& rng) {
  switch (rng.uniformInt(0, 5)) {
    case 0:
      return std::nan("");
    case 1:
      return -0.0;
    default:
      return rng.gaussian(0.0, 1e6);
  }
}

std::vector<double> randomVector(Rng& rng, long maxLen) {
  std::vector<double> v(static_cast<std::size_t>(rng.uniformInt(0, maxLen)));
  for (double& d : v) d = randomValue(rng);
  return v;
}

// encodedSize is the sim daemons' Table 4 byte count: it must equal
// what the encoder produces for every shape, including empty vectors,
// no processes and every XDR padding remainder of a process name.
TEST(Payloads, EncodedSizeMatchesEncoder) {
  Rng rng(1009);
  for (int iter = 0; iter < 200; ++iter) {
    metrics::SadcSnapshot snap;
    snap.time = randomValue(rng);
    snap.node = randomVector(rng, 70);
    snap.nic = randomVector(rng, 20);
    const long procs = rng.uniformInt(0, 4);
    for (long p = 0; p < procs; ++p) {
      const auto nameLen = static_cast<std::size_t>(rng.uniformInt(0, 9));
      snap.processes.emplace_back(std::string(nameLen, 'p'),
                                  randomVector(rng, 12));
    }
    Encoder enc;
    encodeSnapshot(enc, snap);
    EXPECT_EQ(encodedSize(snap), enc.size()) << "snapshot " << iter;

    std::vector<hadooplog::StateSample> samples(
        static_cast<std::size_t>(rng.uniformInt(0, 5)));
    for (auto& s : samples) {
      s.second = rng.uniformInt(-5, 100000);
      s.counts = randomVector(rng, 8);
    }
    Encoder sampleEnc;
    encodeSamples(sampleEnc, samples);
    EXPECT_EQ(encodedSize(samples), sampleEnc.size()) << "samples " << iter;
  }
  // Every name length 0..9 explicitly, so each padding case is hit.
  for (std::size_t len = 0; len <= 9; ++len) {
    metrics::SadcSnapshot snap;
    snap.processes.emplace_back(std::string(len, 'x'),
                                std::vector<double>{});
    Encoder enc;
    encodeSnapshot(enc, snap);
    EXPECT_EQ(encodedSize(snap), enc.size()) << "name length " << len;
  }
}

// The collect request is {node, now} plus a watermark for tt/dn; a
// request short of its kind's layout does not decode.
TEST(Payloads, RequestCodecRoundTripsEachKind) {
  for (int k = 0; k < kCollectKindCount; ++k) {
    const auto kind = static_cast<CollectKind>(k);
    const bool rows = kind == CollectKind::kTt || kind == CollectKind::kDn;
    Encoder enc;
    encodeRequest(enc, {kind, 7, 12.5, rows ? 11.0 : kNoTime});
    EXPECT_EQ(enc.size(), rows ? 20u : 12u) << collectKindName(kind);
    Decoder dec(enc.bytes());
    CollectRequest got;
    ASSERT_TRUE(decodeRequest(dec, kind, got));
    EXPECT_TRUE(dec.exhausted());
    EXPECT_EQ(got.kind, kind);
    EXPECT_EQ(got.node, 7);
    EXPECT_EQ(got.now, 12.5);
    EXPECT_EQ(got.watermark, rows ? 11.0 : kNoTime);

    const std::vector<std::uint8_t> truncated(enc.bytes().begin(),
                                              enc.bytes().end() - 1);
    Decoder short_(truncated);
    EXPECT_FALSE(decodeRequest(short_, kind, got)) << collectKindName(kind);
  }
}

// decodeInto reports bytes that are not a valid encoding instead of
// throwing, and sizes nothing from an untrusted row count.
TEST(Payloads, DecodeIntoRejectsBadBytes) {
  std::vector<hadooplog::StateSample> rows{{3, {1.0, 2.0}}};
  Encoder enc;
  encodePayload(enc, &rows);
  std::vector<hadooplog::StateSample> got;
  Decoder dec(enc.bytes());
  ASSERT_TRUE(decodeInto(dec, &got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, 3);
  EXPECT_EQ(got[0].counts, rows[0].counts);

  const std::vector<std::uint8_t> hostileCount = {0xff, 0xff, 0xff, 0xff};
  Decoder hostile(hostileCount);
  EXPECT_FALSE(decodeInto(hostile, &got));
  const std::vector<std::uint8_t> shortTime = {1, 2, 3};
  Decoder truncated(shortTime);
  metrics::SadcSnapshot snap;
  EXPECT_FALSE(decodeInto(truncated, &snap));
}

TEST(Transport, ChannelAccounting) {
  TransportRegistry registry;
  RpcChannelStats& ch = registry.channel("sadc-tcp");
  ch.recordConnect();
  ch.recordConnect();
  ch.recordCall(48, 1000);
  ch.recordCall(48, 1200);
  EXPECT_EQ(ch.connects(), 2);
  EXPECT_EQ(ch.calls(), 2);
  EXPECT_DOUBLE_EQ(ch.staticOverheadBytes(), 2 * 2028.0);
  EXPECT_DOUBLE_EQ(ch.totalCallBytes(), 48 + 1000 + 48 + 1200 + 4 * 78.0);
  EXPECT_DOUBLE_EQ(ch.bytesPerCall(), ch.totalCallBytes() / 2.0);
}

// A tally added in one step books exactly what the same calls booked
// one at a time: counts and (whole) bytes, framing included.
TEST(Transport, TallyEqualsCallByCall) {
  TransportRegistry registry;
  RpcChannelStats& byCall = registry.channel("by-call");
  RpcChannelStats& byTally = registry.channel("by-tally");
  ChannelTally tally;
  for (std::size_t i = 0; i < 1000; ++i) {
    byCall.recordCall(48, 900 + i);
    ++tally.calls;
    tally.payloadBytes += 48 + 900 + i;
    if (i % 7 == 0) {
      byCall.recordFailedCall(48);
      ++tally.failedCalls;
      tally.payloadBytes += 48;
    }
  }
  byTally.add(tally);
  EXPECT_EQ(byTally.calls(), byCall.calls());
  EXPECT_EQ(byTally.failedCalls(), byCall.failedCalls());
  EXPECT_EQ(byTally.totalCallBytes(), byCall.totalCallBytes());
  EXPECT_EQ(byTally.calls(), 1000);
  EXPECT_EQ(byTally.failedCalls(), 143);
}

TEST(Transport, RegistryKeysChannelsByName) {
  TransportRegistry registry;
  registry.channel("a").recordConnect();
  registry.channel("b").recordConnect();
  registry.channel("a").recordConnect();
  EXPECT_EQ(registry.channel("a").connects(), 2);
  EXPECT_EQ(registry.channel("b").connects(), 1);
  EXPECT_EQ(registry.channels().size(), 2u);
}

TEST(Transport, EmptyChannelSafeStats) {
  TransportRegistry registry;
  const RpcChannelStats& ch = registry.channel("idle");
  EXPECT_DOUBLE_EQ(ch.bytesPerCall(), 0.0);
  EXPECT_DOUBLE_EQ(ch.totalCallBytes(), 0.0);
}

}  // namespace
}  // namespace asdf::rpc
