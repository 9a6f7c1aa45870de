#include "net/shard_group.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace asdf::net {

ShardGroup::ShardGroup(const ShardGroupOptions& options) {
  const std::size_t n = static_cast<std::size_t>(std::max(1, options.shards));
  const bool reusePort = n > 1;
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    // Shard 0 resolves an ephemeral port; its siblings bind the same.
    servers_.push_back(std::make_unique<TcpServer>(
        *loops_[i], i == 0 ? options.port : servers_[0]->port(), reusePort));
  }
}

ShardGroup::~ShardGroup() {
  stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ShardGroup::onFrame(const TcpServer::FrameHandler& handler) {
  for (auto& s : servers_) s->onFrame(handler);
}

void ShardGroup::setIdleTimeout(double seconds) {
  for (auto& s : servers_) s->setIdleTimeout(seconds);
}

void ShardGroup::runOnCaller() {
  threads_.clear();
  for (std::size_t i = 1; i < loops_.size(); ++i) {
    EventLoop* loop = loops_[i].get();
    threads_.emplace_back([loop] { loop->run(); });
  }
  loops_[0]->run();
  // Shard 0 returns only for stop(), which stops every shard: join the
  // rest before returning to the caller.
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ShardGroup::stop() {
  for (auto& loop : loops_) loop->stop();
}

bool ShardGroup::answerSession(TcpServer::Connection& conn,
                               const Frame& frame, const HelloAck& ack,
                               const char* daemonName) {
  if (frame.type == MsgType::kHello) {
    rpc::Decoder dec(frame.payload);
    if (dec.getU32() != kProtocolVersion) {
      conn.sendError(ErrorCode::kVersionSkew,
                     "server speaks version " +
                         std::to_string(kProtocolVersion));
      conn.close();
      return true;
    }
    rpc::Encoder enc;
    enc.putU32(kProtocolVersion);
    enc.putU32(static_cast<std::uint32_t>(ack.members));
    enc.putI64(static_cast<std::int64_t>(ack.seed));
    enc.putString(ack.source);
    conn.send(MsgType::kHelloAck, enc);
    return true;
  }
  if (frame.type == MsgType::kShutdown) {
    conn.send(MsgType::kShutdownAck, rpc::Encoder{});
    conn.close();
    logInfo(std::string(daemonName) + ": shutdown requested; exiting");
    stop();
    return true;
  }
  return false;
}

}  // namespace asdf::net
