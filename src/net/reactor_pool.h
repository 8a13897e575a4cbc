// ReactorPool: N EventLoops, each pinned to its own thread.
//
// The sharded server runs one reactor per shard; everything a shard owns
// (acceptor, connections, simulation, server state, storage) lives on that
// shard's loop thread and is only ever touched from it. The pool owns the
// loops and their threads: start() spins the threads up, stop_join() makes
// every run() return and joins. Work is handed to a shard with
// loop(i).post(...) — the eventfd wakeup channel — or, for setup/teardown
// that must complete before the caller proceeds, run_on_sync().
//
// The loops are constructed eagerly (before start()) so callers can wire
// objects to them from the owning thread via run_on_sync even while other
// shards are already serving.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"

namespace amnesia::net {

class ReactorPool {
 public:
  explicit ReactorPool(std::size_t n);
  ~ReactorPool();

  ReactorPool(const ReactorPool&) = delete;
  ReactorPool& operator=(const ReactorPool&) = delete;

  std::size_t size() const { return loops_.size(); }
  EventLoop& loop(std::size_t i) { return *loops_[i]; }

  /// The profiler thread name of loop `i`'s thread ("reactor-<i>") —
  /// the key a per-shard GET /profile scrape filters on.
  static std::string thread_name(std::size_t i) {
    return "reactor-" + std::to_string(i);
  }

  /// Launches one thread per loop, each running EventLoop::run().
  void start();
  /// Stops every loop and joins its thread. Idempotent; also called by
  /// the destructor. Posted-but-undrained work is dropped with the loop.
  void stop_join();
  bool running() const { return running_; }

  /// Posts `fn` to loop `i` and blocks until it has run there. Must not
  /// be called from a pool thread (it would deadlock waiting on itself);
  /// intended for construction/teardown choreography from the owner
  /// thread. Exceptions thrown by `fn` propagate back to the caller.
  void run_on_sync(std::size_t i, const std::function<void()>& fn);

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
  bool running_ = false;
};

}  // namespace amnesia::net
