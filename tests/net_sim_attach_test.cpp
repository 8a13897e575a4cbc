// A simnet::Simulation attached to a net::EventLoop keeps real time by
// itself: whatever a reactor callback schedules runs when it is due, with
// no further traffic — and never before its time on the wall clock.
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <functional>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "simnet/sim.h"

namespace amnesia {
namespace {

/// Polls `loop` until `done` holds or `budget_us` of wall time passes.
bool poll_until(net::EventLoop& loop, const std::function<bool()>& done,
                Micros budget_us = 2'000'000) {
  const Micros deadline = loop.clock().now_us() + budget_us;
  while (!done() && loop.clock().now_us() < deadline) loop.poll(5'000);
  return done();
}

TEST(SimAttach, EventScheduledFromFdCallbackFiresWithoutMoreTraffic) {
  net::EventLoop loop;
  simnet::Simulation sim(1);
  const auto attachment = sim.attach(loop);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  bool fired = false;
  loop.add_fd(fds[0], EPOLLIN, [&](std::uint32_t) {
    char byte;
    [[maybe_unused]] const ssize_t r = ::read(fds[0], &byte, 1);
    sim.schedule_after(20'000, [&] { fired = true; });
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_TRUE(poll_until(loop, [&] { return fired; }));
  loop.del_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SimAttach, EventPostedFromForeignThreadFiresWithoutMoreTraffic) {
  net::EventLoop loop;
  simnet::Simulation sim(1);
  const auto attachment = sim.attach(loop);

  bool fired = false;
  std::thread poster([&] {
    // The loop hands the work to its own thread; only that thread
    // touches the simulation.
    loop.post([&] { sim.post([&] { fired = true; }); });
  });
  poster.join();
  EXPECT_TRUE(poll_until(loop, [&] { return fired; }));
}

TEST(SimAttach, EventsQueuedBeforeAttachRunWhenDue) {
  net::EventLoop loop;
  simnet::Simulation sim(1);
  bool fired = false;
  sim.schedule_after(30'000, [&] { fired = true; });
  const auto attachment = sim.attach(loop);
  EXPECT_TRUE(poll_until(loop, [&] { return fired; }));
}

TEST(SimAttach, EqualTimesKeepFifoOrder) {
  net::EventLoop loop;
  simnet::Simulation sim(1);
  const auto attachment = sim.attach(loop);

  std::vector<int> order;
  loop.post([&] {
    const Micros t = sim.now() + 5'000;
    for (int i = 0; i < 8; ++i) {
      sim.schedule_at(t, [&order, i] { order.push_back(i); });
    }
    // Zero-delay work keeps its order too, and runs before the later
    // batch.
    sim.post([&order] { order.push_back(-1); });
    sim.post([&order] { order.push_back(-2); });
  });
  ASSERT_TRUE(poll_until(loop, [&] { return order.size() == 10; }));
  EXPECT_EQ(order, (std::vector<int>{-1, -2, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimAttach, TimerNeverFiresBeforeItsWallTime) {
  // The fast-forward hazard: draining the queue whenever something
  // happens would fire a 200 ms timeout as soon as other traffic woke
  // the simulation. Keep waking it every few ms and check the wall clock.
  net::EventLoop loop;
  simnet::Simulation sim(1);
  const auto attachment = sim.attach(loop);

  Micros scheduled_at = 0;
  Micros fired_at = -1;
  loop.post([&] {
    scheduled_at = loop.clock().now_us();
    sim.schedule_after(200'000,
                       [&] { fired_at = loop.clock().now_us(); });
  });
  std::function<void()> chatter = [&] {
    sim.post([] {});
    if (fired_at < 0) loop.run_after(3'000, chatter);
  };
  loop.post(chatter);
  ASSERT_TRUE(poll_until(loop, [&] { return fired_at >= 0; }));
  EXPECT_GE(fired_at - scheduled_at, 200'000);
  EXPECT_LT(fired_at - scheduled_at, 1'000'000);
}

TEST(SimAttach, OneHostTimerForTheEarliestEvent) {
  // A far-off event (a heartbeat) plus a burst of near work must not
  // leave a stale host timer behind per burst.
  net::EventLoop loop;
  simnet::Simulation sim(1);
  const auto attachment = sim.attach(loop);

  int done = 0;
  sim.schedule_after(10'000'000, [] {});
  for (int i = 0; i < 50; ++i) {
    loop.post([&] { sim.post([&done] { ++done; }); });
  }
  ASSERT_TRUE(poll_until(loop, [&] { return done == 50; }));
  loop.poll(0);
  EXPECT_EQ(loop.pending_timers(), 1u);
}

TEST(SimAttach, DetachedSimulationIsPureVirtualTimeAgain) {
  net::EventLoop loop;
  simnet::Simulation sim(1);
  {
    const auto attachment = sim.attach(loop);
    sim.schedule_after(60'000'000, [] {});
  }
  // No host timer fires into a detached simulation; stepping by hand
  // fast-forwards through virtual time as before.
  bool fired = false;
  sim.schedule_after(30'000'000, [&] { fired = true; });
  loop.poll(0);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace amnesia
