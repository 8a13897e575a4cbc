// Deterministic discrete-event simulation core.
//
// All distributed pieces of the reproduction — browser, Amnesia server,
// rendezvous service, phone, cloud storage — run as endpoints inside one
// Simulation. Virtual time advances only when events fire, so a full
// latency experiment (Fig. 3: 2x100 trials) runs in milliseconds of real
// time and is bit-for-bit reproducible from the seed.
//
// Serving real clients (docs/NETWORKING.md), the same simulation keeps
// real time by itself once attach()ed to a host executor: virtual time is
// pinned 1:1 to the host clock, and the earliest queued event always has
// one host timer armed for it. Anything a reactor callback schedules then
// runs when it is due.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "net/executor.h"

namespace amnesia::simnet {

/// Simulation implements net::Executor so protocol components written
/// against the executor surface (HttpServer's worker model, RPC timeouts)
/// run unchanged in virtual time: post() is a zero-delay event,
/// run_after() is schedule_after. Unlike net::EventLoop, this executor is
/// single-threaded — call it only from the thread driving the simulation.
class Simulation : public net::Executor {
 public:
  /// Seeds the simulation's private RandomSource (delay sampling, loss).
  explicit Simulation(std::uint64_t seed);
  ~Simulation() override;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Virtual time. Attached and outside event dispatch, this is the host
  /// clock mapped into virtual time, so work a reactor callback schedules
  /// is timed from the real now rather than from the last event.
  Micros now() const {
    return host_ && !dispatching_ ? std::max(now_, host_now()) : now_;
  }

  /// Schedules `fn` at absolute virtual time `t` (>= now). Events at equal
  /// times fire in scheduling order.
  void schedule_at(Micros t, std::function<void()> fn);

  /// Schedules `fn` after `delta` microseconds (clamped to >= 0).
  void schedule_after(Micros delta, std::function<void()> fn);

  /// Runs until the event queue drains. Returns the number of events run.
  std::size_t run();

  /// Runs exactly one event; returns false if the queue was empty. Lets
  /// callers stop as soon as a condition holds (e.g. a reply arrived)
  /// without fast-forwarding through unrelated future timers.
  bool step();

  /// Runs events with time <= `t`, then sets now to `t`.
  std::size_t run_until(Micros t);

  /// Safety-capped run: drains the queue but throws Error after
  /// `max_events` (runaway-loop guard in tests).
  std::size_t run_capped(std::size_t max_events);

  bool idle() const { return queue_.empty(); }

  struct Detacher {
    void operator()(Simulation* sim) const { sim->host_.reset(); }
  };
  /// Keeps the simulation attached to a host while alive; destroying it
  /// detaches (the simulation is then driven by hand again). Must not
  /// outlive the simulation.
  using Attachment = std::unique_ptr<Simulation, Detacher>;

  /// Pins virtual time 1:1 to `host`'s clock from this moment and lets
  /// `host` run every event when it is due: each schedule keeps exactly
  /// one host timer armed for the earliest queued event, whose callback
  /// runs run_until(mapped now) and re-arms. Only ever fast-forwards to
  /// the present — a 30 s phone timeout still takes 30 s of wall time.
  /// The simulation must from then on be touched only from `host`'s
  /// dispatch thread. A never-attached simulation is pure virtual time.
  [[nodiscard]] Attachment attach(net::Executor& host);

  RandomSource& rng() { return *rng_; }

  // ---- net::Executor ---------------------------------------------------
  void post(std::function<void()> fn) override { schedule_after(0, std::move(fn)); }
  void run_after(Micros delay_us, std::function<void()> fn) override {
    schedule_after(delay_us, std::move(fn));
  }
  /// A Clock view of virtual time, for injection into protocol components.
  Clock& clock() override { return clock_view_; }

 private:
  struct Event {
    Micros time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  class SimClockView final : public Clock {
   public:
    explicit SimClockView(const Simulation& sim) : sim_(sim) {}
    Micros now_us() const override { return sim_.now(); }

   private:
    const Simulation& sim_;
  };

  /// The attached host and the 1:1 map between its clock and ours.
  struct Host {
    net::Executor& exec;
    Micros real_epoch;
    Micros virtual_epoch;
    /// Virtual due times of the host timers in flight.
    std::multiset<Micros> armed;
  };

  bool pop_and_run();
  Micros host_now() const;
  /// Arms a host timer for the earliest queued event unless one in
  /// flight already fires no later than it.
  void arm_host_timer();

  Micros now_ = 0;
  bool dispatching_ = false;  // inside an event's fn
  std::shared_ptr<Host> host_;  // timers hold weak refs: detach disarms
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unique_ptr<RandomSource> rng_;
  SimClockView clock_view_{*this};
};

}  // namespace amnesia::simnet
