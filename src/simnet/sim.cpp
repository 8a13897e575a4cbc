#include "simnet/sim.h"

#include "common/error.h"
#include "crypto/drbg.h"

namespace amnesia::simnet {

Simulation::Simulation(std::uint64_t seed)
    : rng_(std::make_unique<crypto::ChaChaDrbg>(seed)) {}

Simulation::~Simulation() = default;

void Simulation::schedule_at(Micros t, std::function<void()> fn) {
  if (t < now_) t = now_;
  queue_.push(Event{t, next_seq_++, std::move(fn)});
  if (host_) arm_host_timer();
}

void Simulation::schedule_after(Micros delta, std::function<void()> fn) {
  schedule_at(now() + std::max<Micros>(delta, 0), std::move(fn));
}

bool Simulation::pop_and_run() {
  if (queue_.empty()) return false;
  // priority_queue::top() is const; the event is copied out, then popped,
  // so handlers may schedule freely.
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.time;
  const bool outer = dispatching_;
  dispatching_ = true;
  ev.fn();
  dispatching_ = outer;
  return true;
}

Simulation::Attachment Simulation::attach(net::Executor& host) {
  if (host_) throw Error("Simulation::attach: already attached");
  host_ = std::make_shared<Host>(
      Host{host, host.clock().now_us(), now_, {}});
  arm_host_timer();
  return Attachment(this);
}

Micros Simulation::host_now() const {
  return host_->virtual_epoch + (host_->exec.clock().now_us() -
                                 host_->real_epoch);
}

void Simulation::arm_host_timer() {
  if (queue_.empty()) return;
  const Micros next = queue_.top().time;
  // A timer due no later than `next` re-arms for it when it fires. While
  // one is firing its own entry stays in `armed`, so events scheduled
  // during that dispatch arm nothing.
  if (!host_->armed.empty() && *host_->armed.begin() <= next) return;
  host_->armed.insert(next);
  const Micros real_due = host_->real_epoch + (next - host_->virtual_epoch);
  const Micros delay = real_due - host_->exec.clock().now_us();
  host_->exec.run_after(std::max<Micros>(delay, 0),
                        [this, weak = std::weak_ptr<Host>(host_), next] {
                          if (weak.expired()) return;  // detached
                          run_until(host_now());
                          host_->armed.erase(host_->armed.find(next));
                          arm_host_timer();
                        });
}

std::size_t Simulation::run() {
  std::size_t count = 0;
  while (pop_and_run()) ++count;
  return count;
}

bool Simulation::step() { return pop_and_run(); }

std::size_t Simulation::run_until(Micros t) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().time <= t) {
    pop_and_run();
    ++count;
  }
  if (now_ < t) now_ = t;
  return count;
}

std::size_t Simulation::run_capped(std::size_t max_events) {
  std::size_t count = 0;
  while (pop_and_run()) {
    if (++count > max_events) {
      throw Error("Simulation::run_capped: event budget exceeded");
    }
  }
  return count;
}

}  // namespace amnesia::simnet
