#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "common/logging.h"

namespace amnesia::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw NetError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw NetError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw NetError(std::string("epoll_ctl(wakeup): ") + std::strerror(errno));
  }
  last_tick_ = static_cast<std::uint64_t>(clock_.now_us()) >> kTickShift;
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::set_metrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    wakeups_ = nullptr;
    timers_fired_ = nullptr;
    eventfd_wakeups_ = nullptr;
    post_depth_ = nullptr;
    post_depth_max_ = nullptr;
    dispatch_delay_ = nullptr;
    callback_us_ = nullptr;
    wake_dispatch_us_ = nullptr;
    timer_slip_us_ = nullptr;
    return;
  }
  wakeups_ = &registry->counter("net.epoll_wakeups");
  timers_fired_ = &registry->counter("net.timers_fired");
  eventfd_wakeups_ = &registry->counter("net.loop.eventfd_wakeups");
  post_depth_ = &registry->gauge("net.loop.post_depth");
  post_depth_max_ = &registry->gauge("net.loop.post_depth_max");
  dispatch_delay_ = &registry->gauge("net.loop.dispatch_delay_us");
  // Loop intervals live far below the default bounds' 100 us floor.
  callback_us_ = &registry->histogram("net.loop.callback_us",
                                      obs::fine_latency_bounds());
  wake_dispatch_us_ = &registry->histogram("net.loop.wake_dispatch_us",
                                           obs::fine_latency_bounds());
  timer_slip_us_ = &registry->histogram("net.loop.timer_slip_us",
                                        obs::fine_latency_bounds());
}

// ---- fds ---------------------------------------------------------------

void EventLoop::add_fd(int fd, std::uint32_t events, IoHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(add): ") + std::strerror(errno));
  }
  fds_[fd] = std::make_shared<FdEntry>(FdEntry{std::move(handler)});
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(mod): ") + std::strerror(errno));
  }
}

void EventLoop::del_fd(int fd) {
  // Best effort: the fd may already be closed (EBADF) on teardown paths.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(fd);
}

// ---- timers ------------------------------------------------------------

EventLoop::TimerId EventLoop::add_timer(Micros delay_us,
                                        std::function<void()> fn) {
  if (delay_us < 0) delay_us = 0;
  const Micros deadline = clock_.now_us() + delay_us;
  const TimerId id = next_timer_id_++;
  wheel_[slot_of(deadline)].push_back(Timer{id, deadline, std::move(fn)});
  live_timers_.insert(id);
  if (nearest_deadline_ < 0 || deadline < nearest_deadline_) {
    nearest_deadline_ = deadline;
  }
  return id;
}

bool EventLoop::cancel_timer(TimerId id) {
  if (live_timers_.erase(id) == 0) return false;
  // The wheel entry stays put; it is discarded when its slot is visited.
  cancelled_timers_.insert(id);
  return true;
}

void EventLoop::recompute_nearest() {
  nearest_deadline_ = -1;
  if (live_timers_.empty()) return;
  for (const auto& slot : wheel_) {
    for (const Timer& t : slot) {
      if (cancelled_timers_.contains(t.id)) continue;
      if (nearest_deadline_ < 0 || t.deadline < nearest_deadline_) {
        nearest_deadline_ = t.deadline;
      }
    }
  }
}

std::size_t EventLoop::process_timers() {
  const Micros now = clock_.now_us();
  const std::uint64_t now_tick = static_cast<std::uint64_t>(now) >> kTickShift;
  if (live_timers_.empty() && cancelled_timers_.empty()) {
    last_tick_ = now_tick;
    return 0;
  }
  // Visit every slot the clock has crossed since the last pass, plus the
  // current slot (so sub-tick delays fire as soon as now >= deadline). One
  // full rotation covers the whole wheel.
  std::uint64_t span = now_tick - last_tick_ + 1;
  if (span > kWheelSlots) span = kWheelSlots;

  std::size_t fired = 0;
  std::vector<Timer> due;
  for (std::uint64_t i = 0; i < span; ++i) {
    const std::uint64_t tick = now_tick - (span - 1) + i;
    auto& slot = wheel_[tick & (kWheelSlots - 1)];
    for (std::size_t j = 0; j < slot.size();) {
      Timer& t = slot[j];
      if (cancelled_timers_.erase(t.id) > 0) {
        slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(j));
        continue;
      }
      if (t.deadline <= now) {
        live_timers_.erase(t.id);
        due.push_back(std::move(t));
        slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(j));
        continue;
      }
      ++j;  // a later rotation's timer
    }
  }
  last_tick_ = now_tick;
  if (!due.empty() || (nearest_deadline_ >= 0 && nearest_deadline_ <= now)) {
    recompute_nearest();
  }
  for (Timer& t : due) {
    ++fired;
    if (timers_fired_) timers_fired_->inc();
    if (timer_slip_us_) {
      timer_slip_us_->record(now > t.deadline ? now - t.deadline : 0);
      const Micros t0 = clock_.now_us();
      t.fn();
      callback_us_->record(clock_.now_us() - t0);
    } else {
      t.fn();
    }
  }
  return fired;
}

// ---- posting -----------------------------------------------------------

void EventLoop::post(std::function<void()> fn) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
    depth = posted_.size();
  }
  // Queue-depth visibility for cross-thread mailbox pressure: the gauge
  // tracks the depth after the latest post, the _max gauge the worst
  // backlog since reset. Written outside the lock — last writer wins is
  // exactly a gauge's semantics.
  if (post_depth_) {
    post_depth_->set(static_cast<std::int64_t>(depth));
    post_depth_max_->track_max(static_cast<std::int64_t>(depth));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::run_after(Micros delay_us, std::function<void()> fn) {
  add_timer(delay_us, std::move(fn));
}

std::size_t EventLoop::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  if (post_depth_ && !batch.empty()) post_depth_->set(0);
  for (auto& fn : batch) {
    if (callback_us_) {
      const Micros t0 = clock_.now_us();
      fn();
      callback_us_->record(clock_.now_us() - t0);
    } else {
      fn();
    }
  }
  return batch.size();
}

// ---- loop --------------------------------------------------------------

Micros EventLoop::wait_budget(Micros max_wait_us) const {
  Micros budget = max_wait_us < 0 ? 0 : max_wait_us;
  if (nearest_deadline_ >= 0) {
    const Micros until = nearest_deadline_ - clock_.now_us();
    if (until < budget) budget = until < 0 ? 0 : until;
  }
  {
    // Pending posted work means no sleeping at all.
    std::lock_guard<std::mutex> lock(post_mu_);
    if (!posted_.empty()) budget = 0;
  }
  return budget;
}

std::size_t EventLoop::poll(Micros max_wait_us) {
  const Micros budget = wait_budget(max_wait_us);
  // Round up so a timer due in 200 us is not spun on with timeout 0.
  const int timeout_ms =
      budget <= 0 ? 0 : static_cast<int>((budget + 999) / 1000);

  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (wakeups_) wakeups_->inc();
  std::size_t dispatched = 0;
  if (n > 0) {
    // One timestamp for the whole batch: wake_dispatch measures how long
    // each handler waited behind its batch-mates (head-of-line blocking),
    // so it is the gap from epoll return to this handler's start.
    const Micros woke_at = callback_us_ ? clock_.now_us() : 0;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        if (eventfd_wakeups_) eventfd_wakeups_->inc();
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      // Look the entry up per event: an earlier handler in this batch may
      // have del_fd()'d this fd.
      const auto it = fds_.find(fd);
      if (it == fds_.end()) continue;
      const std::shared_ptr<FdEntry> entry = it->second;
      if (callback_us_) {
        const Micros t0 = clock_.now_us();
        wake_dispatch_us_->record(t0 - woke_at);
        dispatch_delay_->set(t0 - woke_at);
        entry->handler(events[i].events);
        callback_us_->record(clock_.now_us() - t0);
      } else {
        entry->handler(events[i].events);
      }
      ++dispatched;
    }
  } else if (n < 0 && errno != EINTR) {
    throw NetError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  dispatched += drain_posted();
  dispatched += process_timers();
  return dispatched;
}

void EventLoop::run() {
  // Consuming the flag on the way out (rather than clearing it on the way
  // in) keeps a stop() issued just before run() from being lost.
  while (!stop_.exchange(false, std::memory_order_relaxed)) {
    poll(1'000'000);
  }
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace amnesia::net
