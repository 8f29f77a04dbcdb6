// Span recording for the traced benchmark run, taken from outside the
// library: the driver brackets its calls into each layer, and a Transport
// decorator brackets every transport call. Spans stay in memory in
// pre-sized per-rank buffers (so the allocation counter sees none of them)
// and are written out as Chrome trace-event JSON after the run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "comm/transport.h"

namespace perfbench {

// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();

// Small per-thread id for the trace viewer's rows, assigned on first use.
int thread_tid();

struct Span {
  std::uint32_t name = 0;  // Tracer::intern() index
  std::int32_t rank = 0;
  std::int32_t tid = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint64_t bytes = 0;
};

class Tracer {
 public:
  Tracer(int world, std::size_t capacity_per_rank);

  // Registers a span name. Call before recording starts.
  std::uint32_t intern(const std::string& name);

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_release);
  }
  bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }

  // Drops the span (and counts it) once the rank's buffer is full, so the
  // buffers never grow while steps are measured. `tid` < 0 means the
  // calling thread's id.
  void record(std::uint32_t name, int rank, std::int64_t t0, std::int64_t t1,
              std::uint64_t bytes = 0, int tid = -1);

  // Aggregates over every rank. Call after recording stopped.
  double total_ms(std::uint32_t name) const;
  std::size_t recorded() const;
  std::size_t dropped() const;

  // Chrome trace-event format (Perfetto / chrome://tracing); `metadata` is
  // a JSON object stored under "otherData".
  void write_chrome_json(std::ostream& out, const std::string& metadata) const;

 private:
  struct RankBuffer {
    std::mutex mutex;  // the rank's training and comm threads both record
    std::vector<Span> spans;
    std::size_t dropped = 0;
  };

  std::vector<std::string> names_;
  std::vector<std::unique_ptr<RankBuffer>> ranks_;
  std::atomic<bool> recording_{false};
};

// Times one scope into `tracer` when it is non-null and recording.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, int rank)
      : tracer_(tracer != nullptr && tracer->recording() ? tracer : nullptr),
        name_(name),
        rank_(rank),
        t0_(tracer_ != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->record(name_, rank_, t0_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t name_;
  int rank_;
  std::int64_t t0_;
};

// Forwards every call to `inner` and records one span per call, attributed
// to the calling rank (the sender of a send or post, the receiver of a
// receive, pull, select or wait). Accounting (recorder, health) is the
// inner transport's, as with the library's own decorators.
class TimedTransport final : public cgx::comm::Transport {
 public:
  TimedTransport(cgx::comm::Transport& inner, Tracer& tracer);

  void send(int src, int dst, std::span<const std::byte> data,
            int tag) override;
  void recv(int dst, int src, std::span<std::byte> data, int tag) override;
  bool supports_recv_add() const override {
    return inner_.supports_recv_add();
  }
  void recv_add(int dst, int src, std::span<float> data, int tag) override;

  bool supports_direct_exchange() const override {
    return inner_.supports_direct_exchange();
  }
  bool supports_direct_exchange(int a, int b) const override {
    return inner_.supports_direct_exchange(a, b);
  }
  void direct_post(int src, int dst, std::span<const float> data,
                   int tag) override;
  void direct_pull(int dst, int src, std::span<float> data, bool add,
                   int tag) override;
  void direct_pull2(int dst, int src1, int src2, std::span<float> data,
                    int tag) override;
  void direct_wait(int src, int dst, int tag) override;
  int select_source(int dst, std::span<const int> candidates,
                    int tag) override;

  const cgx::comm::TransportProfile& profile() const override {
    return inner_.profile();
  }
  cgx::comm::TrafficRecorder& recorder() override { return inner_.recorder(); }
  const cgx::comm::TrafficRecorder& recorder() const override {
    return inner_.recorder();
  }
  cgx::comm::HealthMonitor& health() override { return inner_.health(); }
  const cgx::comm::HealthMonitor& health() const override {
    return inner_.health();
  }
  void set_policy(const cgx::comm::CommPolicy& policy) override {
    inner_.set_policy(policy);
  }
  void set_fault_injector(cgx::comm::FaultInjector* injector) override {
    inner_.set_fault_injector(injector);
  }
  void reset_inbound(int rank) override { inner_.reset_inbound(rank); }
  void set_epoch(std::uint64_t epoch) override { inner_.set_epoch(epoch); }
  std::uint64_t epoch() const override { return inner_.epoch(); }
  std::uint64_t stale_frames_discarded() const override {
    return inner_.stale_frames_discarded();
  }

 private:
  struct Names {
    std::uint32_t send, recv, recv_add, post, pull, pull2, wait, select;
  };

  cgx::comm::Transport& inner_;
  Tracer& tracer_;
  Names names_;
};

}  // namespace perfbench
