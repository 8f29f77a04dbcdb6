#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int thread_tid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

Tracer::Tracer(int world, std::size_t capacity_per_rank) {
  for (int r = 0; r < world; ++r) {
    ranks_.push_back(std::make_unique<RankBuffer>());
    ranks_.back()->spans.reserve(capacity_per_rank);
  }
}

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::record(std::uint32_t name, int rank, std::int64_t t0,
                    std::int64_t t1, std::uint64_t bytes, int tid) {
  RankBuffer& buf = *ranks_[static_cast<std::size_t>(rank)];
  const int row = tid >= 0 ? tid : thread_tid();
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.spans.size() == buf.spans.capacity()) {
    ++buf.dropped;
    return;
  }
  buf.spans.push_back(Span{name, rank, row, t0, t1, bytes});
}

double Tracer::total_ms(std::uint32_t name) const {
  std::int64_t ns = 0;
  for (const auto& buf : ranks_) {
    for (const Span& s : buf->spans) {
      if (s.name == name) ns += s.t1_ns - s.t0_ns;
    }
  }
  return 1e-6 * static_cast<double>(ns);
}

std::size_t Tracer::recorded() const {
  std::size_t n = 0;
  for (const auto& buf : ranks_) n += buf->spans.size();
  return n;
}

std::size_t Tracer::dropped() const {
  std::size_t n = 0;
  for (const auto& buf : ranks_) n += buf->dropped;
  return n;
}

void Tracer::write_chrome_json(std::ostream& out,
                               const std::string& metadata) const {
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata
      << ",\n\"traceEvents\": [\n";
  bool first = true;
  char line[256];
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": "
                  "%zu, \"args\": {\"name\": \"rank %zu\"}}",
                  first ? "" : ",\n", r, r);
    out << line;
    first = false;
  }
  for (const auto& buf : ranks_) {
    for (const Span& s : buf->spans) {
      // Names are interned identifiers (letters, digits, '.', '_').
      std::snprintf(line, sizeof(line),
                    ",\n{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                    "\"dur\": %.3f, \"pid\": %d, \"tid\": %d, \"args\": "
                    "{\"bytes\": %" PRIu64 "}}",
                    names_[s.name].c_str(), 1e-3 * static_cast<double>(s.t0_ns),
                    1e-3 * static_cast<double>(s.t1_ns - s.t0_ns), s.rank,
                    s.tid, s.bytes);
      out << line;
    }
  }
  out << "\n]}\n";
}

TimedTransport::TimedTransport(cgx::comm::Transport& inner, Tracer& tracer)
    : Transport(inner.world_size()), inner_(inner), tracer_(tracer) {
  names_.send = tracer.intern("comm.send");
  names_.recv = tracer.intern("comm.recv");
  names_.recv_add = tracer.intern("comm.recv_add");
  names_.post = tracer.intern("comm.direct_post");
  names_.pull = tracer.intern("comm.direct_pull");
  names_.pull2 = tracer.intern("comm.direct_pull2");
  names_.wait = tracer.intern("comm.direct_wait");
  names_.select = tracer.intern("comm.select_source");
}

namespace {

template <class F>
auto timed(Tracer& tracer, std::uint32_t name, int rank, std::size_t bytes,
           F&& call) {
  if (!tracer.recording()) return call();
  const std::int64_t t0 = now_ns();
  struct Closer {
    Tracer& tracer;
    std::uint32_t name;
    int rank;
    std::size_t bytes;
    std::int64_t t0;
    ~Closer() { tracer.record(name, rank, t0, now_ns(), bytes); }
  } closer{tracer, name, rank, bytes, t0};
  return call();
}

}  // namespace

void TimedTransport::send(int src, int dst, std::span<const std::byte> data,
                          int tag) {
  timed(tracer_, names_.send, src, data.size(),
        [&] { inner_.send(src, dst, data, tag); });
}

void TimedTransport::recv(int dst, int src, std::span<std::byte> data,
                          int tag) {
  timed(tracer_, names_.recv, dst, data.size(),
        [&] { inner_.recv(dst, src, data, tag); });
}

void TimedTransport::recv_add(int dst, int src, std::span<float> data,
                              int tag) {
  timed(tracer_, names_.recv_add, dst, data.size_bytes(),
        [&] { inner_.recv_add(dst, src, data, tag); });
}

void TimedTransport::direct_post(int src, int dst,
                                 std::span<const float> data, int tag) {
  timed(tracer_, names_.post, src, data.size_bytes(),
        [&] { inner_.direct_post(src, dst, data, tag); });
}

void TimedTransport::direct_pull(int dst, int src, std::span<float> data,
                                 bool add, int tag) {
  timed(tracer_, names_.pull, dst, data.size_bytes(),
        [&] { inner_.direct_pull(dst, src, data, add, tag); });
}

void TimedTransport::direct_pull2(int dst, int src1, int src2,
                                  std::span<float> data, int tag) {
  timed(tracer_, names_.pull2, dst, 2 * data.size_bytes(),
        [&] { inner_.direct_pull2(dst, src1, src2, data, tag); });
}

void TimedTransport::direct_wait(int src, int dst, int tag) {
  timed(tracer_, names_.wait, src, 0,
        [&] { inner_.direct_wait(src, dst, tag); });
}

int TimedTransport::select_source(int dst, std::span<const int> candidates,
                                  int tag) {
  return timed(tracer_, names_.select, dst, 0, [&] {
    return inner_.select_source(dst, candidates, tag);
  });
}

}  // namespace perfbench
