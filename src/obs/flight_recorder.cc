#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstring>

#include "obs/json.h"
#include "store/atomic_file.h"

namespace idlog {

std::atomic<bool> FlightRecorder::armed_{false};

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kRunStart: return "run-start";
    case FlightEventKind::kRunEnd: return "run-end";
    case FlightEventKind::kRoundStart: return "round-start";
    case FlightEventKind::kRoundCommit: return "round-commit";
    case FlightEventKind::kIndexBuild: return "index-build";
    case FlightEventKind::kCheckpointSection: return "checkpoint-section";
    case FlightEventKind::kGovernorMemory: return "governor-memory";
    case FlightEventKind::kFailpointHit: return "failpoint-hit";
    case FlightEventKind::kTrip: return "trip";
    case FlightEventKind::kWalAppend: return "wal-append";
    case FlightEventKind::kWalFsync: return "wal-fsync";
    case FlightEventKind::kWalReplay: return "wal-replay";
    case FlightEventKind::kWalRotate: return "wal-rotate";
  }
  return "unknown";
}

void FlightRecorder::Arm(size_t capacity_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_per_thread < 16) capacity_per_thread = 16;
  if (capacity_per_thread > (1u << 20)) capacity_per_thread = 1u << 20;
  capacity_ = capacity_per_thread;
  rings_.clear();
  generation_.fetch_add(1, std::memory_order_release);
  seq_.store(0, std::memory_order_relaxed);
  armed_at_ = std::chrono::steady_clock::now();
  armed_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::Disarm() {
  armed_.store(false, std::memory_order_relaxed);
}

FlightRecorder::Ring* FlightRecorder::ThisThreadRing() {
  // The cached pointer is only valid for the generation it was handed
  // out under: Arm() clears the ring registry, so stale pointers must
  // re-register rather than write into freed memory.
  struct Tls {
    uint64_t generation = 0;
    Ring* ring = nullptr;
  };
  thread_local Tls tls;
  // Unlocked generation probe keeps the armed path lock-free after a
  // thread's first event; Arm() never runs concurrently with recording
  // (same single-coordinator contract as ResourceGovernor::Arm).
  if (tls.ring != nullptr &&
      tls.generation == generation_.load(std::memory_order_acquire)) {
    return tls.ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>(capacity_));
  tls.ring = rings_.back().get();
  tls.generation = generation_.load(std::memory_order_relaxed);
  return tls.ring;
}

void FlightRecorder::RecordSlow(FlightEventKind kind, const char* label,
                                int64_t a, int64_t b, int64_t c) {
  Ring* ring = ThisThreadRing();
  FlightEvent& e = ring->slots[ring->count % ring->slots.size()];
  ++ring->count;
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.ts_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - armed_at_)
          .count());
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.c = c;
  if (label == nullptr) {
    e.label[0] = '\0';
  } else {
    std::strncpy(e.label, label, sizeof(e.label) - 1);
    e.label[sizeof(e.label) - 1] = '\0';
  }
}

uint64_t FlightRecorder::total_recorded() const {
  return seq_.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& ring : rings_) {
    n += std::min<uint64_t>(ring->count, ring->slots.size());
  }
  return n;
}

size_t FlightRecorder::capacity_per_thread() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::string FlightRecorder::ToJson() const {
  std::vector<FlightEvent> events;
  size_t capacity;
  size_t threads;
  uint64_t recorded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    capacity = capacity_;
    threads = rings_.size();
    recorded = seq_.load(std::memory_order_relaxed);
    for (const auto& ring : rings_) {
      const size_t cap = ring->slots.size();
      const uint64_t held = std::min<uint64_t>(ring->count, cap);
      // Oldest retained slot first; the global sort below interleaves
      // the threads back into record order.
      for (uint64_t i = 0; i < held; ++i) {
        events.push_back(
            ring->slots[(ring->count - held + i) % cap]);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });

  std::string out = "{\"schema\":\"idlog-flight-v1\"";
  out += ",\"capacity_per_thread\":" + std::to_string(capacity);
  out += ",\"threads\":" + std::to_string(threads);
  out += ",\"recorded\":" + std::to_string(recorded);
  out += ",\"retained\":" + std::to_string(events.size());
  out += ",\"dropped\":" + std::to_string(recorded - events.size());
  out += ",\"events\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i > 0) out += ",";
    out += "{\"seq\":" + std::to_string(e.seq);
    out += ",\"ts_ns\":" + std::to_string(e.ts_ns);
    out += ",\"kind\":" + JsonQuote(FlightEventKindName(e.kind));
    out += ",\"label\":" + JsonQuote(e.label);
    out += ",\"a\":" + std::to_string(e.a);
    out += ",\"b\":" + std::to_string(e.b);
    out += ",\"c\":" + std::to_string(e.c);
    out += "}";
  }
  out += "]}\n";
  return out;
}

Status FlightRecorder::Dump(const std::string& path) const {
  return WriteFileAtomic(path, ToJson());
}

}  // namespace idlog
