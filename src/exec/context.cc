#include "exec/context.h"

#include "exec/thread_pool.h"
#include "util/string_util.h"

namespace pdb {

std::string ExecReport::ToString() const {
  std::string s =
      StrFormat("%d thread%s", num_threads, num_threads == 1 ? "" : "s");
  auto add = [&s](uint64_t n, const char* label) {
    if (n > 0) {
      s += StrFormat(", %llu %s", static_cast<unsigned long long>(n), label);
    }
  };
  for (const ExecCounterInfo& row : kExecCounters) {
    add(this->*row.field, row.label);
  }
  add(wmc_shared_inserts, "shared WMC inserts");
  add(wmc_shared_evictions, "shared WMC evictions");
  add(wmc_shared_bytes, "shared WMC bytes");
  add(admission_rejected, "admission rejections");
  if (deadline_exceeded) s += ", deadline exceeded";
  if (cancelled) s += ", cancelled";
  return s;
}

void ExecContext::SetDeadline(uint64_t ms) {
  if (ms == 0) {
    ClearDeadline();
    return;
  }
  constexpr int64_t kNsPerMs = 1'000'000;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count();
  // An expiry past what the clock can represent never comes: arm nothing.
  if (ms > static_cast<uint64_t>((INT64_MAX - now) / kNsPerMs)) {
    ClearDeadline();
    return;
  }
  deadline_ns_.store(now + static_cast<int64_t>(ms) * kNsPerMs,
                     std::memory_order_relaxed);
  deadline_hit_.store(false, std::memory_order_relaxed);
}

void ExecContext::ClearDeadline() {
  deadline_ns_.store(0, std::memory_order_relaxed);
  deadline_hit_.store(false, std::memory_order_relaxed);
}

bool ExecContext::DeadlineExceeded() {
  if (deadline_hit_.load(std::memory_order_relaxed)) return true;
  int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
  if (deadline == 0) return false;
  int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now().time_since_epoch())
                    .count();
  if (now < deadline) return false;
  deadline_hit_.store(true, std::memory_order_relaxed);
  deadline_ever_hit_.store(true, std::memory_order_relaxed);
  return true;
}

ExecReport ExecContext::Report() {
  DeadlineExceeded();  // refresh the latch before snapshotting
  ExecReport report;
  for (const ExecCounterInfo& row : kExecCounters) {
    report.*row.field = counters_[static_cast<size_t>(row.counter)].load(
        std::memory_order_relaxed);
  }
  report.num_threads =
      pool_ ? static_cast<int>(pool_->num_threads()) : 1;
  report.cancelled = cancelled();
  report.deadline_exceeded =
      deadline_ever_hit_.load(std::memory_order_relaxed);
  return report;
}

}  // namespace pdb
